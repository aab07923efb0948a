"""Shared fixtures: the affine slab configuration and catalog instances."""
import numpy as np
import pytest

from passlab import (BandPartition, DeformationField, DeformationParams,
                     DomainBox, FlowConfig, MountainPassInstance, RegionSpec,
                     build_backend, catalog_field, default_box)


@pytest.fixture(scope="session")
def affine_field():
    return catalog_field("affine")


@pytest.fixture(scope="session")
def affine_part(affine_field):
    """phi = x, c = 0, eps = 0.5, D empty, on the default box [-1,1]^2.

    The band A = [-1, 1] is the whole box, so the complement of A is empty
    and at distance +inf."""
    params = DeformationParams(c=0.0, eps=0.5)
    return BandPartition(affine_field, default_box("affine"), params)


@pytest.fixture(scope="session")
def affine_backend(affine_part):
    return build_backend(affine_part)


@pytest.fixture(scope="session")
def affine_df(affine_part, affine_backend):
    return DeformationField(affine_part, affine_backend)


@pytest.fixture(scope="session")
def affine_wide_df(affine_field):
    """Same configuration on [-2,2]^2 so OUTSIDE points exist in the box on
    both sides of A, and the set distances are the closed-form slab ones."""
    box = DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    part = BandPartition(affine_field, box, DeformationParams(c=0.0, eps=0.5))
    return DeformationField(part, build_backend(part))


@pytest.fixture(scope="session")
def flow_cfg():
    return FlowConfig()


@pytest.fixture(scope="session")
def w2s_field():
    return catalog_field("well_to_saddle")


@pytest.fixture(scope="session")
def w2s_box():
    return default_box("well_to_saddle")


@pytest.fixture(scope="session")
def w2s_instance(w2s_field, w2s_box):
    return MountainPassInstance(w2s_field, w2s_box,
                                pin_zero=np.array([0.0, 0.0]),
                                pin_e=np.array([1.0, 0.0]))


@pytest.fixture(scope="session")
def w2s_deformation(w2s_field, w2s_box):
    """Deformation at the valley level with D = the valley level set,
    mirroring the two-pin argument's choice."""
    params = DeformationParams(c=0.0, eps=0.1)
    part = BandPartition(w2s_field, w2s_box, params,
                         RegionSpec.level_set(0.0))
    backend = build_backend(part, "sampled", resolution=201)
    return DeformationField(part, backend)
