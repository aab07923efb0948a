import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DomainBox,
                     MountainPassInstance, build_backend, catalog_field,
                     catalog_names, check_mpt_geometry, critical_scan,
                     default_box, gradient_check, make_path,
                     polynomial_field, verify_deformation)
from passlab.errors import InvalidPoint


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0] * 4), np.array([1.0] * 4))
    with pytest.raises(ValueError, match="finite"):
        DomainBox(np.array([0.0, 0.0]), np.array([1.0, np.inf]))


def test_domain_box_contains_and_clip():
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.contains(np.array([0.5, -0.5]))
    assert not box.contains(np.array([1.5, 0.0]))
    clipped = box.clip(np.array([1.5, -3.0]))
    assert np.array_equal(clipped, [1.0, -1.0])


def test_catalog_evaluations():
    assert float(catalog_field("paraboloid").evaluate([1.0, 2.0])) == 5.0
    assert float(catalog_field("well_to_saddle").evaluate([1.0, 0.0])) == 1.0
    assert float(catalog_field("affine").evaluate([0.35, 7.0])) == 0.35


def test_catalog_gradients():
    assert np.array_equal(catalog_field("paraboloid").gradient([1.0, 2.0]),
                          [2.0, 4.0])
    assert np.array_equal(catalog_field("well_to_saddle").gradient([1.0, 0.0]),
                          [0.0, 0.0])
    assert np.array_equal(catalog_field("affine").gradient([0.3, -0.9]),
                          [1.0, 0.0])


def test_well_to_saddle_critical_points_exact():
    f = catalog_field("well_to_saddle")
    for x in (0.0, 1.0, 2.0):
        assert np.array_equal(f.gradient([x, 0.0]), [0.0, 0.0])
    assert np.array_equal(catalog_field("paraboloid").gradient([0.0, 0.0]),
                          [0.0, 0.0])


def test_evaluation_is_deterministic():
    f = catalog_field("exp_decay")
    u = np.array([3.1415, -0.27])
    assert float(f.evaluate(u)) == float(f.evaluate(u))
    assert np.array_equal(f.gradient(u), f.gradient(u))


def test_dimension_mismatch_raises():
    f = catalog_field("paraboloid")
    with pytest.raises(InvalidPoint):
        f.evaluate([1.0, 2.0, 3.0])
    with pytest.raises(InvalidPoint):
        f.gradient([1.0])


def test_vectorized_evaluation():
    f = catalog_field("saddle")
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(f.evaluate(pts), [1.0, -1.0, 0.0])
    assert f.gradient(pts).shape == (3, 2)


def test_gradient_check_affine():
    f = catalog_field("affine")
    rep = gradient_check(f, default_box("affine"), samples=100, step=1e-4)
    assert rep["max_rel_error"] < 1e-10


def test_gradient_check_paraboloid():
    f = catalog_field("paraboloid")
    rep = gradient_check(f, default_box("paraboloid"), samples=1000, step=1e-4)
    assert rep["max_rel_error"] < 1e-8


def test_gradient_check_all_catalog():
    for name in catalog_names():
        f = catalog_field(name)
        rep = gradient_check(f, default_box(name), samples=1000, step=1e-4)
        assert rep["max_rel_error"] < 1e-5, (name, rep)


def test_polynomial_field_matches_paraboloid():
    poly = polynomial_field(2, [((2, 0), 1.0), ((0, 2), 1.0)])
    ref = catalog_field("paraboloid")
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(50, 2))
    assert np.allclose(poly.evaluate(pts), ref.evaluate(pts))
    assert np.allclose(poly.gradient(pts), ref.gradient(pts))


def test_polynomial_degree_cap():
    with pytest.raises(ValueError):
        polynomial_field(2, [((9, 0), 1.0)])


def test_polynomial_exponents_must_be_integers():
    for exps in [(2.5, 0), (True, 0)]:
        with pytest.raises(ValueError, match="integers"):
            polynomial_field(2, [(exps, 1.0)])
    for coef in ["2.5", True]:
        with pytest.raises(ValueError, match="must be a number"):
            polynomial_field(2, [((1, 0), coef)])
    integral = polynomial_field(2, [((2.0, 0), 1.0)])
    assert integral.evaluate(np.array([2.0, 0.0])) == 4.0


def test_unknown_catalog_name():
    for lookup in (catalog_field, default_box):
        with pytest.raises(KeyError, match="unknown catalog field 'nonexistent'"):
            lookup("nonexistent")


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-2, 2))
def test_affine_linearity(x, y, s):
    f = catalog_field("affine")
    lhs = float(f.evaluate([s * x, s * y]))
    assert lhs == pytest.approx(s * float(f.evaluate([x, y])), abs=1e-12)


def _w2s_instance(**kw):
    return MountainPassInstance(catalog_field("well_to_saddle"),
                                default_box("well_to_saddle"), [0.0, 0.0],
                                [2.0, 0.0], **kw)


def _w2s_deformation():
    part = BandPartition(catalog_field("well_to_saddle"),
                         default_box("well_to_saddle"), 0.5, 0.1)
    return DeformationField(build_backend(part, resolution=21))


@pytest.mark.parametrize("call, name", [
    # numpy's "zero-size array to reduction operation minimum", and TypeError
    (lambda: check_mpt_geometry(_w2s_instance(radius=1.0), sphere_samples=0),
     "sphere_samples"),
    (lambda: check_mpt_geometry(_w2s_instance(radius=1.0), sphere_samples=2.5),
     "sphere_samples"),
    # TypeError from the sampler
    (lambda: verify_deformation(_w2s_deformation(), 1.5, 0), "samples"),
    (lambda: verify_deformation(_w2s_deformation(), True, 0), "samples"),
    # TypeError from np.empty
    (lambda: make_path(_w2s_instance(), 8.0), "M"),
    # a silent empty list
    (lambda: critical_scan(catalog_field("paraboloid"), default_box("paraboloid"),
                           1, 0.1), "resolution"),
    (lambda: critical_scan(catalog_field("paraboloid"), default_box("paraboloid"),
                           (21, 2), 0.1), "resolution"),
    # accepted: the geometry check reported b NaN (and a RuntimeWarning at inf)
    (lambda: _w2s_instance(radius=float("nan")), "radius"),
    (lambda: _w2s_instance(radius=float("inf")), "radius"),
    # TypeError from the sampler
    (lambda: gradient_check(catalog_field("paraboloid"),
                            default_box("paraboloid"), samples=2.0), "samples"),
], ids=["sphere_samples=0", "sphere_samples=2.5", "samples=1.5", "samples=True",
        "M=8.0", "resolution=1", "resolution=(21,2)", "radius=nan",
        "radius=inf", "fd_samples=2.0"])
def test_entry_points_reject_bad_counts_and_radii(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()
