import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (DomainBox, catalog_field, catalog_names, default_box,
                     gradient_check, polynomial_field)
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


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        catalog_field("nonexistent")


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-2, 2))
def test_affine_linearity(x, y, s):
    f = catalog_field("affine")
    lhs = float(f.evaluate([s * x, s * y]))
    assert lhs == pytest.approx(s * float(f.evaluate([x, y])), abs=1e-12)
