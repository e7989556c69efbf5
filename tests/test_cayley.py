import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysplit.cayley import (
    BoundarySamples,
    alpha,
    beta,
    circle_grid,
    grid_coefficients,
    one_plus_cos,
    pullback,
    theta_of_x,
)


finite_reals = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


@given(x=finite_reals, y=st.floats(min_value=1e-6, max_value=1e6))
def test_alpha_beta_round_trip_upper(x, y):
    z = complex(x, y)
    assert abs(alpha(beta(z)) - z) <= 1e-9 * max(1.0, abs(z))


@given(x=finite_reals)
def test_beta_maps_line_to_circle(x):
    assert abs(abs(beta(complex(x, 0.0))) - 1.0) < 1e-12


@given(x=finite_reals, y=st.floats(min_value=1e-3, max_value=1e3))
def test_beta_upper_half_plane_inside_disc(x, y):
    assert abs(beta(complex(x, y))) < 1.0


@given(theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi - 1e-9))
def test_theta_of_x_inverts_tangent(theta):
    assert abs(theta_of_x(math.tan(theta / 2.0)) - theta) < 1e-9


def test_circle_grid_shape():
    g = circle_grid(16)
    assert g[0] == -math.pi
    assert g.size == 16
    assert np.allclose(np.diff(g), 2.0 * math.pi / 16)
    with pytest.raises(ValueError):
        circle_grid(12)  # not a power of two


def test_one_plus_cos_half_angle_identity():
    theta = np.linspace(-3.0, 3.0, 101)
    assert np.allclose(one_plus_cos(theta), 2.0 * np.cos(theta / 2.0) ** 2)


def test_boundary_samples_json_round_trip():
    vals = np.exp(1j * circle_grid(16))
    s = BoundarySamples(n=16, values=vals, p=0.75)
    t = BoundarySamples.from_json(s.to_json())
    assert t.n == s.n and t.p == s.p and t.domain_tag == s.domain_tag
    assert np.array_equal(t.values, s.values)
    # shortest-repr serialization round-trips, so it is byte-stable
    assert s.to_json() == t.to_json()


def test_grid_coefficients_layout_and_interpolation():
    n = 16
    thetas = circle_grid(n)
    vals = 2.0 + np.exp(3j * thetas) - 0.5j * np.exp(-5j * thetas) \
        + 0.25 * np.cos(8 * thetas)
    c = grid_coefficients(vals)
    want = np.zeros(n + 1, dtype=complex)  # k = -8..8
    want[8], want[11], want[3] = 2.0, 1.0, -0.5j
    want[0] = want[16] = 0.125  # the Nyquist term, split evenly
    assert np.allclose(c, want, atol=1e-15)
    s = BoundarySamples(n=n, values=vals, p=0.75)
    assert np.array_equal(s.coeffs, c)
    assert np.allclose(s.eval_theta(thetas), vals, atol=1e-14)
    off = np.linspace(-3.0, 3.0, 37)  # more than one dense chunk
    assert np.allclose(s.eval_theta(off),
                       2.0 + np.exp(3j * off) - 0.5j * np.exp(-5j * off)
                       + 0.25 * np.cos(8 * off), atol=1e-14)


def test_boundary_samples_rejects_nonfinite():
    vals = np.ones(16, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        BoundarySamples(n=16, values=vals, p=0.75)


def test_pullback_pins_infinity_node():
    g = pullback(lambda x: 4.0 / (x * x + 1.0), p=0.75, n=64)
    assert g.domain_tag == "circle"
    assert g.values[0] == 0.0
    # interior nodes match f(tan(theta/2)) (1+cos theta)^(-1/p)
    th = g.thetas[1:]
    expected = 4.0 / (np.tan(th / 2.0) ** 2 + 1.0) * one_plus_cos(th) ** (-4.0 / 3.0)
    assert np.allclose(g.values[1:], expected)


@settings(max_examples=25)
@given(theta=st.floats(min_value=-math.pi + 0.1, max_value=math.pi - 0.1))
def test_json_floats_have_17_digits(theta):
    s = BoundarySamples(n=16, values=np.full(16, theta, dtype=complex), p=0.75)
    payload = json.loads(s.to_json())
    assert payload["re"][0] == theta
