import math

import numpy as np
import pytest

from hardysplit.cayley import BoundarySamples, circle_grid
from hardysplit.errors import BoundViolated
from hardysplit.hardy import (
    cauchy_integral,
    line_profile,
    poisson_extend,
    subharmonic_bound_check,
)


def upper_double(z):
    z = np.asarray(z, dtype=complex)
    return -4.0 / (z + 1j) ** 2


def test_poisson_reproduces_analytic_value():
    assert abs(poisson_extend(upper_double, 1j) - 1.0) < 1e-8


def test_poisson_of_constant_is_one():
    val = poisson_extend(lambda x: np.ones_like(x, dtype=complex), 2.0 + 0.3j)
    assert abs(val - 1.0) < 1e-8


def test_poisson_semigroup():
    delta, y = 0.3, 0.5
    shifted = lambda x: upper_double(np.asarray(x, dtype=complex) + 1j * delta)
    got = poisson_extend(shifted, 1j * y)
    assert abs(got - upper_double(1j * (y + delta))) < 1e-6


def test_poisson_accepts_line_samples():
    n = 1024
    thetas = circle_grid(n)
    x = np.tan(thetas / 2.0)
    vals = np.zeros(n, dtype=complex)
    vals[1:] = upper_double(x[1:])
    samples = BoundarySamples(n=n, values=vals, p=1.0, domain_tag="line")
    assert abs(poisson_extend(samples, 2j) - upper_double(2j)) < 1e-5


def test_low_height_refused_without_flag():
    with pytest.raises(ValueError):
        poisson_extend(upper_double, 0.01j)
    # explicit override works
    val = poisson_extend(upper_double, 0.04j, allow_low=True)
    assert abs(val - upper_double(0.04j)) < 1e-6


def test_cauchy_matches_poisson_for_upper_member():
    for z in (1j, 0.5 + 1.5j, -2.0 + 0.4j):
        pv = poisson_extend(upper_double, z)
        cv = cauchy_integral(upper_double, z)
        assert abs(pv - cv) < 1e-6
        assert abs(pv - upper_double(z)) < 1e-6


def test_cauchy_counts_kernel_pole():
    # 4/(x^2+1) against the kernel at 2i: residues at i and at z itself
    f = lambda x: 4.0 / (np.asarray(x) ** 2 + 1.0)
    val = cauchy_integral(f, 2j)
    assert abs(val - 2.0 / 3.0) < 1e-7  # 2 (pole at i) - 4/3 (kernel pole)


def test_cauchy_of_zero():
    val = cauchy_integral(lambda x: np.zeros_like(x, dtype=complex), 1j)
    assert val == 0


def test_line_profile_closed_form_and_monotone():
    prof = line_profile(lambda z: (z + 1j) ** -2.0, 1.0,
                        [0.1, 0.5, 1.0, 2.0, 5.0])
    oracle = [math.pi / (1.0 + y) for y in prof.heights]
    assert np.allclose(prof.values, oracle, rtol=1e-7)
    assert prof.monotone
    assert prof.sup_norm() == pytest.approx(max(oracle))


def test_line_profile_flags_wrong_half_plane():
    prof = line_profile(lambda z: (z - 1j) ** -2.0, 1.0,
                        [0.5, 1.0, 2.0], tol=1e-6)
    assert not prof.monotone
    assert prof.values[1] == math.inf
    report = prof.to_report()
    assert report["values"][1] is None and report["diverged_heights"] == [1.0]


def test_line_profile_zero():
    prof = line_profile(lambda z: np.zeros_like(z), 0.75, [0.5, 1.0])
    assert prof.values == (0.0, 0.0) and prof.monotone


def test_subharmonic_bound_holds_for_member():
    p = 0.75
    heights = (0.05, 0.1, 0.5, 1.0, 2.0)
    prof = line_profile(lambda z: upper_double(z), p, heights)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, 100) + 1j * rng.uniform(0.05, 4.0, 100)
    report = subharmonic_bound_check(upper_double, p, prof.sup_norm(), pts)
    assert report["min_margin"] >= 0.0
    assert report["c_p"] == pytest.approx((2.0 / math.pi) ** (1.0 / p))


def test_subharmonic_constant_at_half():
    report = subharmonic_bound_check(lambda z: np.zeros_like(z), 0.5, 1.0, [1j])
    assert report["c_p"] == pytest.approx((2.0 / math.pi) ** 2)


def test_subharmonic_violation_raises():
    with pytest.raises(BoundViolated):
        subharmonic_bound_check(upper_double, 0.75, 1e-6, [0.1j])
