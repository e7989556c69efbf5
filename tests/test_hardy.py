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


def _seeded_pole_sum(rng, upper):
    """sum c_k/(z - a_k)^2 with every a_k 0.5-1.5 off the axis on one side."""
    k = int(rng.integers(1, 3))
    sign = -1.0 if upper else 1.0
    poles = rng.uniform(-1.5, 1.5, k) + 1j * sign * rng.uniform(0.5, 1.5, k)
    cs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return lambda z: sum(c / (np.asarray(z, dtype=complex) - a) ** 2
                         for c, a in zip(cs, poles))


@pytest.mark.parametrize("upper", [True, False])
def test_sample_extensions_take_the_disc_closed_forms(upper):
    # Poisson of boundary data extends f(z) upward and f(conj z) downward;
    # Cauchy keeps the upper-analytic part and kills the lower one
    n = 4096
    x = np.tan(circle_grid(n)[1:] / 2.0)
    rng = np.random.default_rng(23 if upper else 29)
    for _ in range(3):
        f = _seeded_pole_sum(rng, upper)
        vals = np.zeros(n, dtype=complex)
        vals[1:] = f(x)
        samples = BoundarySamples(n=n, values=vals, p=0.9, domain_tag="line")
        for z in (0.5j, 1j, 2j, 1.0 + 1j, -2.0 + 0.5j, 3.0 + 0.05j):
            pv = poisson_extend(samples, z)
            cv = cauchy_integral(samples, z)
            want_p = f(z) if upper else f(np.conj(z))
            want_c = f(z) if upper else 0.0
            assert abs(pv - want_p) < 1e-12 and abs(cv - want_c) < 1e-12


def test_constant_samples_extend_to_one_and_half():
    # the Cauchy integral of a constant is the symmetric principal value 1/2
    samples = BoundarySamples(n=64, values=np.ones(64, dtype=complex), p=0.75,
                              domain_tag="line")
    for z in (1j, 0.3 + 0.2j, -4.0 + 2.0j):
        assert abs(poisson_extend(samples, z) - 1.0) < 1e-15
        assert abs(cauchy_integral(samples, z) - 0.5) < 1e-15


def test_extensions_refuse_circle_samples():
    samples = BoundarySamples(n=16, values=np.ones(16, dtype=complex), p=0.75)
    with pytest.raises(ValueError):
        poisson_extend(samples, 1j)
    with pytest.raises(ValueError):
        cauchy_integral(samples, 1j)


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
