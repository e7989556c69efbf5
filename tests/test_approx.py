import math

import numpy as np
import pytest

from hardysplit.approx import (
    AtomSchedule,
    build_atom,
    poly_approx_g2,
    rational_sequence,
    single_pole_approx,
    trig_approx,
    weierstrass_m,
)
from hardysplit.cayley import BoundarySamples, circle_grid, one_plus_cos
from hardysplit.quadrature import lp_quasinorm_circle


def lorentzian(x):
    return 4.0 / (x * x + 1.0)


def test_weierstrass_m_values():
    assert weierstrass_m(0.75) == (1, 1)
    assert weierstrass_m(0.6) == (1, 1)
    assert weierstrass_m(0.3) == (2, 2)
    for p in (0.2, 0.35, 0.5, 0.75, 0.9):
        l_p, m = weierstrass_m(p)
        assert 1.0 < 2.0 * p * m <= 2.0
        assert m == 2 ** (l_p - 1)


def test_plan_weighted_error_and_positivity():
    p = 0.75
    _, m = weierstrass_m(p)
    plan = poly_approx_g2(p, m, tol=1e-3)
    x = np.linspace(0.0, 2.0, 20001)
    q = plan.q_eval(x)
    assert np.all(q > 0.0)  # positivity is what the atom pipeline relies on
    weighted = np.abs(x ** m * q - x ** (1.0 / p))
    assert weighted.max() <= plan.sup_err <= 1e-3


def test_fejer_coefficient_damping():
    # g = e^{i theta}: the degree-d Fejer mean has c_1 = d/(d+1)
    n, d = 256, 16
    thetas = circle_grid(n)
    g = BoundarySamples(n=n, values=np.exp(1j * thetas), p=0.75)
    r = trig_approx(g, degree=d)
    assert r.coeffs[d + 1] == pytest.approx(d / (d + 1.0), abs=1e-12)
    assert abs(r.coeffs[d]) < 1e-12  # c_0 vanishes


def test_build_atom_boundary_factorization():
    # atom boundary value equals r(theta) q(u) u^m exactly
    p = 0.75
    plan = poly_approx_g2(p, 1, tol=1e-3)
    n = 256
    thetas = circle_grid(n)
    g = BoundarySamples(n=n, values=np.cos(thetas) + 0.3j * np.sin(2 * thetas),
                        p=p)
    r = trig_approx(g, degree=8)
    atom = build_atom(r, plan, p)
    sample = np.linspace(-3.0, 3.0, 17)
    u = one_plus_cos(sample)
    expected = r.eval(sample) * plan.q_eval(u) * u ** plan.m
    got = atom.eval_w(np.exp(1j * sample))
    assert np.max(np.abs(got - expected)) < 1e-9 * max(1.0, np.abs(expected).max())


def test_rational_sequence_residuals_decrease():
    seq = rational_sequence(lorentzian, 0.75, 0.5,
                            AtomSchedule(stages=3, base_degree=16))
    assert len(seq.atoms) == 3
    hist = seq.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    # budget within the (1 + eps) overhead times a quasinorm constant
    bound = 2.0 * (1.0 + 0.5) * seq.fp_norm_p
    assert 0.0 < seq.budget_p <= bound


def test_rational_sequence_zero_input():
    seq = rational_sequence(lambda x: np.zeros_like(x), 0.75, 0.5)
    assert seq.atoms == ()
    assert seq.fp_norm_p == 0.0


def test_rational_sequence_rejects_bad_p():
    with pytest.raises(ValueError):
        rational_sequence(lorentzian, 1.2, 0.5)


def test_single_pole_exact_member_recovered():
    # -4/(z+i)^2 = (2i/(z+i))^2 is itself in the N = 1 single-pole class
    f = lambda x: -4.0 / (x + 1j) ** 2
    res = single_pole_approx(f, N=1, degree=16, p=0.75)
    assert res.sup_residual < 1e-12
    x = np.linspace(-5.0, 5.0, 11)
    assert np.max(np.abs(res.rational.eval(x.astype(complex)) - f(x))) < 1e-10


def test_single_pole_requires_integrability():
    with pytest.raises(ValueError):
        single_pole_approx(lorentzian, N=0, degree=16, p=0.75)  # (N+1)p <= 1


def test_single_pole_degree_below_half_the_grid():
    f = lambda x: -4.0 / (x + 1j) ** 2
    for degree in (2048, 4095):
        with pytest.raises(ValueError, match="must be < n/2"):
            single_pole_approx(f, N=1, degree=degree, p=0.75)


def test_single_pole_residual_shrinks_with_degree():
    f = lambda x: 1.0 / ((x + 1j) ** 2 * (x + 2j))
    res16 = single_pole_approx(f, N=2, degree=16, p=0.75)
    res64 = single_pole_approx(f, N=2, degree=64, p=0.75)
    assert res64.lp_residual_p < res16.lp_residual_p


def test_sequence_boundary_eval_matches_target():
    seq = rational_sequence(lorentzian, 0.75, 0.5,
                            AtomSchedule(stages=4, base_degree=16))
    thetas = np.array([0.0, 1.0, -2.0, 2.0 * math.atan(3.0)])
    vals = seq.partial_sum().eval_theta(thetas)
    target = lorentzian(np.tan(thetas / 2.0))
    assert np.max(np.abs(vals - target) / target) < 2e-2


@pytest.mark.parametrize("p", [0.55, 0.75, 0.9])
def test_pipeline_atoms_certify_their_exact_decay(p):
    # every atom is r q(u) u^m with u = (1+w)^2/(2w) and m = 1 here: x^-2
    seq = rational_sequence(lorentzian, p, 0.5, AtomSchedule(stages=4))
    assert len(seq.atoms) == 4
    for atom in seq.atoms:
        assert atom.zero_order == 2
        assert atom.pole_certificate().degree_gap == -2
