import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from hardysplit import corpus, split
from hardysplit.approx import AtomSchedule
from hardysplit.cayley import beta, one_plus_cos
from hardysplit.corpus import blend_pair
from hardysplit.errors import BoundNotMet, NoConvergence, NotInLp, OnRealAxis
from hardysplit.quadrature import _gauss_jacobi, lp_quasinorm_line
from hardysplit.rational import LaurentRational
from hardysplit.serialize import to_json
from hardysplit.split import (
    AtomDecomposition,
    SplitPiece,
    _kappa0,
    _root_thetas,
    _stable_weighted,
    decompose,
    interior_sum_eval,
    poisson_recovery,
    real_pole_blend,
    split_atom,
)

P_DEFAULT = 0.75
LORENTZIAN_ATOM = LaurentRational.from_dict({-1: 1.0, 0: 2.0, 1: 1.0})


def test_split_additivity_and_pole_structure():
    res = split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    rng = np.random.default_rng(7)
    zs = np.concatenate([
        rng.uniform(-40.0, 40.0, 400).astype(complex),
        rng.uniform(-5.0, 5.0, 300) + 1j * rng.uniform(0.2, 3.0, 300),
        rng.uniform(-5.0, 5.0, 300) - 1j * rng.uniform(0.2, 3.0, 300),
    ])
    # keep clear of the split's real poles
    for x in res.real_poles:
        zs = zs[np.abs(zs - x) > 1e-3]
    total = res.P.eval(zs) + res.Q.eval(zs)
    ref = LORENTZIAN_ATOM.eval(zs)
    assert np.max(np.abs(total - ref)) < 1e-10
    p_poles = {a for a, _ in res.P.poles}
    q_poles = {a for a, _ in res.Q.poles}
    assert -1j in p_poles and all(a == -1j or a.imag == 0 for a in p_poles)
    assert 1j in q_poles and all(a == 1j or a.imag == 0 for a in q_poles)
    assert res.bound_ratio <= 2.0 * math.pi / (1.0 - P_DEFAULT)


def test_split_sides_have_equal_mass():
    # |beta(x)| = 1 forces |P(x)| = |Q(x)| pointwise on the line
    res = split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    x = np.linspace(-10.0, 10.0, 101)
    for xr in res.real_poles:
        x = x[np.abs(x - xr) > 1e-2]
    pv = np.abs(res.P.eval(x.astype(complex)))
    qv = np.abs(res.Q.eval(x.astype(complex)))
    assert np.max(np.abs(pv - qv) / (pv + 1e-30)) < 1e-8


def test_one_sided_atom_short_circuits():
    z = np.array([0.3 + 0.4j, -1.0 - 0.7j, 2.0 + 1.5j, -0.4 - 2.2j])
    for coeffs, pole in (({0: 1.0, 1: 2.0, 2: 1.0}, -1j),
                         ({0: 1.0, -1: 2.0, -2: 1.0}, 1j)):
        R = LaurentRational.from_dict(coeffs)
        res = split_atom(R, P_DEFAULT)
        assert res.bound_ratio <= 1.0 + 1e-12
        # the whole atom comes back on its own side, with an exact zero partner
        whole, zero = (res.P, res.Q) if pole == -1j else (res.Q, res.P)
        assert whole.poles == ((pole, 2),)
        assert zero.terms == () and zero.poles == ()
        assert np.all(zero.eval(z) == 0)
        assert np.max(np.abs(res.P.eval(z) + res.Q.eval(z) - R.eval(z))) < 1e-12


def test_zero_atom():
    res = split_atom(LaurentRational(np.zeros(1)), P_DEFAULT)
    z = np.array([1j, -2j, 3.0 + 0.5j])
    assert np.all(res.P.eval(z) == 0) and np.all(res.Q.eval(z) == 0)


def test_split_rejects_non_lp_atom():
    # constant beta^0 term does not decay on the line
    with pytest.raises(NotInLp):
        split_atom(LaurentRational.from_dict({-1: 1.0, 0: 2.0, 1: 1.0}), 0.3)


def test_blend_has_real_poles_and_meets_distance_bound():
    R1, R2 = blend_pair()
    p = P_DEFAULT
    blend = real_pole_blend(R1, R2, p)
    assert all(abs(a.imag) < 1e-12 for a, _ in blend.poles)
    z = np.array([0.5j, -0.5j])
    assert np.all(np.isfinite(blend.eval(z)))
    d12 = lp_quasinorm_line(
        lambda x: R1.eval(x.astype(complex)) - R2.eval(x.astype(complex)),
        p, tol=1e-4).value
    sing = [(a.real, order) for a, order in blend.poles]
    dist = lp_quasinorm_line(
        lambda x: blend.eval(x.astype(complex)) - R1.eval(x.astype(complex)),
        p, singularities=sing, tol=1e-3).value
    assert dist <= 2.0 * math.pi / (1.0 - p) * d12


def test_blend_trivial_pair_is_identity():
    R = LaurentRational.from_dict({0: 2.5})
    blend = real_pole_blend(R, R, P_DEFAULT)
    x = np.linspace(-3.0, 3.0, 7).astype(complex)
    assert np.max(np.abs(blend.eval(x) - 2.5)) == 0.0


def test_blend_validates_sides():
    R1, R2 = blend_pair()
    with pytest.raises(ValueError):
        real_pole_blend(R2, R1, P_DEFAULT)  # sides swapped


def test_interior_sum_eval_guards_and_empty():
    empty = AtomDecomposition(p=P_DEFAULT, eps=0.5, plus_atoms=(),
                              minus_atoms=())
    val, tail = interior_sum_eval(empty, 1j)
    assert val == 0 and tail == 0
    with pytest.raises(OnRealAxis):
        interior_sum_eval(empty, 1.0 + 0.0j)


def test_poisson_recovery_is_the_atom_sums_disc_extension():
    # beta^k extends as beta(z)^k and beta^-k as conj(beta(z))^k
    f = corpus.get("lorentzian").boundary
    dec = decompose(f, P_DEFAULT, 0.5, AtomSchedule(stages=2))
    S = dec.source.partial_sum()
    for x, y in ((0.0, 0.1), (1.0, 0.1), (-3.0, 0.05), (0.5, 2.0)):
        w = complex(beta(complex(x, y)))
        want = sum(S.coeff(k) * w ** k + S.coeff(-k) * w.conjugate() ** k
                   for k in range(1, S.n + 1)) + S.coeff(0)
        assert abs(poisson_recovery(dec, x, y) - want.real) <= 1e-13 * abs(want)


def test_interior_single_atom_matches_direct_eval():
    res = split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    dec = AtomDecomposition(p=P_DEFAULT, eps=0.5, plus_atoms=(res.P,),
                            minus_atoms=(res.Q,))
    z = 0.7 + 1.3j
    val, tail = interior_sum_eval(dec, z)
    assert val == res.P.eval(np.array([z]))[0]
    assert tail == 0.0


def _rebuilt(piece):
    """The piece rebuilt from its serialized report alone."""
    rep = json.loads(to_json(piece.to_report()))
    terms = tuple(
        (complex(t["c"]["re"], t["c"]["im"]),
         LaurentRational(np.array(t["coeffs_re"]) + 1j * np.array(t["coeffs_im"])),
         t["shift"])
        for t in rep["terms"])
    return SplitPiece(terms, rep["m"], rep["phi"])


def test_split_piece_builder_oracle():
    # P, Q and the blend built directly at a fixed phi, against the closed
    # forms of the split family; no phi-scan, so any degree stays cheap
    phi = 0.37
    e = np.exp(1j * phi)
    rng = np.random.default_rng(3)
    atoms = [corpus.get("lorentzian").laurent] + [
        LaurentRational(rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))
        for n in (1, 8, 33, 145)]
    z = np.concatenate([rng.uniform(-5.0, 5.0, 100) + 1j * rng.uniform(0.1, 3.0, 100),
                        rng.uniform(-5.0, 5.0, 100) - 1j * rng.uniform(0.1, 3.0, 100)])
    for R in atoms:
        m = R.n + 1
        P = SplitPiece(((1.0, R, m),), m, phi)
        Q = SplitPiece(((-e, R, 0),), m, phi)
        r, bm = R.eval(z), beta(z) ** m
        pv, qv = P.eval(z), Q.eval(z)
        assert np.max(np.abs(pv - bm * r / (bm - e)) / np.abs(bm * r / (bm - e))) < 1e-12
        assert np.max(np.abs(qv - (-e * r / (bm - e))) / np.abs(e * r / (bm - e))) < 1e-12
        assert np.max(np.abs(pv + qv - r) / np.abs(r)) < 1e-12
        real = tuple((complex(x), 1) for x in np.tan(_root_thetas(m, phi) / 2.0))
        assert len(real) == m
        assert P.poles == real + ((-1j, R.pos_degree),)
        assert Q.poles == real + ((1j, R.neg_degree),)
        for piece in (P, Q):
            again = _rebuilt(piece)
            assert again.poles == piece.poles
            assert np.array_equal(again.eval(z), piece.eval(z))

    R1, R2 = blend_pair()
    m = 2 * max(R1.n, R2.n) + 2
    blend = SplitPiece(((-e, R1, 0), (1.0, R2, m)), m, phi)
    assert blend.poles == tuple((complex(x), 1) for x in np.tan(_root_thetas(m, phi) / 2.0))
    bm = beta(z) ** m
    want = (-e * R1.eval(z) + bm * R2.eval(z)) / (bm - e)
    assert np.max(np.abs(blend.eval(z) - want) / np.abs(want)) < 1e-12
    again = _rebuilt(blend)
    assert again.poles == blend.poles
    assert np.array_equal(again.eval(z), blend.eval(z))


@pytest.mark.parametrize("p", [0.55, 0.75, 0.95])
def test_stable_weighted_closed_form_near_infinity(p):
    # R = c(w) (w + 2 + 1/w) is c(e^{i theta}) 2 (1 + cos theta) on the circle
    rng = np.random.default_rng(17)
    theta = math.pi - 10.0 ** -np.arange(1.0, 13.0)
    w = np.exp(1j * theta)
    for d in range(4):
        c = rng.normal(size=2 * d + 1) + 1j * rng.normal(size=2 * d + 1)
        R = LaurentRational(np.convolve(c, [1.0, 2.0, 1.0]))
        cw = sum(cj * w ** (j - d) for j, cj in enumerate(c))
        want = cw * 2.0 * one_plus_cos(theta) ** (1.0 - 1.0 / p)
        got = _stable_weighted(R, p)(theta)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, d


CORPUS_P = (0.52, 0.55, 0.6, 0.75, 0.9, 0.95, 0.97)


@pytest.fixture
def quasinorm_calls(monkeypatch):
    """Values of every lp_quasinorm_circle call made from split, in order."""
    values = []
    real = split.lp_quasinorm_circle

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        values.append(res.value)
        return res

    monkeypatch.setattr(split, "lp_quasinorm_circle", counted)
    return values


def _off_axis_points():
    rng = np.random.default_rng(11)
    x = rng.uniform(-6.0, 6.0, 200)
    y = rng.uniform(0.05, 3.0, 200) * rng.choice([-1.0, 1.0], 200)
    return x + 1j * y


@pytest.mark.parametrize("p", CORPUS_P)
def test_split_atom_on_corpus_needs_one_j_quadrature(p, quasinorm_calls):
    z = _off_axis_points()
    for name in corpus.names():
        R = corpus.get(name).laurent
        if R is None:
            continue
        quasinorm_calls.clear()
        res = split_atom(R, p)
        two_sided = R.neg_degree > 0 and R.pos_degree > 0
        if two_sided:
            # ||R||_p^p, then J at the structural phi alone
            assert len(quasinorm_calls) <= 2, name
            assert res.phi_rule == "structural", name
            assert res.phi == (0.0 if res.m % 2 else -math.pi)
            assert res.j_value == quasinorm_calls[-1]
        if not R.is_zero:
            assert res.j_value / res.r_norm_p <= 2.0 * math.pi / (1.0 - p), name
            r = R.eval(z)
            assert np.max(np.abs(res.P.eval(z) + res.Q.eval(z) - r)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("p", CORPUS_P)
def test_blend_pair_on_corpus_needs_one_j_quadrature(p, quasinorm_calls):
    R1, R2 = blend_pair()
    blend = real_pole_blend(R1, R2, p)
    # ||R1 - R2||_p^p, then the distance J at the structural phi alone
    assert len(quasinorm_calls) == 2
    assert blend.phi == (0.0 if blend.m % 2 else -math.pi)
    diff_norm, dist = quasinorm_calls
    assert dist / diff_norm <= 2.0 * math.pi / (1.0 - p)
    z = _off_axis_points()
    bm, e = beta(z) ** blend.m, np.exp(1j * blend.phi)
    want = (-e * R1.eval(z) + bm * R2.eval(z)) / (bm - e)
    assert np.max(np.abs(blend.eval(z) - want) / np.abs(want)) < 1e-12


@functools.lru_cache(maxsize=None)
def _lorentzian_pipeline(p):
    """The CLI's 4-stage decompose of the corpus lorentzian at p."""
    return decompose(corpus.get("lorentzian").boundary, p, 0.5)


def _circle_zeros(R, count):
    """Sign changes of the real-valued R(e^{i theta}), bisected to full precision."""
    theta = np.linspace(-math.pi, math.pi, count + 1)[1:-1]
    vals = R.eval_theta(theta).real
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    a, b = theta[i], theta[i + 1]
    fa = R.eval_theta(a).real
    for _ in range(60):
        c = 0.5 * (a + b)
        fc = R.eval_theta(c).real
        left = np.sign(fc) == np.sign(fa)
        a, fa, b = np.where(left, c, a), np.where(left, fc, fa), np.where(left, b, c)
    return 0.5 * (a + b)


_cached_gauss_jacobi = functools.lru_cache(maxsize=None)(_gauss_jacobi)


def _reference_j(R, p, phi, halves):
    """J(phi) by fixed Gauss-Jacobi panels, independent of integrate().

    The panels run between the roots of beta^m = e^{i phi}, the simple zeros
    of R on the circle and theta = +-pi, each end weighted by its exact
    exponent: -p, p (the cusp of |R|^p) and k p - 2.  One configuration puts
    a two-sided 30-node rule on each panel, the other (halves) two one-sided
    40-node rules on its halves.
    """
    m, k = R.n + 1, R.zero_order
    weighted, e = _stable_weighted(R, p), np.exp(1j * phi)
    ends = {-math.pi: k * p - 2.0, math.pi: k * p - 2.0}
    ends.update({t: -p for t in _root_thetas(m, phi)})
    ends.update({t: p for t in _circle_zeros(R, 40 * m)})

    def panel(u, v, eu, ev, n):
        x, w = _cached_gauss_jacobi(n, ev, eu)
        h = 0.5 * (v - u)
        theta = np.where(x <= 0.0, u + h * (1.0 + x), v - h * (1.0 - x))
        f = np.abs(weighted(theta) / (np.exp(1j * m * theta) - e)) ** p
        return h * np.sum(w * f / ((1.0 - x) ** ev * (1.0 + x) ** eu))

    pts = sorted(ends)
    total = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        if halves:
            mid = 0.5 * (u + v)
            total += panel(u, mid, ends[u], 0.0, 40) + panel(mid, v, 0.0, ends[v], 40)
        else:
            total += panel(u, v, ends[u], ends[v], 30)
    return total


NEAR_ONE = (0.93, 0.95, 0.97)


@pytest.mark.parametrize("p", NEAR_ONE)
def test_decompose_near_p_one_splits_every_atom_on_the_structural_phi(p):
    # The graded quadrature raised here for every phi at p = 0.95 and 0.97,
    # and at p = 0.93 fell back to the phi grid on the last atom.
    dec = _lorentzian_pipeline(p)
    assert [s.phi_rule for s in dec.splits] == ["structural"] * 4
    for s in dec.splits:
        assert s.bound_ratio <= 2.0 * math.pi / (1.0 - p)


@pytest.mark.parametrize("p", NEAR_ONE)
def test_pipeline_j_matches_gauss_jacobi_reference(p):
    # The graded quadrature returned these J about 2-15% low with error
    # estimates near 1e-6: 0.21610, 0.33035 and 0.11352 for the values below.
    pinned = {(0.93, 2): 0.222681, (0.95, 1): 0.336845, (0.97, 2): 0.132973}
    for stage, s in enumerate(_lorentzian_pipeline(p).splits):
        ref = _reference_j(s.R, p, s.phi, False)
        assert _reference_j(s.R, p, s.phi, True) == pytest.approx(ref, rel=1e-9)
        phi, j, rule = split._phi_scan(_stable_weighted(s.R, p), s.m, p, math.inf, 16, 1e-8)
        assert (phi, rule) == (s.phi, "structural")
        assert j == pytest.approx(ref, rel=1e-8), stage
        assert s.j_value == pytest.approx(ref, rel=1e-5), stage
        if (p, stage) in pinned:
            assert round(ref, 6) == pinned[(p, stage)]


def _failing_quasinorm(monkeypatch, bad):
    """Make J raise NoConvergence at every phi for which bad(phi, tol) holds."""
    real = split.lp_quasinorm_circle

    def patched(g, p, tol=1e-8, singular_thetas=()):
        if len(singular_thetas):
            m = len(singular_thetas)
            # e^{i m theta} = e^{i phi} at every root
            phi = math.atan2(math.sin(m * singular_thetas[0]), math.cos(m * singular_thetas[0]))
            if bad(phi, tol):
                raise NoConvergence("forced")
        return real(g, p, tol=tol, singular_thetas=singular_thetas)

    monkeypatch.setattr(split, "lp_quasinorm_circle", patched)


def test_phi_fallback_skips_candidates_that_raise(monkeypatch):
    # m = 2: phi_a = -pi, the grid's first candidate; the grid's best finite
    # candidate converges at the scan tolerance but not at the final one
    p, tol = 0.75, 1e-6
    grid = [-math.pi + 2.0 * math.pi * k / 16 for k in range(16)]
    free = split_atom(LORENTZIAN_ATOM, p, tol=tol)
    assert free.phi_rule == "structural" and free.phi == grid[0]

    scan = {}

    def bad(phi, jtol):
        near = lambda a: abs(math.remainder(phi - a, 2.0 * math.pi)) < 1e-9
        if near(grid[0]) or near(grid[5]):
            return True
        if jtol == 1e-4:
            return False
        # the scan's best candidate fails only at the final tolerance
        scan.setdefault("best", phi)
        return near(scan["best"])

    _failing_quasinorm(monkeypatch, bad)
    res = split_atom(LORENTZIAN_ATOM, p, tol=tol)
    assert res.phi_rule == "grid"
    assert res.phi in grid and res.phi not in (grid[0], grid[5])
    assert abs(math.remainder(res.phi - scan["best"], 2.0 * math.pi)) > 1e-9
    assert res.bound_ratio <= 2.0 * math.pi / (1.0 - p)
    z = _off_axis_points()
    assert np.max(np.abs(res.P.eval(z) + res.Q.eval(z) - LORENTZIAN_ATOM.eval(z))) < 1e-12


def test_phi_fallback_raises_when_no_candidate_converges(monkeypatch):
    _failing_quasinorm(monkeypatch, lambda phi, tol: True)
    with pytest.raises(NoConvergence):
        split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    R1, R2 = blend_pair()
    with pytest.raises(NoConvergence):
        real_pole_blend(R1, R2, P_DEFAULT)


def test_phi_scan_raises_when_j_breaks_the_bound(monkeypatch):
    # every J converges, far above (2 pi/(1-p)) ||R||_p^p at every phi
    real = split.lp_quasinorm_circle

    def inflated(g, p, tol=1e-8, singular_thetas=()):
        res = real(g, p, tol=tol, singular_thetas=singular_thetas)
        if len(singular_thetas):
            return dataclasses.replace(res, value=1e3 * res.value)
        return res

    monkeypatch.setattr(split, "lp_quasinorm_circle", inflated)
    with pytest.raises(BoundNotMet):
        split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    R1, R2 = blend_pair()
    with pytest.raises(BoundNotMet):
        real_pole_blend(R1, R2, P_DEFAULT)


def _pieces_from_report(rep):
    """(P, Q) rebuilt from a split report alone: R, m, phi and phi_rule."""
    R = LaurentRational(np.array(rep["R"]["coeffs_re"]) + 1j * np.array(rep["R"]["coeffs_im"]))
    zero = SplitPiece((), 0, 0.0)
    if rep["phi_rule"] == "none":
        if R.is_zero:
            return zero, zero
        whole = SplitPiece(((1.0, R, 0),), 0, 0.0)
        return (whole, zero) if R.neg_degree == 0 else (zero, whole)
    m, phi = rep["m"], rep["phi"]
    return (SplitPiece(((1.0, R, m),), m, phi),
            SplitPiece(((-np.exp(1j * phi), R, 0),), m, phi))


@pytest.mark.parametrize("name", ["lorentzian", "upper_double_pole",
                                  "lower_double_pole", "zero"])
def test_split_report_carries_R_once_and_rebuilds_P_and_Q(name):
    res = split_atom(corpus.get(name).laurent, P_DEFAULT)
    rep = json.loads(res.to_json())
    assert "P" not in rep and "Q" not in rep
    P, Q = _pieces_from_report(rep)
    assert P.poles == res.P.poles and Q.poles == res.Q.poles
    assert rep["real_poles"] == [a.real for a, _ in P.poles if a.imag == 0.0]
    z = _off_axis_points()
    assert np.array_equal(P.eval(z), res.P.eval(z))
    assert np.array_equal(Q.eval(z), res.Q.eval(z))


@pytest.mark.parametrize("p", [0.55, 0.75, 0.9])
def test_kappa0_is_the_phi_mean_of_the_split_weight(p):
    # (1/2 pi) int_0^{2 pi} |1 - e^{i psi}|^{-p} dpsi = (1/pi) int_0^pi
    # (2 sin(s/2))^{-p} ds; s = pi u^{1/(1-p)} makes the endpoint regular
    mpmath = pytest.importorskip("mpmath")
    a = 1.0 / (1.0 - p)

    def f(u):
        s = mpmath.pi * u ** a
        return (2.0 * mpmath.sin(s / 2.0)) ** -p * mpmath.pi * a * u ** (a - 1.0)

    mean = mpmath.quad(f, [0.0, 1.0]) / mpmath.pi
    assert abs(_kappa0(p) - float(mean)) <= 1e-12 * _kappa0(p)


def test_split_report_records_phi_rule_and_kappa_margin():
    res = split_atom(LORENTZIAN_ATOM, P_DEFAULT)
    rep = json.loads(res.to_json())
    assert rep["phi_rule"] == "structural"
    assert rep["kappa_margin"] == pytest.approx(
        res.j_value / (_kappa0(P_DEFAULT) * res.r_norm_p), rel=1e-15)
    assert res.to_json() == split_atom(LORENTZIAN_ATOM, P_DEFAULT).to_json()
    one_sided = split_atom(corpus.get("upper_double_pole").laurent, P_DEFAULT)
    assert one_sided.phi_rule == "none"
    assert split_atom(LaurentRational(np.zeros(1)), P_DEFAULT).kappa_margin == 0.0
