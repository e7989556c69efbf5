import json
import math

import numpy as np
import pytest

from hardysplit import corpus
from hardysplit.cayley import beta, one_plus_cos
from hardysplit.corpus import blend_pair
from hardysplit.errors import NotInLp, OnRealAxis
from hardysplit.quadrature import lp_quasinorm_line
from hardysplit.rational import LaurentRational
from hardysplit.serialize import to_json
from hardysplit.split import (
    AtomDecomposition,
    SplitPiece,
    _root_thetas,
    _stable_weighted,
    decompose,
    interior_sum_eval,
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
