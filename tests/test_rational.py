import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysplit import corpus
from hardysplit.approx import TrigPolynomial, WeierstrassPlan, single_pole_approx
from hardysplit.cayley import BoundarySamples, beta
from hardysplit.errors import EvalAtPole
from hardysplit.rational import (
    GeneralRational,
    LaurentRational,
    certify_hardy,
    certify_lp,
    to_general,
)
from hardysplit.split import SplitPiece


def coeff_dicts():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                           allow_infinity=False),
        max_size=6,
    )


@settings(max_examples=50)
@given(d=coeff_dicts(), x=st.floats(min_value=-50, max_value=50,
                                    allow_nan=False))
def test_eval_matches_beta_power_sum(d, x):
    R = LaurentRational.from_dict(d)
    z = complex(x, 0.0)
    w = beta(z)
    direct = sum(c * w ** k for k, c in d.items())
    assert abs(R.eval(np.array([z]))[0] - direct) <= 1e-9 * (1.0 + abs(direct))


@settings(max_examples=50)
@given(d=coeff_dicts(), x=st.floats(min_value=-20, max_value=20),
       y=st.floats(min_value=0.1, max_value=20))
def test_to_general_agrees_with_laurent(d, x, y):
    R = LaurentRational.from_dict(d)
    G = to_general(R)
    z = complex(x, y)
    a = R.eval(np.array([z]))[0]
    b = G.eval(np.array([z]))[0]
    assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


@settings(max_examples=50)
@given(d1=coeff_dicts(), d2=coeff_dicts())
def test_addition_is_coefficientwise(d1, d2):
    R = LaurentRational.from_dict(d1) + LaurentRational.from_dict(d2)
    for k in range(-R.n, R.n + 1):
        assert R.coeff(k) == pytest.approx(d1.get(k, 0.0) + d2.get(k, 0.0))


def test_eval_at_pole_raises():
    R = LaurentRational.from_dict({1: 1.0})
    with pytest.raises(EvalAtPole):
        R.eval(np.array([-1j]))


def test_degrees_track_pole_orders():
    R = LaurentRational.from_dict({-2: 1.0, 3: 2.0})
    assert R.neg_degree == 2  # pole order at +i
    assert R.pos_degree == 3  # pole order at -i
    G = to_general(R)
    assert dict(G.poles) == {1j: 2, -1j: 3}


def test_trim_drops_negligible_leading_coeffs():
    R = LaurentRational.from_dict({0: 1.0, 3: 1e-17})
    assert R.n == 0


def test_json_round_trip():
    R = LaurentRational.from_dict({-1: 1.0 + 2.0j, 0: 2.0, 1: -0.5})
    S = LaurentRational.from_json(R.to_json())
    assert np.array_equal(S.coeffs, R.coeffs)
    assert S.to_json() == R.to_json()


def test_json_round_trip_keeps_reported_zero_order():
    # Trimming the reported coefficients moves the third deflation remainder
    # of this high-degree atom past DEFLATE_TOL: deriving k afresh gives 2.
    R = single_pole_approx(corpus.get("upper_triple_pole").boundary, 2, 256, 0.75).rational
    assert R.zero_order == 3 and LaurentRational(R.coeffs).zero_order == 2
    S = LaurentRational.from_json(R.to_json())
    assert S.zero_order == 3
    assert S.pole_certificate() == R.pole_certificate()
    assert S.pole_certificate().degree_gap == -3
    z = np.array([0.3 + 0.2j, -4.0 + 1.0j, 25.0 + 0.5j])
    assert np.allclose(S.eval(z), R.eval(z), rtol=1e-9, atol=0.0)
    # an order the coefficients cannot carry is refused
    obj = json.loads(R.to_json())
    obj["zero_order"] = 5
    with pytest.raises(ValueError, match="contradict"):
        LaurentRational.from_json(json.dumps(obj))


def test_certify_double_pole_membership_boundary():
    # 1/(z+i)^2 decays like |z|^{-2}: member needs 2p > 1
    G = GeneralRational(numer=np.ones(1, dtype=complex), scale=1.0,
                        poles=((-1j, 2),))
    cert = G.pole_certificate()
    assert certify_lp(cert, 0.75)["member"]
    assert not certify_lp(cert, 0.4)["member"]


def test_certify_rejects_heavy_real_pole():
    G = GeneralRational(numer=np.ones(1, dtype=complex), scale=1.0,
                        poles=((0.5 + 0j, 2), (-1j, 3)))
    res = certify_lp(G.pole_certificate(), 0.75)
    assert not res["member"]
    assert any("0.5" in r for r in res["reasons"])


def test_certify_hardy_sides():
    up = GeneralRational(numer=np.ones(1, dtype=complex), scale=1.0,
                         poles=((-1j, 2),))
    cert = up.pole_certificate()
    assert certify_hardy(cert, 0.75, half_plane=1)["member"]
    assert not certify_hardy(cert, 0.75, half_plane=-1)["member"]


@settings(max_examples=30)
@given(d=coeff_dicts())
def test_sup_bound_dominates_boundary_values(d):
    R = LaurentRational.from_dict(d)
    theta = np.linspace(-3.1, 3.1, 64)
    vals = np.abs(R.eval_w(np.exp(1j * theta)))
    assert np.all(vals <= R.sup_bound_on_line() + 1e-9)


def test_array_dataclasses_compare_by_identity_and_hash():
    R = LaurentRational.from_dict({-1: 1.0, 0: 2.0, 1: 1.0})
    S = LaurentRational.from_dict({-1: 1.0, 0: 2.0, 1: 1.0})
    for a, b in ((R, S),
                 (to_general(R), to_general(S)),
                 (TrigPolynomial(np.ones(3)), TrigPolynomial(np.ones(3))),
                 (SplitPiece(((1.0, R, 2),), 2, 0.3), SplitPiece(((1.0, S, 2),), 2, 0.3)),
                 (BoundarySamples(n=16, values=np.ones(16), p=0.75),
                  BoundarySamples(n=16, values=np.ones(16), p=0.75)),
                 (WeierstrassPlan(p=0.75, l_p=1, m=1, q_cheb=np.ones(3), sup_err=0.0),
                  WeierstrassPlan(p=0.75, l_p=1, m=1, q_cheb=np.ones(3), sup_err=0.0))):
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert len({a, b, a}) == 2


def test_corpus_atoms_keep_relative_accuracy_far_out():
    # the zero at beta = -1 is taken exactly as (2i/(z+i))^k
    x = np.array([1e4, 1e6, 1e8, -1e7])
    for name, exact in (("upper_double_pole", -4.0 / (x + 1j) ** 2),
                        ("lorentzian", 4.0 / (x * x + 1.0))):
        R = corpus.get(name).laurent
        assert R.zero_order == 2
        got = R.eval(x.astype(complex))
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-14, name


def test_laurent_certificate_matches_z_form():
    for name in ("upper_double_pole", "lower_double_pole", "lorentzian"):
        R = corpus.get(name).laurent
        assert R.pole_certificate() == to_general(R).pole_certificate(), name
