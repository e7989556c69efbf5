"""Half-plane splitting of rational atoms and the decomposition driver.

A Laurent atom R (poles at +-i) splits along the family

    P(z, phi) = beta(z)^m R(z) / (beta(z)^m - e^{i phi}),   Q = R - P,

where m = n+1 exceeds the atom degree.  P is analytic above the real line
(poles: -i and the m real points where beta^m = e^{i phi}), Q below, and
P + Q = R identically.  On the real line |beta| = 1, so |P(x)| = |Q(x)|
pointwise and a single integral J(phi) = ||P(.,phi)||_p^p measures both
sides.  Averaging J over phi is bounded by (2 pi/(1-p)) ||R||_p^p, so the
best of M uniform candidates, re-evaluated at the final tolerance, certifies
a good phi.

The same family powers real_pole_blend, which joins an upper single-pole
rational to a lower one through a function with only real poles, and
decompose, which runs the atom pipeline and splits every atom.

Every piece is one SplitPiece, sum c beta^s R(beta) / (beta^m - e^{i phi}),
kept and reported in that exact form: P = ((1, R, m),), Q = ((-e^{i phi},
R, 0),), the blend ((-e^{i phi}, R1, 0), (1, R2, m)), and m = 0 (no
denominator) for zero and one-sided pieces.  Both choose phi by _phi_scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import AtomSchedule, AtomSequence, _stable_weighted, rational_sequence
from .cayley import one_plus_cos
from .errors import BoundNotMet, EvalAtPole, NotInLp, OnRealAxis
from .quadrature import lp_quasinorm_circle
from .rational import LaurentRational, beta_charts, certify_lp
from .serialize import to_json


def _wrap_angle(t: float) -> float:
    return (t + math.pi) % (2.0 * math.pi) - math.pi


def _root_thetas(m: int, phi: float) -> np.ndarray:
    """Sorted circle angles with e^{i m theta} = e^{i phi}, theta = pi excluded."""
    ks = np.arange(m)
    thetas = np.array([_wrap_angle((phi + 2.0 * math.pi * k) / m) for k in ks])
    keep = np.abs(np.abs(thetas) - math.pi) > 1e-9
    return np.sort(thetas[keep])


def _safe_phi(phi: float, m: int) -> float:
    """Nudge phi away from values that put a denominator root at theta = pi."""
    bad = _wrap_angle(m * math.pi)
    if abs(_wrap_angle(phi - bad)) < 1e-6:
        return phi + 1e-4
    return phi


@dataclass(frozen=True, eq=False)
class SplitPiece:
    """sum_t c_t beta^{s_t} R_t(beta) / (beta^m - e^{i phi}); over 1 when m = 0.

    terms holds (c_t, R_t, s_t) with R_t a LaurentRational.  Each term is
    evaluated on its own from R_t's factored form (merged coefficients lose
    accuracy far out on the line), in w = beta(z) above the axis and in
    v = 1/w below.
    """

    terms: tuple
    m: int
    phi: float
    poles: tuple = field(init=False, compare=False)

    def __post_init__(self):
        terms = tuple((complex(c), R, int(s)) for c, R, s in self.terms)
        object.__setattr__(self, "terms", terms)
        # the m real points with beta^m = e^{i phi}, then -i and i with the
        # orders the extreme beta powers leave over the denominator
        poles = [(complex(x), 1) for x in np.tan(_root_thetas(self.m, self.phi) / 2.0)]
        if terms:
            at_minus_i = max(s + R.pos_degree for _, R, s in terms) - self.m
            at_plus_i = -min(s - R.neg_degree for _, R, s in terms)
            if at_minus_i > 0:
                poles.append((-1j, at_minus_i))
            if at_plus_i > 0:
                poles.append((1j, at_plus_i))
        object.__setattr__(self, "poles", tuple(poles))

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        for a, _ in self.poles:
            if np.any(z == a):
                raise EvalAtPole(f"z = {a} is a pole of this function")
        upper, w, one_plus_w, v, one_plus_v = beta_charts(z)
        above = np.zeros(w.shape, dtype=complex)
        below = np.zeros(v.shape, dtype=complex)
        for c, R, s in self.terms:
            # c w^s R(w) above, c v^(m-s) R(1/v) below
            above += c * R.eval_factored(w, one_plus_w, shift=s)
            below += c * R.eval_factored(v, one_plus_v, shift=self.m - s, reflect=True)
        if self.m > 0:
            e = np.exp(1j * self.phi)
            above /= w ** self.m - e
            below /= 1.0 - e * v ** self.m
        out = np.empty(z.shape, dtype=complex)
        out[upper] = above
        out[~upper] = below
        return out[0] if scalar else out

    def to_report(self) -> dict:
        return {
            "m": self.m,
            "phi": self.phi,
            "terms": [{"c": c, "shift": s, **R.to_report()} for c, R, s in self.terms],
            "poles": [{"location": a, "order": l} for a, l in self.poles],
        }


_ZERO_PIECE = SplitPiece((), 0, 0.0)


def _phi_scan(weighted, m: int, p: float, phi_candidates: int, tol: float):
    """(phi*, J(phi*)) for J(phi) = ||weighted / (w^m - e^{i phi})||_p^p.

    J is scanned at max(tol, 1e-4) over phi_candidates uniform phis, and the
    best candidate is re-evaluated at tol.
    """

    def J(phi: float, jtol: float) -> float:
        phi = _safe_phi(phi, m)
        e = np.exp(1j * phi)
        roots = _root_thetas(m, phi)

        def integrand(theta):
            theta = np.atleast_1d(theta)
            w = np.exp(1j * theta)
            return weighted(theta) / (w ** m - e)

        return lp_quasinorm_circle(integrand, p, tol=jtol,
                                   singular_thetas=list(roots)).value

    scan_tol = max(tol, 1e-4)
    phis = -math.pi + 2.0 * math.pi * np.arange(phi_candidates) / phi_candidates
    values = [J(float(ph), scan_tol) for ph in phis]
    phi_star = _safe_phi(float(phis[int(np.argmin(values))]), m)
    return phi_star, J(phi_star, tol)


@dataclass(frozen=True)
class SplitResult:
    """One atom split into an upper piece P and a lower piece Q."""

    P: SplitPiece
    Q: SplitPiece
    phi: float
    m: int
    real_poles: tuple
    bound_ratio: float
    j_value: float
    r_norm_p: float

    def to_report(self) -> dict:
        return {
            "phi": self.phi,
            "m": self.m,
            "real_poles": list(self.real_poles),
            "bound_ratio": self.bound_ratio,
            "j_value": self.j_value,
            "r_norm_p": self.r_norm_p,
            "P": self.P.to_report(),
            "Q": self.Q.to_report(),
        }

    def to_json(self) -> str:
        return to_json(self.to_report())


def split_atom(R: LaurentRational, p: float, phi_candidates: int = 16,
               tol: float = 1e-4) -> SplitResult:
    """Split atom R into H^p upper + lower pieces at the best of M phis."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"requires 0 < p < 1, got {p}")
    if phi_candidates < 16:
        raise ValueError("need at least 16 phi candidates")
    if R.is_zero:
        return SplitResult(P=_ZERO_PIECE, Q=_ZERO_PIECE, phi=0.0,
                           m=R.n + 1, real_poles=(), bound_ratio=0.0,
                           j_value=0.0, r_norm_p=0.0)
    cert = certify_lp(R.pole_certificate(), p)
    if not cert["member"]:
        raise NotInLp("; ".join(cert["reasons"]))

    m = R.n + 1
    weighted = _stable_weighted(R, p)
    r_norm = lp_quasinorm_circle(weighted, p, tol=tol).value
    # one-sided atoms are already Hardy functions; split trivially
    if R.neg_degree == 0 or R.pos_degree == 0:
        whole = SplitPiece(((1.0, R, 0),), 0, 0.0)
        P, Q = (whole, _ZERO_PIECE) if R.neg_degree == 0 else (_ZERO_PIECE, whole)
        return SplitResult(P=P, Q=Q, phi=0.0, m=m, real_poles=(), bound_ratio=1.0,
                           j_value=r_norm, r_norm_p=r_norm)

    phi_star, j_star = _phi_scan(weighted, m, p, phi_candidates, tol)

    bound = 2.0 * math.pi / (1.0 - p)
    ratio = j_star / r_norm if r_norm > 0 else 0.0
    if ratio > bound:
        raise BoundNotMet(
            f"best candidate gives ||P||_p^p / ||R||_p^p = {ratio:.4g} > {bound:.4g}"
        )
    P = SplitPiece(((1.0, R, m),), m, phi_star)
    return SplitResult(
        P=P,
        Q=SplitPiece(((-np.exp(1j * phi_star), R, 0),), m, phi_star),
        phi=phi_star,
        m=m,
        real_poles=tuple(a.real for a, _ in P.poles if a.imag == 0.0),
        bound_ratio=ratio,
        j_value=j_star,
        r_norm_p=r_norm,
    )


@dataclass(frozen=True)
class AtomDecomposition:
    """f ~ sum P_k + sum Q_k with P_k upper-Hardy and Q_k lower-Hardy."""

    p: float
    eps: float
    plus_atoms: tuple
    minus_atoms: tuple
    splits: tuple = field(compare=False, default=())
    budget: float = 0.0
    f_norm_p: float = 0.0
    residuals: tuple = ()
    source: AtomSequence | None = field(compare=False, default=None)

    def to_report(self) -> dict:
        return {
            "p": self.p,
            "eps": self.eps,
            "budget": self.budget,
            "f_norm_p": self.f_norm_p,
            "residuals": list(self.residuals),
            "splits": [s.to_report() for s in self.splits],
        }

    def to_json(self) -> str:
        return to_json(self.to_report())


def decompose(f, p: float, eps: float,
              schedule: AtomSchedule | None = None) -> AtomDecomposition:
    """Atom pipeline plus per-atom split; verifies the combined budget."""
    seq = rational_sequence(f, p, eps, schedule)
    return split_sequence(seq)


def split_sequence(seq: AtomSequence) -> AtomDecomposition:
    """Split every atom of an existing AtomSequence."""
    p = seq.p
    splits = [split_atom(atom, p) for atom in seq.atoms]
    budget = sum(2.0 * s.j_value for s in splits)
    bound = 2.0 * (1.0 + 2.0 * math.pi / (1.0 - p)) * seq.fp_norm_p
    if seq.fp_norm_p > 0 and budget > bound:
        raise BoundNotMet(
            f"sum ||P_k||+||Q_k|| = {budget:.4g} exceeds the budget {bound:.4g}"
        )
    return AtomDecomposition(
        p=p, eps=seq.eps,
        plus_atoms=tuple(s.P for s in splits),
        minus_atoms=tuple(s.Q for s in splits),
        splits=tuple(splits),
        budget=budget,
        f_norm_p=seq.fp_norm_p,
        residuals=seq.residual_history,
        source=seq,
    )


def poisson_recovery(decomp: AtomDecomposition, x: float, y: float,
                     tol: float = 1e-6) -> float:
    """Poisson average at height y of the decomposition's boundary sum.

    The boundary sum of P_k + Q_k equals the atom sum; smoothing it by the
    kernel y/(pi((x-t)^2+y^2)) recovers the same average of f up to the
    remaining boundary residual, which is how near-boundary recovery is
    quantified (direct interior evaluation of the split pieces decays like
    |beta|^m and is covered by interior_sum_eval's tail bound instead).
    """
    if y <= 0.0:
        raise ValueError(f"height must be positive, got {y}")
    if decomp.source is None:
        raise ValueError("decomposition lacks its source atom sequence")
    total = decomp.source.partial_sum()
    from .cayley import theta_of_x
    from .quadrature import integrate

    def integrand(theta):
        theta = np.atleast_1d(theta)
        t = np.tan(theta / 2.0)
        kern = y / ((x - t) ** 2 + y * y)
        return total.eval_theta(theta) * kern / one_plus_cos(theta)

    val, err, _ = integrate(integrand, -math.pi, math.pi,
                            singular_points=[float(theta_of_x(x))],
                            tol=tol, grade_endpoints=True)
    return float(val.real / math.pi)


def interior_sum_eval(decomp: AtomDecomposition, z: complex):
    """(g(z), tail) above the axis, (h(z), tail) below; raises on the axis.

    The tail estimate bounds the contribution of never-computed later
    stages via the pointwise Hardy bound |h(x+iy)|^p <= ||h||_p^p/(pi |y|)
    applied to the final residual.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise OnRealAxis("interior evaluation needs Im z != 0")
    atoms = decomp.plus_atoms if z.imag > 0 else decomp.minus_atoms
    total = 0.0 + 0.0j
    for a in atoms:
        total += a.eval(z)
    residual = decomp.residuals[-1] if decomp.residuals else 0.0
    tail = (2.0 * residual / (math.pi * abs(z.imag))) ** (1.0 / decomp.p) \
        if residual > 0 else 0.0
    return total, tail


def real_pole_blend(R1: LaurentRational, R2: LaurentRational, p: float,
                    phi_candidates: int = 16, tol: float = 1e-4) -> SplitPiece:
    """Join an upper single-pole rational to a lower one across only real poles.

    R1 may only carry nonnegative beta powers (pole -i), R2 only nonpositive
    ones (pole i).  The output R(z, phi) = (-e^{i phi} R1 + beta^m R2) /
    (beta^m - e^{i phi}) agrees with R1 up to a boundary L^p distance at most
    (2 pi/(1-p)) ||R1 - R2||_p^p for the selected phi.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"requires 0 < p < 1, got {p}")
    if R1.neg_degree > 0:
        raise ValueError("R1 must have poles only at -i (nonnegative beta powers)")
    if R2.pos_degree > 0:
        raise ValueError("R2 must have poles only at i (nonpositive beta powers)")
    n_max = max(R1.n, R2.n)
    m = 2 * n_max + 2  # exceeds max degree + pole order + 1
    diff = R1 - R2

    if diff.is_zero:
        return SplitPiece(((1.0, R1, 0),), 0, 0.0)

    weighted_diff = _stable_weighted(diff, p)
    diff_norm = lp_quasinorm_circle(weighted_diff, p, tol=tol).value
    # |w^m| = 1 on the circle, so the distance ||blend - R1||_p^p is J's
    # integral for R1 - R2
    phi_star, d_star = _phi_scan(weighted_diff, m, p, phi_candidates, tol)
    bound = 2.0 * math.pi / (1.0 - p) * diff_norm
    if d_star > bound:
        raise BoundNotMet(
            f"best candidate distance {d_star:.4g} exceeds the bound {bound:.4g}"
        )
    return SplitPiece(((-np.exp(1j * phi_star), R1, 0), (1.0, R2, m)), m, phi_star)
