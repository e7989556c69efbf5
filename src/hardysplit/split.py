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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import (
    AtomSchedule,
    AtomSequence,
    _weighted_boundary,
    rational_sequence,
)
from .cayley import one_plus_cos
from .errors import BoundNotMet, NotInLp, OnRealAxis
from .quadrature import lp_quasinorm_circle
from .rational import (
    GeneralRational,
    LaurentRational,
    certify_lp,
    polymul,
    polypow,
    polyval,
    to_general,
)
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


def _zero_rational() -> GeneralRational:
    return GeneralRational(numer=np.zeros(1), scale=1.0, poles=())


def _stable_weighted(R: LaurentRational, p: float):
    """Evaluator for R(e^{i theta}) (1+cos theta)^(-1/p), stable at theta=+-pi.

    Decaying atoms vanish at w = -1, so direct Horner summation there cancels
    to roundoff while the weight blows up.  Recentring the Laurent polynomial
    at w = -1 (exact binomial transform, fine at corpus degrees) removes the
    cancellation; high-degree pipeline atoms supply their own factored form.
    """
    from numpy.polynomial import polynomial as P

    n = R.n
    b = P.Polynomial(R.coeffs)(P.Polynomial([-1.0, 1.0])).coef if n <= 64 else None

    def weighted(theta):
        theta = np.atleast_1d(theta)
        w = np.exp(1j * theta)
        out = np.empty(theta.shape, dtype=complex)
        s = 1.0 + w
        near = np.abs(s) < 0.5
        if b is not None and np.any(near):
            out[near] = polyval(b, s[near]) * w[near] ** (-n)
            far = ~near
        else:
            far = np.ones(theta.shape, dtype=bool)
        if np.any(far):
            out[far] = R.eval_w(w[far])
        return out / one_plus_cos(theta) ** (1.0 / p)

    return weighted


def _build_plus(R: LaurentRational, m: int, phi: float) -> GeneralRational:
    """P = beta^m R / (beta^m - e^{i phi}): poles -i and the real x_k."""
    npos, nneg = R.pos_degree, R.neg_degree
    e = np.exp(1j * phi)
    i_minus_z = np.array([1j, -1.0], dtype=complex)
    z_plus_i = np.array([1j, 1.0], dtype=complex)
    numer = np.zeros(1, dtype=complex)
    for j in range(-nneg, npos + 1):
        c = R.coeff(j)
        if c == 0:
            continue
        term = c * polymul(polypow(i_minus_z, m + j), polypow(z_plus_i, npos - j))
        pad = max(numer.size, term.size)
        numer = np.pad(numer, (0, pad - numer.size)) + np.pad(term, (0, pad - term.size))
    thetas = _root_thetas(m, phi)
    poles = [(complex(x), 1) for x in np.tan(thetas / 2.0)]
    if npos > 0:
        poles.append((-1j, npos))
    scale = (-1.0 + 0.0j) ** m - e

    a = np.zeros(m + npos + 1, dtype=complex)  # numerator in w, all powers >= 1
    for j in range(-nneg, npos + 1):
        a[m + j] = R.coeff(j)
    b = np.zeros(npos + nneg + 1, dtype=complex)  # numerator in v = 1/w
    for j in range(-nneg, npos + 1):
        b[npos - j] = R.coeff(j)

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        upper = z.imag >= 0.0
        out = np.empty(z.shape, dtype=complex)
        if np.any(upper):
            w = (1j - z[upper]) / (z[upper] + 1j)
            out[upper] = polyval(a, w) / (w ** m - e)
        if np.any(~upper):
            v = (z[~upper] + 1j) / (1j - z[~upper])
            out[~upper] = polyval(b, v) / (v ** npos * (1.0 - e * v ** m))
        return out

    return GeneralRational(numer=numer, scale=scale, poles=tuple(poles), eval_fn=eval_fn)


def _build_minus(R: LaurentRational, m: int, phi: float) -> GeneralRational:
    """Q = -e^{i phi} R / (beta^m - e^{i phi}): poles i and the real x_k."""
    npos, nneg = R.pos_degree, R.neg_degree
    e = np.exp(1j * phi)
    i_minus_z = np.array([1j, -1.0], dtype=complex)
    z_plus_i = np.array([1j, 1.0], dtype=complex)
    numer = np.zeros(1, dtype=complex)
    for j in range(-nneg, npos + 1):
        c = R.coeff(j)
        if c == 0:
            continue
        term = -e * c * polymul(polypow(i_minus_z, nneg + j), polypow(z_plus_i, m - j))
        pad = max(numer.size, term.size)
        numer = np.pad(numer, (0, pad - numer.size)) + np.pad(term, (0, pad - term.size))
    thetas = _root_thetas(m, phi)
    poles = [(complex(x), 1) for x in np.tan(thetas / 2.0)]
    if nneg > 0:
        poles.append((1j, nneg))
    scale = ((-1.0 + 0.0j) ** m - e) * (-1.0 + 0.0j) ** nneg

    a = np.zeros(nneg + npos + 1, dtype=complex)  # numerator in w over w^nneg
    for j in range(-nneg, npos + 1):
        a[nneg + j] = R.coeff(j)
    b = np.zeros(m + nneg + 1, dtype=complex)  # numerator in v, powers >= 1
    for j in range(-nneg, npos + 1):
        b[m - j] = R.coeff(j)

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        upper = z.imag >= 0.0
        out = np.empty(z.shape, dtype=complex)
        if np.any(upper):
            w = (1j - z[upper]) / (z[upper] + 1j)
            out[upper] = -e * polyval(a, w) / (w ** nneg * (w ** m - e))
        if np.any(~upper):
            v = (z[~upper] + 1j) / (1j - z[~upper])
            out[~upper] = -e * polyval(b, v) / (1.0 - e * v ** m)
        return out

    return GeneralRational(numer=numer, scale=scale, poles=tuple(poles), eval_fn=eval_fn)


@dataclass(frozen=True)
class SplitResult:
    """One atom split into an upper piece P and a lower piece Q."""

    P: GeneralRational
    Q: GeneralRational
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
               tol: float = 1e-4, weighted_eval=None) -> SplitResult:
    """Split atom R into H^p upper + lower pieces at the best of M phis.

    weighted_eval(theta), when given, must return R(e^{i theta}) times
    (1+cos theta)^(-1/p); pipelines pass their factored form because the
    Laurent coefficients cancel catastrophically near theta = +-pi.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"requires 0 < p < 1, got {p}")
    if phi_candidates < 16:
        raise ValueError("need at least 16 phi candidates")
    if R.is_zero:
        return SplitResult(P=_zero_rational(), Q=_zero_rational(), phi=0.0,
                           m=R.n + 1, real_poles=(), bound_ratio=0.0,
                           j_value=0.0, r_norm_p=0.0)
    cert = certify_lp(to_general(R).pole_certificate(), p)
    if not cert["member"]:
        raise NotInLp("; ".join(cert["reasons"]))

    m = R.n + 1
    if weighted_eval is None:
        weighted_eval = _stable_weighted(R, p)

    # one-sided atoms are already Hardy functions; split trivially
    if R.neg_degree == 0 or R.pos_degree == 0:
        r_norm = lp_quasinorm_circle(weighted_eval, p, tol=tol).value
        G = to_general(R)
        if R.neg_degree == 0:
            return SplitResult(P=G, Q=_zero_rational(), phi=0.0, m=m,
                               real_poles=(), bound_ratio=1.0,
                               j_value=r_norm, r_norm_p=r_norm)
        return SplitResult(P=_zero_rational(), Q=G, phi=0.0, m=m,
                           real_poles=(), bound_ratio=1.0,
                           j_value=r_norm, r_norm_p=r_norm)

    def J(phi: float, jtol: float) -> float:
        phi = _safe_phi(phi, m)
        e = np.exp(1j * phi)
        roots = _root_thetas(m, phi)

        def integrand(theta):
            theta = np.atleast_1d(theta)
            w = np.exp(1j * theta)
            return weighted_eval(theta) / (w ** m - e)

        return lp_quasinorm_circle(integrand, p, tol=jtol,
                                   singular_thetas=list(roots)).value

    r_norm = lp_quasinorm_circle(weighted_eval, p, tol=tol).value
    scan_tol = max(tol, 1e-4)
    phis = -math.pi + 2.0 * math.pi * np.arange(phi_candidates) / phi_candidates
    values = [J(float(ph), scan_tol) for ph in phis]
    best = int(np.argmin(values))
    phi_star = _safe_phi(float(phis[best]), m)
    j_star = J(phi_star, tol)

    bound = 2.0 * math.pi / (1.0 - p)
    ratio = j_star / r_norm if r_norm > 0 else 0.0
    if ratio > bound:
        raise BoundNotMet(
            f"best candidate gives ||P||_p^p / ||R||_p^p = {ratio:.4g} > {bound:.4g}"
        )
    return SplitResult(
        P=_build_plus(R, m, phi_star),
        Q=_build_minus(R, m, phi_star),
        phi=phi_star,
        m=m,
        real_poles=tuple(float(x) for x in np.tan(_root_thetas(m, phi_star) / 2.0)),
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
    splits = []
    for k, atom in enumerate(seq.atoms):
        weighted = None
        if seq.plan is not None and k < len(seq.trig_atoms):
            trig = seq.trig_atoms[k]
            plan = seq.plan

            def weighted(theta, trig=trig, plan=plan):
                return _weighted_boundary(trig, plan, p, theta)

        splits.append(split_atom(atom, p, weighted_eval=weighted))
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
    seq = decomp.source
    from .cayley import theta_of_x
    from .quadrature import integrate

    def integrand(theta):
        theta = np.atleast_1d(theta)
        t = np.tan(theta / 2.0)
        kern = y / ((x - t) ** 2 + y * y)
        return seq.boundary_eval_theta(theta) * kern / one_plus_cos(theta)

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
                    phi_candidates: int = 16, tol: float = 1e-4) -> GeneralRational:
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
        return to_general(R1)

    weighted_diff = _stable_weighted(diff, p)

    diff_norm = lp_quasinorm_circle(weighted_diff, p, tol=tol).value

    def D(phi: float, dtol: float) -> float:
        phi = _safe_phi(phi, m)
        e = np.exp(1j * phi)
        roots = _root_thetas(m, phi)

        def integrand(theta):
            theta = np.atleast_1d(theta)
            w = np.exp(1j * theta)
            return weighted_diff(theta) * w ** m / (w ** m - e)

        return lp_quasinorm_circle(integrand, p, tol=dtol,
                                   singular_thetas=list(roots)).value

    scan_tol = max(tol, 1e-4)
    phis = -math.pi + 2.0 * math.pi * np.arange(phi_candidates) / phi_candidates
    values = [D(float(ph), scan_tol) for ph in phis]
    best = int(np.argmin(values))
    phi_star = _safe_phi(float(phis[best]), m)
    d_star = D(phi_star, tol)
    bound = 2.0 * math.pi / (1.0 - p) * diff_norm
    if d_star > bound:
        raise BoundNotMet(
            f"best candidate distance {d_star:.4g} exceeds the bound {bound:.4g}"
        )

    e = np.exp(1j * phi_star)
    i_minus_z = np.array([1j, -1.0], dtype=complex)
    z_plus_i = np.array([1j, 1.0], dtype=complex)
    numer = np.zeros(1, dtype=complex)
    for k in range(0, R1.pos_degree + 1):
        c = R1.coeff(k)
        if c == 0:
            continue
        term = -e * c * polymul(polypow(i_minus_z, k), polypow(z_plus_i, m - k))
        pad = max(numer.size, term.size)
        numer = np.pad(numer, (0, pad - numer.size)) + np.pad(term, (0, pad - term.size))
    for k in range(-R2.neg_degree, 1):
        c = R2.coeff(k)
        if c == 0:
            continue
        term = c * polymul(polypow(i_minus_z, m + k), polypow(z_plus_i, -k))
        pad = max(numer.size, term.size)
        numer = np.pad(numer, (0, pad - numer.size)) + np.pad(term, (0, pad - term.size))
    thetas = _root_thetas(m, phi_star)
    poles = tuple((complex(x), 1) for x in np.tan(thetas / 2.0))
    scale = (-1.0 + 0.0j) ** m - e

    a1 = np.zeros(R1.pos_degree + 1, dtype=complex)
    for k in range(0, R1.pos_degree + 1):
        a1[k] = R1.coeff(k)
    a2 = np.zeros(m + 1, dtype=complex)
    for k in range(-R2.neg_degree, 1):
        a2[m + k] = R2.coeff(k)
    b1 = np.zeros(m + R1.pos_degree + 1, dtype=complex)
    for k in range(0, R1.pos_degree + 1):
        b1[m - k] = R1.coeff(k)
    b2 = np.zeros(R2.neg_degree + 1, dtype=complex)
    for k in range(-R2.neg_degree, 1):
        b2[-k] = R2.coeff(k)

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        upper = z.imag >= 0.0
        out = np.empty(z.shape, dtype=complex)
        if np.any(upper):
            w = (1j - z[upper]) / (z[upper] + 1j)
            # a2 carries the w^m factor: a2[m+k] holds R2's coefficient c_k
            out[upper] = (-e * polyval(a1, w) + polyval(a2, w)) / (w ** m - e)
        if np.any(~upper):
            # v-form: numerator and denominator both multiplied by v^m
            v = (z[~upper] + 1j) / (1j - z[~upper])
            out[~upper] = (-e * polyval(b1, v) + polyval(b2, v)) / (1.0 - e * v ** m)
        return out

    return GeneralRational(numer=numer, scale=scale, poles=poles, eval_fn=eval_fn)
