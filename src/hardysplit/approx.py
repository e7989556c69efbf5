"""Constructive rational-atom approximation pipelines.

Two pipelines live here.  The first turns a decaying line function f in
L^p(R), 0<p<1, into a telescoping sequence of rational atoms with poles only
at +-i: pull f back to the circle, smooth with Fejer means, multiply by a
polynomial correction q(1+cos theta)(1+cos theta)^m that cancels the
(1+cos theta)^(-1/p) weight, and push back through beta(z).  The second
approximates an upper-Hardy boundary function by a rational function with the
single pole -i, via polynomial approximation of the disc ratio
h(w)/(1+w)^(N+1).  Both return LaurentRationals, which derive and keep the
zero at w = -1 that makes them decay; neither expands anything in z.

The correction polynomial q is kept in Chebyshev basis on [0,2]: with
u - 1 = cos theta one has T_k(cos theta) = (w^k + w^-k)/2, so composing q into
the Laurent algebra is exact; expanding q into the power basis at degree ~64+
would destroy all accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .cayley import BoundarySamples, circle_grid, grid_coefficients, one_plus_cos
from .errors import DegreeOverflow, ScheduleStall, UnboundedRatio
from .quadrature import Declared, lp_quasinorm_circle, lp_quasinorm_line
from .rational import LaurentRational, polypow

CLIP_PERCENTILE = 99.9
DEGREE_CAP = 512


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """sum_{j=-d..d} c_j e^{i j theta}; same storage convention as LaurentRational."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be an odd-length array (j = -d..d)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def eval(self, theta):
        theta = np.asarray(theta, dtype=float)
        d = self.degree
        w = np.exp(1j * theta)
        # Horner: sum c_j w^j = w^-d * sum c_j w^{j+d}
        acc = np.zeros(theta.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            acc = acc * w + c
        out = acc * w ** (-d)
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class WeierstrassPlan:
    """Polynomial plan for cancelling the (1+cos theta)^(-1/p) weight.

    q approximates g2(x) = x^(1/p - m) on [0, 2]; q_cheb are its coefficients
    in the basis T_k(x - 1).  sup_err is a dense-sampling bound on the
    weighted error sup |x^m q(x) - x^(1/p)|: the atom construction multiplies
    q by x^m, so this is the quantity that controls the residual, and unlike
    the raw error it is not pinned to the d^(-2/3) endpoint rate at x = 0.
    """

    p: float
    l_p: int
    m: int
    q_cheb: np.ndarray
    sup_err: float

    def __post_init__(self):
        if not 1.0 < 2.0 * self.p * self.m <= 2.0:
            raise ValueError("plan violates 1 < 2pm <= 2")
        q = np.asarray(self.q_cheb, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q_cheb", q)

    def q_eval(self, x):
        """q at x in [0, 2]."""
        return C.chebval(np.asarray(x, dtype=float) - 1.0, self.q_cheb)


@dataclass(frozen=True)
class AtomSequence:
    """Telescoping rational atoms R_k with poles in {i, -i}.

    Each atom is a plain LaurentRational; its zero at w = -1 (order 2m for
    the plan's m) is derived from its coefficients, so the atoms need no
    separate factored form for evaluation near theta = +-pi.
    """

    p: float
    eps: float
    atoms: tuple
    budget_p: float
    fp_norm_p: float
    residual_history: tuple

    def partial_sum(self, upto: int | None = None) -> LaurentRational:
        atoms = self.atoms if upto is None else self.atoms[:upto]
        total = LaurentRational(np.zeros(1))
        for a in atoms:
            total = total + a
        return total

    def to_report(self) -> dict:
        return {
            "p": self.p,
            "eps": self.eps,
            "budget_p": self.budget_p,
            "fp_norm_p": self.fp_norm_p,
            "atoms": [a.to_report() for a in self.atoms],
            "residuals": list(self.residual_history),
        }


def weierstrass_m(p: float) -> tuple[int, int]:
    """Smallest l_p with 1 < p 2^{l_p} <= 2, and m = 2^{l_p - 1}."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"requires 0 < p < 1, got {p}")
    l_p = 1
    while p * 2.0 ** l_p <= 1.0:
        l_p += 1
    m = 2 ** (l_p - 1)
    assert 1.0 < 2.0 * p * m <= 2.0
    return l_p, m


def poly_approx_g2(p: float, m: int, tol: float,
                   degree_cap: int = DEGREE_CAP) -> WeierstrassPlan:
    """Chebyshev plan with verified weighted sup error <= tol on [0, 2].

    Verification samples 10^4 Chebyshev-distributed points plus a geometric
    cluster at the singular endpoint x = 0, inflated by a 10% safety factor.
    """
    l_p, m_expected = weierstrass_m(p)
    if m != m_expected:
        raise ValueError(f"m = {m} does not match the plan formula (expected {m_expected})")
    s = 1.0 / p - m
    if s == 0.0:
        return WeierstrassPlan(p=p, l_p=l_p, m=m, q_cheb=np.array([1.0]), sup_err=0.0)

    # dense verification set: Chebyshev points plus a geometric endpoint cluster
    t_cheb = np.cos(np.pi * (np.arange(10_000) + 0.5) / 10_000)
    x_check = np.concatenate([1.0 + t_cheb, 2.0 ** -np.arange(1, 50.0), [0.0, 2.0]])
    weight = x_check ** m
    g2 = x_check ** s

    deg = 8
    while deg <= degree_cap:
        series = C.Chebyshev.interpolate(lambda t: (t + 1.0) ** s, deg, domain=[-1, 1])
        coef = series.coef.copy()
        qvals = C.chebval(x_check - 1.0, coef)
        # downstream stages divide by q, so nudge it strictly positive
        qmin = float(np.min(qvals))
        if qmin <= 1e-6:
            coef[0] += 1e-6 - qmin
            qvals = qvals + (1e-6 - qmin)
        series = C.Chebyshev(coef)
        gap = weight * np.abs(qvals - g2)
        err = 1.1 * float(np.max(gap))
        if err <= tol:
            return WeierstrassPlan(p=p, l_p=l_p, m=m, q_cheb=series.coef, sup_err=err)
        deg *= 2
    raise DegreeOverflow(
        f"x^{s:.4g} on [0,2] needs degree > {degree_cap} for weighted sup error {tol:.3g}"
    )


def trig_approx(g: BoundarySamples, degree: int) -> TrigPolynomial:
    """Fejer (Cesaro) mean of order `degree` of the clipped samples.

    Raw Fourier partial sums need not converge in L^p for p < 1, and the
    pullback g may carry integrable blow-ups at theta = +-pi; clipping at the
    99.9th percentile of |g| bounds the sup norm before smoothing.
    """
    if degree >= g.n // 2:
        raise ValueError(f"degree {degree} must be < n/2 = {g.n // 2}")
    mags = np.abs(g.values)
    clip = np.percentile(mags, CLIP_PERCENTILE)
    vals = g.values.copy()
    if clip > 0:
        big = mags > clip
        vals[big] = vals[big] * (clip / mags[big])
    js = np.arange(-degree, degree + 1)
    coeffs = grid_coefficients(vals)[g.n // 2 + js]
    coeffs *= 1.0 - np.abs(js) / (degree + 1.0)  # Fejer damping
    return TrigPolynomial(coeffs)


def _u_power_laurent(m: int) -> np.ndarray:
    """Laurent coefficients of ((w+1)^2 / (2w))^m, powers -m..m."""
    base = np.array([0.5, 1.0, 0.5], dtype=complex)  # u = w^-1/2 + 1 + w/2
    out = np.array([1.0 + 0.0j])
    for _ in range(m):
        out = np.convolve(out, base)
    return out


def build_atom(r: TrigPolynomial, plan: WeierstrassPlan, p: float) -> LaurentRational:
    """Laurent coefficients of s(w) = r(w) q(u) u^m with u = (w+1)^2/(2w).

    On the circle u = 1 + cos theta, so q(u) = sum a_k T_k(cos theta) expands
    exactly as sum a_k (w^k + w^-k)/2.  The returned atom is s(beta(z)), a
    rational function with poles only at +-i.
    """
    if plan.p != p:
        raise ValueError("plan was built for a different exponent")
    if np.all(r.coeffs == 0):
        return LaurentRational(np.zeros(1))
    a = plan.q_cheb
    kq = a.size - 1
    qpart = np.zeros(2 * kq + 1, dtype=complex)
    qpart[kq] = a[0]
    for k in range(1, kq + 1):
        qpart[kq + k] += 0.5 * a[k]
        qpart[kq - k] += 0.5 * a[k]
    s = np.convolve(np.asarray(r.coeffs, dtype=complex), qpart)
    s = np.convolve(s, _u_power_laurent(plan.m))
    return LaurentRational(s)


def _stable_weighted(R: LaurentRational, p: float) -> Declared:
    """Evaluator for R(e^{i theta}) (1+cos theta)^(-1/p), stable at theta=+-pi.

    A decaying atom vanishes at w = -1 to the order k it derives, where the
    weight blows up; R.eval_theta takes that zero as (2 cos(theta/2))^k
    e^{i k theta/2}, so nothing cancels at any degree.  The result declares
    its order k - 2/p at theta = +-pi for every nonzero R; where k p <= 1,
    |.|^p is not integrable there and its quasinorm raises
    NonIntegrableSingularity.
    """

    def weighted(theta):
        theta = np.atleast_1d(theta)
        return R.eval_theta(theta) / one_plus_cos(theta) ** (1.0 / p)

    order = R.zero_order - 2.0 / p
    return Declared(weighted, () if R.is_zero else ((-math.pi, order), (math.pi, order)))


@dataclass(frozen=True)
class AtomSchedule:
    """Degree/target schedule for the atom sequence.

    Stage k (1-based) uses Fejer degree base_degree * 2^(k-1) and, when
    enforce_targets is set, must bring the residual below
    eps * ||f||_p^p / 4^(k+1), doubling the degree up to max_boosts times.
    """

    stages: int = 4
    base_degree: int = 16
    grid_n: int = 4096
    plan_tol: float = 1e-3
    enforce_targets: bool = False
    max_boosts: int = 3
    # |.|^p integrands have kinks at every zero crossing of the trig
    # difference, so residual quadrature runs at a modest tolerance
    quad_tol: float = 3e-4


def rational_sequence(f, p: float, eps: float,
                      schedule: AtomSchedule | None = None) -> AtomSequence:
    """Telescoping atoms R_k with poles in {+-i} approximating f in L^p.

    f is a decaying callable on the real line.  residual_history[k-1] is
    ||f - Q_k||_p^p for the cumulative approximant Q_k; atoms telescope,
    R_1 = Q_1 and R_k = Q_k - Q_{k-1}, so the budget sum ||R_k||_p^p tracks
    the (1+eps) bound.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"requires 0 < p < 1, got {p}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    sched = schedule or AtomSchedule()

    fp_norm = lp_quasinorm_line(f, p, tol=sched.quad_tol).value
    if fp_norm == 0.0:
        return AtomSequence(p=p, eps=eps, atoms=(), budget_p=0.0,
                            fp_norm_p=0.0, residual_history=())

    _, m = weierstrass_m(p)
    plan = poly_approx_g2(p, m, tol=sched.plan_tol)

    # Trig target is the plan-corrected pullback f(x) u^-m / q(u): build_atom
    # multiplies q(u) u^m back, so the residual is pure Fejer error of a
    # target that stays bounded at theta = +-pi for sufficiently decaying f.
    # Targeting the raw pullback g = f u^(-1/p) instead would re-introduce
    # the plan's endpoint error scaled by the clip level and stall the
    # residual schedule.
    thetas = circle_grid(sched.grid_n)
    u = one_plus_cos(thetas[1:])
    tvals = np.empty(sched.grid_n, dtype=complex)
    tvals[1:] = np.asarray(f(np.tan(thetas[1:] / 2.0)), dtype=complex) \
        / (plan.q_eval(u) * u ** m)
    tvals[0] = (4.0 * (tvals[1] + tvals[-1]) - (tvals[2] + tvals[-2])) / 6.0
    if not np.all(np.isfinite(tvals)):
        tvals = np.where(np.isfinite(tvals), tvals, 0.0)
    g = BoundarySamples(n=sched.grid_n, values=tvals, p=p, domain_tag="circle")

    def residual_of(A: LaurentRational) -> float:
        weighted = _stable_weighted(A, p)

        def integrand(theta):
            theta = np.atleast_1d(theta)
            x = np.tan(theta / 2.0)
            gx = np.asarray(f(x), dtype=complex) * one_plus_cos(theta) ** (-1.0 / p)
            return gx - weighted(theta)

        return lp_quasinorm_circle(integrand, p, tol=sched.quad_tol).value

    cumulative: list[TrigPolynomial] = []
    residuals: list[float] = []
    for k in range(1, sched.stages + 1):
        degree = sched.base_degree * 2 ** (k - 1)
        target = eps * fp_norm / 4.0 ** (k + 1)
        boosts = 0
        history_here = []
        while True:
            r_k = trig_approx(g, degree)
            res = residual_of(build_atom(r_k, plan, p))
            history_here.append(res)
            if not sched.enforce_targets or res <= target:
                break
            boosts += 1
            if boosts > sched.max_boosts:
                raise ScheduleStall(
                    f"stage {k}: residual {res:.3g} above target {target:.3g} "
                    f"after {sched.max_boosts} degree doublings"
                )
            if len(history_here) >= 4 and history_here[-1] > 0.5 * history_here[-4]:
                raise ScheduleStall(
                    f"stage {k}: residual failed to halve over 3 doublings"
                )
            degree *= 2
            if degree >= sched.grid_n // 2:
                raise ScheduleStall(f"stage {k}: degree hit the grid limit")
        if residuals and res >= residuals[-1]:
            raise ScheduleStall(
                f"stage {k}: residual {res:.3g} did not decrease below {residuals[-1]:.3g}"
            )
        cumulative.append(r_k)
        residuals.append(res)

    def trig_diff(r2: TrigPolynomial, r1: TrigPolynomial | None) -> TrigPolynomial:
        if r1 is None:
            return r2
        d = max(r2.degree, r1.degree)
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d - r2.degree : d + r2.degree + 1] += r2.coeffs
        c[d - r1.degree : d + r1.degree + 1] -= r1.coeffs
        return TrigPolynomial(c)

    # R_k is built from r_k - r_{k-1}, not as A_k - A_{k-1}: the cumulative
    # atoms are up to 1e3 times larger, and their trimmed coefficients would
    # swamp R_k's zero at w = -1
    atoms = [build_atom(trig_diff(cur, prev), plan, p)
             for prev, cur in zip([None] + cumulative, cumulative)]
    budget = sum(lp_quasinorm_circle(_stable_weighted(R, p), p, tol=sched.quad_tol).value
                 for R in atoms)
    return AtomSequence(
        p=p, eps=eps, atoms=tuple(atoms), budget_p=budget,
        fp_norm_p=fp_norm, residual_history=tuple(residuals),
    )


@dataclass(frozen=True)
class SinglePoleResult:
    """Member of the single-pole class (pole -i) with its fit residuals."""

    rational: LaurentRational
    N: int
    degree: int
    sup_residual: float
    lp_residual_p: float

    def to_report(self) -> dict:
        return {
            "N": self.N,
            "degree": self.degree,
            "sup_residual": self.sup_residual,
            "lp_residual_p": self.lp_residual_p,
            "rational": self.rational.to_report(),
        }


def single_pole_approx(f, N: int, degree: int, p: float,
                       grid_n: int = 4096, ratio_cap: float = 1e8) -> SinglePoleResult:
    """Rational approximant (1+w)^(N+1) sum_j a_j w^j, w = beta(z), to an upper-Hardy f.

    f is the boundary function (callable on R) of an H^p(C_+) member decaying
    at least as fast as |z|^(-N-1).  The disc ratio h(w)/(1+w)^(N+1) is
    smoothed with Fejer means, which converge uniformly when the ratio is
    continuous on the closed disc.  p(N+1) > 1 is required so the returned
    single-pole rational lies in L^p.  It is returned as the LaurentRational
    with only nonnegative powers (pole -i), whose derived zero order at
    w = -1 is N + 1 unless the fitted ratio itself vanishes there.
    """
    if (N + 1) * p <= 1.0:
        raise ValueError(f"requires (N+1)*p > 1, got N={N}, p={p}")
    if degree >= grid_n // 2:
        raise ValueError(f"degree {degree} must be < n/2 = {grid_n // 2}")
    thetas = circle_grid(grid_n)
    x = np.tan(thetas[1:] / 2.0)
    one_plus_w = 1.0 + np.exp(1j * thetas[1:])
    ratio = np.zeros(grid_n, dtype=complex)
    ratio[1:] = np.asarray(f(x), dtype=complex) / one_plus_w ** (N + 1)
    # theta = -pi is 0/0; fill by quadratic extrapolation from the neighbors
    ratio[0] = (4.0 * (ratio[1] + ratio[-1]) - (ratio[2] + ratio[-2])) / 6.0
    scale = np.median(np.abs(ratio[1:])) + 1e-300
    if np.max(np.abs(ratio)) > ratio_cap * scale:
        raise UnboundedRatio(
            f"h(w)/(1+w)^{N + 1} exceeds the cap near w = -1; f decays too slowly"
        )

    js = np.arange(0, degree + 1)
    a = grid_coefficients(ratio)[grid_n // 2 + js] * (1.0 - js / (degree + 1.0))
    c = np.convolve(polypow([1.0, 1.0], N + 1), a)
    rat = LaurentRational(np.concatenate([np.zeros(c.size - 1), c]))

    approx_vals = rat.eval(x.astype(complex))
    fvals = np.asarray(f(x), dtype=complex)
    sup_res = float(np.max(np.abs(fvals - approx_vals)))
    lp_res = float(np.sum(np.abs(fvals - approx_vals) ** p
                          / one_plus_cos(thetas[1:])) * 2 * math.pi / grid_n)
    return SinglePoleResult(
        rational=rat, N=N, degree=degree, sup_residual=sup_res, lp_residual_p=lp_res
    )
