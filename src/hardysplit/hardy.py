"""Interior extensions from boundary data and half-plane norm diagnostics.

poisson_extend and cauchy_integral push line boundary values to a point
above the real axis; line_profile tracks the height-parametrized integrals
int |f(x+iy)|^p dx whose supremum defines the half-plane norm, and
subharmonic_bound_check tests the pointwise growth bound
|f(x+iy)| <= (2/pi)^{1/p} ||f|| y^{-1/p} that membership forces.

All line integrals ride the same theta substitution x = tan(theta/2) as
the rest of the package, so the point at infinity needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import BoundarySamples, one_plus_cos, theta_of_x
from .errors import BoundViolated, NoConvergence
from .quadrature import (
    DEFAULT_TOL,
    _as_circle_evaluator,
    integrate,
    line_norm_at_height,
)
from .serialize import to_json

# Poisson kernels at heights below this are too peaked for the default
# panels; callers must opt in explicitly.
MIN_HEIGHT = 0.05


def _as_line_evaluator(f):
    """Callable x -> f(x) from an evaluator or line BoundarySamples."""
    if not isinstance(f, BoundarySamples):
        return f
    if f.domain_tag != "line":
        raise ValueError("expected line-domain samples")
    ev = _as_circle_evaluator(f)
    return lambda x: ev(2.0 * np.arctan(np.atleast_1d(x)))


def _check_height(y: float, allow_low: bool) -> None:
    if y <= 0.0:
        raise ValueError(f"interior point needs Im z > 0, got {y}")
    if y < MIN_HEIGHT and not allow_low:
        raise ValueError(
            f"height {y} below {MIN_HEIGHT}; pass allow_low=True to override"
        )


def _kernel_integral(g, x: float, y: float, tol: float):
    """integral over R of g(t) y/((x-t)^2+y^2) dt via the theta chart."""

    def integrand(theta):
        theta = np.atleast_1d(theta)
        t = np.tan(theta / 2.0)
        kern = y / ((x - t) ** 2 + y * y)
        return np.asarray(g(t), dtype=complex) * kern / one_plus_cos(theta)

    peak = float(theta_of_x(x))
    val, err, _ = integrate(integrand, -math.pi, math.pi,
                            singular_points=[peak], tol=tol,
                            grade_endpoints=True)
    return val


def poisson_extend(f, z: complex, tol: float = 1e-8,
                   allow_low: bool = False) -> complex:
    """Poisson average of boundary data f at z = x + iy, y > 0.

    The kernel normalization integral P_y * 1 = 1 is recomputed on the same
    mesh settings and must agree to 1e-10, guarding against under-resolved
    kernel peaks.
    """
    z = complex(z)
    x, y = z.real, z.imag
    _check_height(y, allow_low)
    ev = _as_line_evaluator(f)
    norm = _kernel_integral(lambda t: np.ones_like(t, dtype=complex), x, y,
                            min(tol, 1e-11))
    if abs(norm / math.pi - 1.0) > 1e-10:
        raise NoConvergence(
            f"kernel normalization off by {abs(norm / math.pi - 1.0):.3g}"
        )
    return complex(_kernel_integral(ev, x, y, tol) / math.pi)


def cauchy_integral(f, z: complex, tol: float = 1e-8,
                    allow_low: bool = False) -> complex:
    """(1/2 pi i) integral of f(s)/(s - z) ds over R, Im z > 0."""
    z = complex(z)
    _check_height(z.imag, allow_low)
    ev = _as_line_evaluator(f)

    def integrand(theta):
        theta = np.atleast_1d(theta)
        s = np.tan(theta / 2.0)
        return np.asarray(ev(s), dtype=complex) / ((s - z) * one_plus_cos(theta))

    peak = float(theta_of_x(z.real))
    val, err, _ = integrate(integrand, -math.pi, math.pi,
                            singular_points=[peak], tol=tol,
                            grade_endpoints=True)
    return complex(val / (2.0j * math.pi))


@dataclass(frozen=True)
class LineProfile:
    """Height-indexed integrals int |f(x+iy)|^p dx with a monotonicity flag."""

    p: float
    heights: tuple
    values: tuple
    monotone: bool

    def __post_init__(self):
        hs = self.heights
        if any(h <= 0 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("heights must be positive and strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("profile values must be nonnegative")

    def sup_norm(self) -> float:
        """sup over computed heights of the p-norm (integral^{1/p})."""
        return max(self.values) ** (1.0 / self.p)

    def to_report(self) -> dict:
        return {
            "p": self.p,
            "heights": list(self.heights),
            "values": list(self.values),
            "monotone": self.monotone,
        }

    def to_json(self) -> str:
        return to_json(self.to_report())


def line_profile(f, p: float, heights, tol: float = DEFAULT_TOL,
                 slack: float = 1e-8) -> LineProfile:
    """Evaluate int |f(x+iy)|^p dx over the given heights.

    f is an interior evaluator on complex points.  A height whose integral
    fails to converge (a pole on or too near that line) records inf; the
    monotone flag reports whether values are nonincreasing in y up to a
    relative slack, which characterizes upper-half-plane membership.
    """
    hs = tuple(sorted(float(y) for y in heights))
    vals = []
    errs = []
    for y in hs:
        try:
            res = line_norm_at_height(f, p, y, tol=tol)
            vals.append(res.value)
            errs.append(res.est_error)
        except NoConvergence:
            vals.append(math.inf)
            errs.append(math.inf)
    monotone = all(
        b <= a * (1.0 + slack) + ea + eb
        for a, b, ea, eb in zip(vals, vals[1:], errs, errs[1:])
        if math.isfinite(a)
    ) and all(math.isfinite(v) for v in vals)
    return LineProfile(p=p, heights=hs, values=tuple(vals), monotone=monotone)


def subharmonic_bound_check(f, p: float, hp_norm_estimate: float,
                            sample_points) -> dict:
    """Check |f(x+iy)| <= (2/pi)^{1/p} * norm * y^{-1/p} at interior samples.

    Raises BoundViolated at the first failing sample; otherwise returns a
    report with per-sample margins.  A violation signals either that the
    norm estimate is too small or that f is not upper-half-plane Hardy.
    """
    if not 0.0 < p < 2.0:
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if hp_norm_estimate < 0.0:
        raise ValueError("norm estimate must be nonnegative")
    c_p = (2.0 / math.pi) ** (1.0 / p)
    samples = []
    for z in sample_points:
        z = complex(z)
        if z.imag <= 0.0:
            raise ValueError(f"sample {z} not in the open upper half plane")
        value = abs(complex(np.asarray(f(np.array([z])))[0]))
        bound = c_p * hp_norm_estimate * z.imag ** (-1.0 / p)
        margin = bound - value
        if margin < 0.0:
            raise BoundViolated(
                f"|f({z})| = {value:.6g} exceeds the bound {bound:.6g}"
            )
        samples.append({"z": z, "value": value, "bound": bound,
                        "margin": margin})
    return {
        "p": p,
        "c_p": c_p,
        "hp_norm_estimate": hp_norm_estimate,
        "min_margin": min((s["margin"] for s in samples), default=math.inf),
        "samples": samples,
    }
