"""Interior extensions from boundary data and half-plane norm diagnostics.

poisson_extend and cauchy_integral push line boundary values to a point
above the real axis; line_profile tracks the height-parametrized integrals
int |f(x+iy)|^p dx whose supremum defines the half-plane norm, and
subharmonic_bound_check tests the pointwise growth bound
|f(x+iy)| <= (2/pi)^{1/p} ||f|| y^{-1/p} that membership forces.

Coefficient data, line BoundarySamples and LaurentRationals, are sums
sum c_k beta(x)^k, whose extensions are closed forms at w = beta(z): with
A(w) = sum_{k>=0} c_k w^k and B(w) = sum_{k<0} c_k conj(w)^{|k|}, Poisson
is A + B, and Cauchy is A less half the jump A(-1) - B(-1) that the data
make at infinity (the symmetric principal value, so constants give 1/2).
Callables are integrated by quadrature.line_integral in the theta chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import BoundarySamples, beta
from .errors import BoundViolated, NoConvergence
from .quadrature import DEFAULT_TOL, line_integral, line_norm_at_height
from .rational import LaurentRational

# Poisson kernels at heights below this are too peaked for the default
# panels; callers must opt in explicitly.
MIN_HEIGHT = 0.05


def _check_height(y: float, allow_low: bool) -> None:
    if y <= 0.0:
        raise ValueError(f"interior point needs Im z > 0, got {y}")
    if y < MIN_HEIGHT and not allow_low:
        raise ValueError(
            f"height {y} below {MIN_HEIGHT}; pass allow_low=True to override"
        )


def _disc_parts(f, z: complex):
    """(A, B, jump) of coefficient data at w = beta(z), or None for a callable."""
    if isinstance(f, BoundarySamples) and f.domain_tag != "line":
        raise ValueError("expected line-domain samples")
    if not isinstance(f, (BoundarySamples, LaurentRational)):
        return None
    c = f.coeffs
    n = (c.size - 1) // 2
    powers = complex(beta(z)) ** np.arange(n + 1)
    signs = (-1.0) ** np.arange(n + 1)
    up, down = c[n:], c[n::-1]  # down[k] = c_{-k}; down[0] belongs to A
    return (powers @ up, np.conj(powers[1:]) @ down[1:],
            signs @ up - signs[1:] @ down[1:])


def _kernel_integral(g, x: float, y: float, tol: float):
    """integral over R of g(t) y/((x-t)^2+y^2) dt."""
    return line_integral(
        lambda t: np.asarray(g(t), dtype=complex) * (y / ((x - t) ** 2 + y * y)),
        [x], tol)[0]


def poisson_extend(f, z: complex, tol: float = 1e-8,
                   allow_low: bool = False) -> complex:
    """Poisson average of boundary data f at z = x + iy, y > 0.

    f is a callable on the line, line BoundarySamples or a LaurentRational.
    Coefficient data take the closed form A + B.  For a callable, the
    kernel normalization integral P_y * 1 = 1 is recomputed on the same
    mesh settings and must agree to 1e-10, guarding against under-resolved
    kernel peaks.
    """
    z = complex(z)
    x, y = z.real, z.imag
    _check_height(y, allow_low)
    parts = _disc_parts(f, z)
    if parts is not None:
        return complex(parts[0] + parts[1])
    norm = _kernel_integral(lambda t: np.ones_like(t, dtype=complex), x, y,
                            min(tol, 1e-11))
    if abs(norm / math.pi - 1.0) > 1e-10:
        raise NoConvergence(
            f"kernel normalization off by {abs(norm / math.pi - 1.0):.3g}"
        )
    return complex(_kernel_integral(f, x, y, tol) / math.pi)


def cauchy_integral(f, z: complex, tol: float = 1e-8,
                    allow_low: bool = False) -> complex:
    """(1/2 pi i) integral of f(s)/(s - z) ds over R, Im z > 0.

    Coefficient data take the closed form A - jump/2.
    """
    z = complex(z)
    _check_height(z.imag, allow_low)
    parts = _disc_parts(f, z)
    if parts is not None:
        return complex(parts[0] - 0.5 * parts[2])
    val = line_integral(lambda s: np.asarray(f(s), dtype=complex) / (s - z),
                        [z.real], tol)[0]
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
        """Values with null at a diverged height, which diverged_heights lists."""
        return {
            "p": self.p,
            "heights": list(self.heights),
            "values": [v if math.isfinite(v) else None for v in self.values],
            "diverged_heights": [y for y, v in zip(self.heights, self.values)
                                 if not math.isfinite(v)],
            "monotone": self.monotone,
        }


def line_profile(f, p: float, heights, tol: float = DEFAULT_TOL,
                 slack: float = 1e-8) -> LineProfile:
    """Evaluate int |f(x+iy)|^p dx over the given heights.

    f is an interior evaluator on complex points.  A height whose integral
    fails to converge (a pole on or too near that line) records inf; that is
    an outcome, so the overflow and invalid values f produces there on the
    way are not warned about.  The monotone flag reports whether values are
    nonincreasing in y up to a relative slack, which characterizes
    upper-half-plane membership.
    """
    hs = tuple(sorted(float(y) for y in heights))
    vals = []
    errs = []
    for y in hs:
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
