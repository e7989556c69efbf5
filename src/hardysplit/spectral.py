"""Discrete Fourier spectrum checks and the half-line integral representation.

The forward transform follows the fixed convention
f_hat(t) = (1/sqrt(2 pi)) integral f(x) e^{-ixt} dx, discretized by a
trapezoid-weighted FFT on a hard window [-L, L].  Upper-Hardy boundary
functions concentrate spectral energy on t >= 0 (neg_energy_ratio), lower
ones on t <= 0.  build_F assembles F(t) = e^{delta t} f_hat_delta(t) from
interior lines f_delta(x) = f(x + i delta); delta-independence of F and the
growth |F(t)| <= C ||f|| t^{1/p - 1} certify membership, and
laplace_reconstruct inverts f(z) = (1/sqrt(2 pi)) integral_0^inf F(t) e^{itz} dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WindowTooSmall

CONVENTION = "forward = (1/sqrt(2 pi)) integral f(x) e^{-ixt} dx"

DEFAULT_L = 200.0
DEFAULT_N = 2 ** 14

# Relative edge threshold: corpus functions decay algebraically (x^{-2}),
# so the window test must be relative to the peak, not absolute.
EDGE_REL_THRESHOLD = 1e-4

# e^{delta t} amplifies FFT noise exponentially; beyond this frequency the
# amplified window-truncation error overtakes the decaying true spectrum.
DEFAULT_T_MAX = 10.0


def _window_samples(f, L: float, n: int, shift: complex = 0.0) -> np.ndarray:
    """Trapezoid-weighted samples of f on x_k = -L + k dx, k = 0..n-1.

    The periodic FFT grid omits x = +L; folding (f(-L) + f(L))/2 into the
    first sample makes the Riemann sum a composite trapezoid rule.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")
    dx = 2.0 * L / n
    x = -L + dx * np.arange(n)
    vals = np.asarray(f(x + shift), dtype=complex)
    edge_hi = complex(np.asarray(f(np.array([L + shift])), dtype=complex)[0])
    peak = float(np.max(np.abs(vals)))
    edge = max(abs(vals[0]), abs(edge_hi))
    if peak > 0.0 and edge > EDGE_REL_THRESHOLD * peak:
        raise WindowTooSmall(
            f"edge magnitude {edge:.3g} exceeds {EDGE_REL_THRESHOLD:g} "
            f"of the peak {peak:.3g}; enlarge L"
        )
    out = vals.copy()
    out[0] = 0.5 * (vals[0] + edge_hi)
    return out


def _forward_fft(samples: np.ndarray, L: float) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, f_hat) on the fftshifted grid t_j = pi j / L.

    Derivation from the convention: sum_k f(x_k) e^{-i x_k t} dx / sqrt(2 pi)
    with x_k = -L + k dx gives e^{+iLt} FFT[f] dx / sqrt(2 pi).
    """
    n = samples.size
    dx = 2.0 * L / n
    freqs = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=dx))
    raw = np.fft.fftshift(np.fft.fft(samples))
    return freqs, raw * np.exp(1j * L * freqs) * dx / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SpectrumProfile:
    """Windowed discrete spectrum with its negative-frequency energy share."""

    L: float
    n: int
    freqs: np.ndarray = field(compare=False)
    values: np.ndarray = field(compare=False)
    neg_energy_ratio: float = 0.0
    convention_tag: str = CONVENTION

    def __post_init__(self):
        if not 0.0 <= self.neg_energy_ratio <= 1.0:
            raise ValueError("neg_energy_ratio must lie in [0, 1]")

    def to_report(self) -> dict:
        return {
            "L": self.L,
            "n": self.n,
            "convention": self.convention_tag,
            "neg_energy_ratio": self.neg_energy_ratio,
            "freqs": list(self.freqs),
            "re": list(self.values.real),
            "im": list(self.values.imag),
        }


def dft_line(f, L: float = DEFAULT_L, n: int = DEFAULT_N) -> SpectrumProfile:
    """Discrete spectrum of boundary data f on the window [-L, L].

    f is a callable on real arrays or a length-n sample array on the grid
    x_k = -L + k (2L/n) (already trapezoid-weighted by the caller).
    """
    if callable(f):
        samples = _window_samples(f, L, n)
    else:
        samples = np.asarray(f, dtype=complex)
        if samples.shape != (n,):
            raise ValueError(f"expected {n} samples, got shape {samples.shape}")
    freqs, values = _forward_fft(samples, L)
    energy = np.abs(values) ** 2
    total = float(energy.sum())
    neg = float(energy[freqs < 0.0].sum())
    ratio = neg / total if total > 0.0 else 0.0
    return SpectrumProfile(L=L, n=n, freqs=freqs, values=values,
                           neg_energy_ratio=ratio)


def spectrum_support_test(f, p: float, tol: float = 1e-5,
                          L: float = DEFAULT_L, n: int = DEFAULT_N) -> dict:
    """Half-line spectrum test: negligible t < 0 energy marks upper-Hardy.

    Exact for 1 <= p <= 2; a heuristic (still informative on rational
    corpus data) outside that range.
    """
    prof = dft_line(f, L=L, n=n)
    return {"in_Hplus": prof.neg_energy_ratio < tol,
            "ratio": prof.neg_energy_ratio}


@dataclass(frozen=True)
class FProfile:
    """F(t) = e^{delta t} f_hat_delta(t) on t >= 0, per interior height delta."""

    p: float
    delta_list: tuple
    t_grid: np.ndarray = field(compare=False)
    F_values: tuple = field(compare=False, default=())  # one array per delta
    max_cross_delta_dev: float = 0.0
    growth_C: float = 0.0
    growth_exponent_target: float = 0.0
    L: float = DEFAULT_L
    n: int = DEFAULT_N
    convention_tag: str = CONVENTION

    def mean_F(self) -> np.ndarray:
        return np.mean(np.stack(self.F_values), axis=0)

    def to_report(self) -> dict:
        mean = self.mean_F()
        return {
            "p": self.p,
            "convention": self.convention_tag,
            "delta_list": list(self.delta_list),
            "L": self.L,
            "n": self.n,
            "max_cross_delta_dev": self.max_cross_delta_dev,
            "growth_C": self.growth_C,
            "growth_exponent_target": self.growth_exponent_target,
            "t_grid": list(self.t_grid),
            "re": list(mean.real),
            "im": list(mean.imag),
        }

    def to_csv(self, hp_norm: float = 1.0) -> str:
        """Rows (t, |F(t)|, bound(t)) for plotting against the growth bound."""
        mean = np.abs(self.mean_F())
        b = self.growth_exponent_target
        lines = ["t,abs_F,bound"]
        for t, a in zip(self.t_grid, mean):
            bound = self.growth_C * hp_norm * t ** b if t > 0 else 0.0
            lines.append(f"{t:.17g},{a:.17g},{bound:.17g}")
        return "\n".join(lines) + "\n"


def build_F(f, p: float, delta_list=(0.5, 1.0), t_max: float = DEFAULT_T_MAX,
            L: float = DEFAULT_L, n: int = DEFAULT_N) -> FProfile:
    """Assemble F from interior lines and measure its delta-independence.

    f is an interior evaluator on complex points; each delta contributes
    F_delta(t) = e^{delta t} f_hat_delta(t) on the common nonnegative grid
    truncated at t_max (beyond which e^{delta t} amplifies FFT noise).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    deltas = tuple(float(d) for d in delta_list)
    if not deltas:
        raise ValueError("need at least one delta")
    if any(not 0.1 <= d <= 2.0 for d in deltas):
        raise ValueError("delta values must lie in [0.1, 2]")
    profiles = []
    t_grid = None
    for d in deltas:
        samples = _window_samples(f, L, n, shift=1j * d)
        freqs, values = _forward_fft(samples, L)
        keep = (freqs >= 0.0) & (freqs <= t_max)
        if t_grid is None:
            t_grid = freqs[keep]
        profiles.append(values[keep] * np.exp(d * t_grid))
    stack = np.stack(profiles)
    scale = float(np.max(np.abs(stack))) if np.any(stack != 0) else 1.0
    dev = 0.0
    if len(deltas) > 1:
        spread = np.max(np.abs(stack - stack[0]), axis=0)
        dev = float(np.max(spread)) / scale
    return FProfile(
        p=p, delta_list=deltas, t_grid=t_grid, F_values=tuple(profiles),
        max_cross_delta_dev=dev, growth_C=proof_growth_constant(p),
        growth_exponent_target=1.0 / p - 1.0, L=L, n=n,
    )


def proof_growth_constant(p: float) -> float:
    """The explicit constant the membership proof yields for |F(t)|.

    C_p^{1-p} B_p^{-B_p} e^{B_p} with C_p^p = 2/pi and B_p = 1/p - 1;
    at p = 1 the exponent vanishes and the constant is C_1^0 = 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    b = 1.0 / p - 1.0
    c_p = (2.0 / math.pi) ** (1.0 / p)
    base = b ** (-b) if b > 0.0 else 1.0
    return c_p ** (1.0 - p) * base * math.exp(b)


def growth_bound_check(Fp: FProfile, hp_norm: float, p: float) -> dict:
    """Smallest C with |F(t)| <= C * hp_norm * t^{1/p-1} on the grid.

    The theory guarantees some finite constant; this fits the empirical one
    and reports the proof's explicit constant alongside for comparison.
    """
    b = 1.0 / p - 1.0
    mean = np.abs(Fp.mean_F())
    pos = Fp.t_grid > 0.0
    if hp_norm > 0.0:
        with np.errstate(divide="ignore"):
            ratios = mean[pos] / (hp_norm * Fp.t_grid[pos] ** b)
        fitted = float(np.max(ratios)) if ratios.size else 0.0
    else:
        fitted = 0.0 if not np.any(mean[pos] > 0.0) else math.inf
    return {
        "ok": math.isfinite(fitted),
        "fitted_C": fitted,
        "proof_C": proof_growth_constant(p),
        "exponent": b,
    }


def _simpson(values: np.ndarray, dt: float) -> complex:
    """Composite Simpson on a uniform grid; trapezoid patch for even counts."""
    n = values.size
    if n < 2:
        return 0.0 + 0.0j
    if n == 2:
        return complex(0.5 * dt * (values[0] + values[1]))
    m = n if n % 2 == 1 else n - 1
    v = values[:m]
    total = v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()
    result = total * dt / 3.0
    if m < n:
        result += 0.5 * dt * (values[-2] + values[-1])
    return complex(result)


def laplace_reconstruct(Fp: FProfile, z: complex) -> complex:
    """f(z) = (1/sqrt(2 pi)) integral_0^inf F(t) e^{itz} dt for Im z > 0.

    Integrates the delta-averaged F over its grid, truncated where the
    damped integrand drops below 1e-12 of its peak.
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError(f"requires Im z > 0, got {z}")
    t = Fp.t_grid
    integrand = Fp.mean_F() * np.exp(1j * t * z)
    mags = np.abs(integrand)
    peak = float(mags.max()) if mags.size else 0.0
    if peak == 0.0:
        return 0.0 + 0.0j
    keep = np.nonzero(mags > 1e-12 * peak)[0]
    hi = int(keep[-1]) + 1
    dt = float(t[1] - t[0])
    return _simpson(integrand[:hi], dt) / math.sqrt(2.0 * math.pi)
