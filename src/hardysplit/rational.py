"""Laurent-rational functions in beta(z) and pole-structure L^p/H^p certification.

The canonical form is R(z) = sum_{k=-n}^{n} c_k beta(z)^k with beta(z) =
(i-z)/(z+i); positive powers put the pole at -i, negative powers at i.
The z-rational form (to_general) serves only the corpus and the input
certificate of split_atom; split pieces keep their exact form.  Membership
in L^p resp. H^p (0<p<1) is decided from the pole certificate alone:
p * (numerator degree - denominator degree) < -1 and p * order < 1 at every
real pole, plus analyticity in the requested half plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalAtPole
from .serialize import to_json

COEFF_TRIM = 1e-13  # relative threshold when normalizing degrees


def polymul(a, b):
    """Product of ascending-coefficient polynomials."""
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def polypow(a, k: int):
    out = np.array([1.0 + 0.0j])
    for _ in range(k):
        out = polymul(out, a)
    return out


def polyval(coeffs, z):
    """Horner evaluation of ascending coefficients at scalar or array z."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    return acc[()] if acc.ndim == 0 else acc


def _trim_degree(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = mags.max(initial=0.0)
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = mags > COEFF_TRIM * top
    last = int(np.nonzero(keep)[0].max())
    out = coeffs[: last + 1].copy()
    out[~keep[: last + 1]] = 0.0
    return out


@dataclass(frozen=True)
class LaurentRational:
    """R(z) = sum c_k beta(z)^k, coefficients stored for k = -n..n."""

    coeffs: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be an odd-length 1-d array (k = -n..n)")
        c = self._normalize(c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n", (c.size - 1) // 2)

    @staticmethod
    def _normalize(c: np.ndarray) -> np.ndarray:
        mags = np.abs(c)
        top = mags.max(initial=0.0)
        if top == 0.0:
            return np.zeros(1, dtype=complex)
        c = np.where(mags > COEFF_TRIM * top, c, 0.0)
        n = (c.size - 1) // 2
        while n > 0 and c[0] == 0 and c[-1] == 0:
            c = c[1:-1]
            n -= 1
        return np.array(c, dtype=complex)

    @classmethod
    def from_dict(cls, coeff_map: dict[int, complex]) -> "LaurentRational":
        """Build from a sparse {power: coefficient} map."""
        if not coeff_map:
            return cls(np.zeros(1, dtype=complex))
        n = max(abs(k) for k in coeff_map)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, v in coeff_map.items():
            c[k + n] = v
        return cls(c)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.n:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.n])

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    @property
    def pos_degree(self) -> int:
        """Largest k > 0 with c_k != 0 (pole order at -i)."""
        for k in range(self.n, 0, -1):
            if self.coeffs[k + self.n] != 0:
                return k
        return 0

    @property
    def neg_degree(self) -> int:
        """Largest -k with c_{-k} != 0 (pole order at i)."""
        for k in range(self.n, 0, -1):
            if self.coeffs[self.n - k] != 0:
                return k
        return 0

    def __add__(self, other: "LaurentRational") -> "LaurentRational":
        n = max(self.n, other.n)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n - self.n : n + self.n + 1] += self.coeffs
        c[n - other.n : n + other.n + 1] += other.coeffs
        return LaurentRational(c)

    def __sub__(self, other: "LaurentRational") -> "LaurentRational":
        n = max(self.n, other.n)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n - self.n : n + self.n + 1] += self.coeffs
        c[n - other.n : n + other.n + 1] -= other.coeffs
        return LaurentRational(c)

    def eval_w(self, w):
        """Evaluate at a disc/circle point w = beta(z).

        Positive and negative powers are Horner-evaluated separately so that
        points with |w| near 0 or infinity stay stable.
        """
        w = np.asarray(w, dtype=complex)
        pos = np.zeros(w.shape, dtype=complex)
        for k in range(self.n, 0, -1):
            pos = (pos + self.coeffs[k + self.n]) * w
        neg = np.zeros(w.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(w == 0, np.inf, 1.0 / w)
        for k in range(self.n, 0, -1):
            neg = (neg + self.coeffs[self.n - k]) * v
        out = pos + neg + self.coeffs[self.n]
        return out[()] if out.ndim == 0 else out

    def eval(self, z):
        """Evaluate R at half-plane point(s) z."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        at_minus_i = z == -1j
        at_plus_i = z == 1j
        if np.any(at_minus_i) and self.pos_degree > 0:
            raise EvalAtPole("z = -i is a pole of this function")
        if np.any(at_plus_i) and self.neg_degree > 0:
            raise EvalAtPole("z = i is a pole of this function")
        out = np.empty(z.shape, dtype=complex)
        safe = ~(at_minus_i | at_plus_i)
        w = (1j - z[safe]) / (z[safe] + 1j)
        out[safe] = self.eval_w(w)
        out[at_minus_i | at_plus_i] = self.coeffs[self.n]
        return out[0] if scalar else out

    def sup_bound_on_line(self) -> float:
        """Triangle-inequality bound sum |c_k| on |R(x)|, x real."""
        return float(np.sum(np.abs(self.coeffs)))

    def to_json(self) -> str:
        return to_json(
            {
                "n": self.n,
                "coeffs_re": list(self.coeffs.real),
                "coeffs_im": list(self.coeffs.imag),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LaurentRational":
        import json

        obj = json.loads(text)
        c = np.asarray(obj["coeffs_re"], dtype=float) + 1j * np.asarray(
            obj["coeffs_im"], dtype=float
        )
        if c.size != 2 * obj["n"] + 1:
            raise ValueError("coefficient length does not match declared degree")
        return cls(c)


@dataclass(frozen=True)
class PoleCertificate:
    """Pole bookkeeping for L^p/H^p membership checks.

    degree_gap is (numerator degree) - (denominator degree) of the reduced
    z-rational form; negative for decaying functions.
    """

    real_poles: tuple
    complex_poles: tuple
    degree_gap: int

    def __post_init__(self):
        rp = tuple((float(a), int(l)) for a, l in self.real_poles)
        cp = tuple((complex(a), int(l)) for a, l in self.complex_poles)
        if any(l < 1 for _, l in rp) or any(l < 1 for _, l in cp):
            raise ValueError("pole orders must be >= 1")
        if list(a for a, _ in rp) != sorted(a for a, _ in rp) or len(
            set(a for a, _ in rp)
        ) != len(rp):
            raise ValueError("real pole locations must be strictly increasing")
        if any(a.imag == 0 for a, _ in cp):
            raise ValueError("complex poles must have nonzero imaginary part")
        object.__setattr__(self, "real_poles", rp)
        object.__setattr__(self, "complex_poles", cp)
        object.__setattr__(self, "degree_gap", int(self.degree_gap))


@dataclass(frozen=True)
class GeneralRational:
    """z-rational function: numerator polynomial over a factored denominator.

    The denominator is scale * prod (z - a)^order over the pole list; the
    numerator shares no root with it (the constructions here guarantee
    co-primality).  An optional stable evaluator, which only
    single_pole_approx supplies, is preferred over the expanded polynomial
    ratio, whose coefficients are ill-conditioned at high degree.
    """

    numer: np.ndarray
    scale: complex
    poles: tuple
    eval_fn: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        numer = _trim_degree(np.asarray(self.numer, dtype=complex))
        numer.flags.writeable = False
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(
            self, "poles", tuple((complex(a), int(l)) for a, l in self.poles if l > 0)
        )

    @property
    def degree_gap(self) -> int:
        num_deg = self.numer.size - 1 if np.any(self.numer != 0) else 0
        return num_deg - sum(l for _, l in self.poles)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        for a, _ in self.poles:
            if np.any(z == a):
                raise EvalAtPole(f"z = {a} is a pole of this function")
        if self.eval_fn is not None:
            out = np.asarray(self.eval_fn(z), dtype=complex)
        else:
            den = np.full(z.shape, self.scale, dtype=complex)
            for a, l in self.poles:
                den *= (z - a) ** l
            out = polyval(self.numer, z) / den
        return out[0] if scalar else out

    def pole_certificate(self) -> PoleCertificate:
        real = sorted(
            (a.real, l) for a, l in self.poles if a.imag == 0.0
        )
        cplx = [(a, l) for a, l in self.poles if a.imag != 0.0]
        return PoleCertificate(
            real_poles=tuple(real), complex_poles=tuple(cplx), degree_gap=self.degree_gap
        )

    def to_report(self) -> dict:
        return {
            "numer_re": list(self.numer.real),
            "numer_im": list(self.numer.imag),
            "scale": self.scale,
            "poles": [{"location": a, "order": l} for a, l in self.poles],
        }


def to_general(R: LaurentRational) -> GeneralRational:
    """Clear beta powers into a z-rational function with poles in {i, -i}."""
    npos, nneg = R.pos_degree, R.neg_degree
    i_minus_z = np.array([1j, -1.0], dtype=complex)  # (i - z), ascending
    z_plus_i = np.array([1j, 1.0], dtype=complex)  # (z + i)
    numer = np.zeros(1, dtype=complex)
    for k in range(-R.n, R.n + 1):
        c = R.coeffs[k + R.n]
        if c == 0:
            continue
        term = c * polymul(polypow(i_minus_z, nneg + k), polypow(z_plus_i, npos - k))
        pad = max(numer.size, term.size)
        numer = np.pad(numer, (0, pad - numer.size)) + np.pad(term, (0, pad - term.size))
    numer = _trim_degree(numer)
    # denominator (i-z)^nneg (z+i)^npos = (-1)^nneg (z-i)^nneg (z+i)^npos
    scale = (-1.0 + 0.0j) ** nneg
    poles = []
    if nneg > 0:
        poles.append((1j, nneg))
    if npos > 0:
        poles.append((-1j, npos))
    return GeneralRational(numer=numer, scale=scale, poles=tuple(poles))


def certify_lp(cert: PoleCertificate, p: float) -> dict:
    """Certify L^p(R) membership from pole structure alone."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"certification requires 0 < p < 1, got {p}")
    reasons = []
    if not p * cert.degree_gap < -1.0:
        reasons.append(
            f"decay too slow: p*(m-n) = {p * cert.degree_gap:.6g} >= -1"
        )
    for a, l in cert.real_poles:
        if not p * l < 1.0:
            reasons.append(
                f"real pole at {a:.6g} not integrable: p*l = {p * l:.6g} >= 1"
            )
    return {"member": not reasons, "reasons": reasons}


def certify_hardy(cert: PoleCertificate, p: float, half_plane: int) -> dict:
    """H^p(C_k) membership: L^p conditions plus analyticity in the half plane."""
    if half_plane not in (1, -1):
        raise ValueError("half_plane must be +1 or -1")
    out = certify_lp(cert, p)
    reasons = list(out["reasons"])
    for a, l in cert.complex_poles:
        if a.imag * half_plane > 0:
            reasons.append(
                f"pole at {a} (order {l}) lies inside the half plane k={half_plane:+d}"
            )
    return {"member": not reasons, "reasons": reasons}
