"""Laurent-rational functions in beta(z) and pole-structure L^p/H^p certification.

The canonical form is R(z) = sum_{j=-n}^{n} c_j beta(z)^j with beta(z) =
(i-z)/(z+i); positive powers put the pole at -i, negative powers at i.
Each LaurentRational also derives its factored form R(w) = (1+w)^k Q(w):
k is the order of its zero at w = beta(infinity) = -1, so R decays like
|x|^-k on the line, and all of its cancellation near infinity lives in k.
Every evaluation (eval, eval_w, eval_theta, and the split pieces built on
R) runs through eval_factored, which takes 1 + w from the caller: exactly
2i/(z+i) on the line and 2 cos(theta/2) e^{i theta/2} on the circle.

Membership in L^p resp. H^p (0<p<1) is decided from the pole certificate
alone: p * (numerator degree - denominator degree) < -1 and p * order < 1
at every real pole, plus analyticity in the requested half plane.  A
Laurent atom's certificate is read off (pos_degree, neg_degree, k); the
z-rational form (to_general, GeneralRational) serves only the corpus and
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalAtPole
from .serialize import to_json

COEFF_TRIM = 1e-13  # relative threshold when normalizing degrees
DEFLATE_TOL = 1e-11  # largest remainder, relative to max|c|, taken as a zero at -1


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


def _deflate(a: np.ndarray, tol: float, limit: int) -> tuple[int, np.ndarray]:
    """(k, b) with a(w) = (1+w)^k b(w), k <= limit, ascending coefficients.

    Synthetic division by (1+w) repeats while the remainder a(-1) is at
    most tol; the division is an alternating suffix sum, summed from the
    top as Horner's rule would.
    """
    k = 0
    while k < limit:
        sign = np.where(np.arange(a.size) % 2 == 0, 1.0, -1.0)
        tails = np.cumsum((a * sign)[::-1])[::-1]  # tails[i] = sum_{j>=i} a_j (-1)^j
        if abs(tails[0]) > tol:
            break
        a = -sign[:-1] * tails[1:]
        k += 1
    return k, a


def beta_charts(z: np.ndarray):
    """(upper, w, 1 + w, v, 1 + v) for z split by the sign of Im z.

    w = beta(z) on Im z >= 0 and v = 1/beta(z) below, so |w|, |v| <= 1;
    1 + w = 2i/(z+i) and 1 + v = 2i/(i-z) are exact, which keeps relative
    accuracy near the zero at beta = -1 (z -> infinity).
    """
    upper = z.imag >= 0.0
    zu, zl = z[upper], z[~upper]
    return (upper, (1j - zu) / (zu + 1j), 2j / (zu + 1j),
            (zl + 1j) / (1j - zl), 2j / (1j - zl))


@dataclass(frozen=True, eq=False)
class LaurentRational:
    """R(z) = sum c_j beta(z)^j, coefficients stored for j = -n..n.

    zero_order k and quotient Q are derived: R(w) = (1+w)^k Q(w), with Q's
    ascending coefficients for the powers -neg_degree..pos_degree - k.
    """

    coeffs: np.ndarray
    n: int = field(init=False)
    zero_order: int = field(init=False)
    quotient: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be an odd-length 1-d array (k = -n..n)")
        raw, raw_n = c, (c.size - 1) // 2
        c = self._normalize(c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n", (c.size - 1) // 2)
        k, q = 0, np.zeros(1, dtype=complex)
        if not self.is_zero:
            # deflate before trimming: a trimmed coefficient at power j moves
            # the k-th remainder by up to j^(k-1) times its size; Q is then
            # cut to the trimmed span, powers -neg_degree..pos_degree - k
            k, q = _deflate(raw, DEFLATE_TOL * float(np.abs(c).max()),
                            self.neg_degree + self.pos_degree)
            q = q[raw_n - self.neg_degree:raw_n + self.pos_degree - k + 1]
        q.flags.writeable = False
        object.__setattr__(self, "zero_order", k)
        object.__setattr__(self, "quotient", q)

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

    def eval_factored(self, x, one_plus_x, shift: int = 0, reflect: bool = False):
        """x^shift R(x), or x^shift R(1/x) when reflect, from (1+x)^k Q.

        one_plus_x must equal 1 + x; callers that know it exactly keep full
        relative accuracy near the zero at x = -1.  Horner runs on Q in x,
        so pass |x| <= 1 (reflect with x = 1/w where |w| > 1).
        """
        q = self.quotient[::-1] if reflect else self.quotient
        power = shift - (self.pos_degree if reflect else self.neg_degree)
        acc = np.full(np.shape(x), q[-1], dtype=complex)
        for c in q[-2::-1]:
            np.multiply(acc, x, out=acc)
            acc += c
        if power:
            acc *= x ** power
        if self.zero_order:
            acc *= one_plus_x ** self.zero_order
        return acc

    def eval_w(self, w):
        """Evaluate at a disc/circle point w = beta(z)."""
        w = np.asarray(w, dtype=complex)
        return self.eval_factored(w, 1.0 + w)[()]

    def eval_theta(self, theta):
        """Boundary values R(e^{i theta}), i.e. at x = tan(theta/2)."""
        theta = np.asarray(theta, dtype=float)
        half = np.exp(0.5j * theta)
        return self.eval_factored(half * half, 2.0 * np.cos(0.5 * theta) * half)

    def eval(self, z):
        """Evaluate R at half-plane point(s) z."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.pos_degree > 0 and np.any(z == -1j):
            raise EvalAtPole("z = -i is a pole of this function")
        if self.neg_degree > 0 and np.any(z == 1j):
            raise EvalAtPole("z = i is a pole of this function")
        upper, w, one_plus_w, v, one_plus_v = beta_charts(z)
        out = np.empty(z.shape, dtype=complex)
        out[upper] = self.eval_factored(w, one_plus_w)
        out[~upper] = self.eval_factored(v, one_plus_v, reflect=True)
        return out[0] if scalar else out

    def pole_certificate(self) -> "PoleCertificate":
        """Poles i (order neg_degree) and -i (order pos_degree); degree gap -k."""
        poles = ((1j, self.neg_degree), (-1j, self.pos_degree))
        return PoleCertificate(real_poles=(),
                               complex_poles=tuple((a, l) for a, l in poles if l > 0),
                               degree_gap=-self.zero_order)

    def sup_bound_on_line(self) -> float:
        """Triangle-inequality bound sum |c_k| on |R(x)|, x real."""
        return float(np.sum(np.abs(self.coeffs)))

    def to_report(self) -> dict:
        return {
            "n": self.n,
            "zero_order": self.zero_order,
            "coeffs_re": list(self.coeffs.real),
            "coeffs_im": list(self.coeffs.imag),
        }

    def to_json(self) -> str:
        return to_json(self.to_report())

    @classmethod
    def from_json(cls, text: str) -> "LaurentRational":
        """Rebuild from to_json's text, keeping the zero_order it reports.

        Reported coefficients are trimmed at COEFF_TRIM, which moves the i-th
        deflation remainder by up to COEFF_TRIM C(2n+1, i+1) max|c|; a larger
        remainder contradicts the reported order and raises ValueError.
        """
        import json

        obj = json.loads(text)
        c = np.asarray(obj["coeffs_re"], dtype=float) + 1j * np.asarray(
            obj["coeffs_im"], dtype=float
        )
        if c.size != 2 * obj["n"] + 1:
            raise ValueError("coefficient length does not match declared degree")
        R, k = cls(c), int(obj["zero_order"])
        top, q = float(np.abs(R.coeffs).max()), R.coeffs
        for i in range(k):
            bound = (DEFLATE_TOL + COEFF_TRIM * math.comb(R.coeffs.size, i + 1)) * top
            done, q = _deflate(q, bound, min(1, R.neg_degree + R.pos_degree - i))
            if not done:
                raise ValueError(f"coefficients contradict zero_order {k}")
        q = q[R.n - R.neg_degree:R.n + R.pos_degree - k + 1]
        q.flags.writeable = False
        object.__setattr__(R, "zero_order", k)
        object.__setattr__(R, "quotient", q)
        return R


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


@dataclass(frozen=True, eq=False)
class GeneralRational:
    """z-rational function: numerator polynomial over a factored denominator.

    The denominator is scale * prod (z - a)^order over the pole list; the
    numerator shares no root with it (the constructions here guarantee
    co-primality).  The expanded numerator is ill-conditioned at high
    degree, so only the corpus and the tests build this form.
    """

    numer: np.ndarray
    scale: complex
    poles: tuple

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
