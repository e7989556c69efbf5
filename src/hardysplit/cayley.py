"""Cayley correspondence between the unit disc/circle and the upper half plane/line.

The pair alpha(w) = i(1-w)/(1+w) and beta(z) = (i-z)/(z+i) is used throughout:
boundary points of the disc map to the real line via x = tan(theta/2), and the
L^p quasi-norm of a line function equals the quasi-norm of its weighted circle
pullback g(theta) = f(tan(theta/2)) * (1+cos(theta))^(-1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonDecayingInput, PoleAtMinusI, PoleAtMinusOne
from .serialize import to_json

_DENSE_CHUNK = 16  # rows of the dense evaluator's matrix: 1 MB at n = 4096


def alpha(w):
    """Disc -> upper half plane: i(1-w)/(1+w). Accepts scalars or arrays."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == -1):
        raise PoleAtMinusOne("alpha has a pole at w = -1")
    out = 1j * (1 - w) / (1 + w)
    return out[()] if out.ndim == 0 else out


def beta(z):
    """Upper half plane -> disc: (i-z)/(z+i); inverse of alpha."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == -1j):
        raise PoleAtMinusI("beta has a pole at z = -i")
    out = (1j - z) / (z + 1j)
    return out[()] if out.ndim == 0 else out


def theta_of_x(x):
    """Boundary angle with beta(x) = e^{i theta} and x = tan(theta/2).

    Principal-value branch: theta in (-pi, pi), strictly increasing in x.
    """
    x = np.asarray(x, dtype=float)
    out = 2.0 * np.arctan(x)
    return out[()] if out.ndim == 0 else out


def one_plus_cos(theta):
    """1 + cos(theta) computed as 2 cos^2(theta/2); stable near theta = +-pi."""
    theta = np.asarray(theta, dtype=float)
    out = 2.0 * np.cos(theta / 2.0) ** 2
    return out[()] if out.ndim == 0 else out


def circle_grid(n: int) -> np.ndarray:
    """Uniform angles theta_j = -pi + 2 pi j / n, j = 0..n-1."""
    _check_grid(n)
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def _check_grid(n: int) -> None:
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")


def grid_coefficients(values) -> np.ndarray:
    """Coefficients c_k, k = -n/2..n/2, of the interpolant of circle_grid data.

    Stored as LaurentRational stores its powers, so on line data c_k is the
    coefficient of beta(x)^k.  The grid starts at theta = -pi, which puts the
    phase (-1)^k on the FFT; the Nyquist term is split evenly between k =
    +-n/2, so real data interpolate by a real function.
    """
    n = len(values)
    ks = np.arange(-(n // 2), n // 2 + 1)
    c = np.fft.fft(values)[ks % n] / n * (-1.0) ** ks
    c[[0, -1]] *= 0.5
    return c


@dataclass(frozen=True, eq=False)
class BoundarySamples:
    """Boundary values on the uniform circle grid (or its line image).

    For domain "line" the j-th value lives at x_j = tan(theta_j/2); the node
    theta = -pi carries the declared limit at infinity (0 for L^p data).
    coeffs holds the interpolant's grid_coefficients, computed once.
    """

    n: int
    values: np.ndarray
    p: float
    domain_tag: str = "circle"
    _thetas: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid(self.n)
        if self.domain_tag not in ("circle", "line"):
            raise ValueError(f"unknown domain tag {self.domain_tag!r}")
        if not 0.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (0, 2], got {self.p}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.n,):
            raise ValueError("values must have length n")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite at every grid node")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_thetas", circle_grid(self.n))
        coeffs = grid_coefficients(vals)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def thetas(self) -> np.ndarray:
        return self._thetas

    def eval_theta(self, theta) -> np.ndarray:
        """The interpolant at the angles theta, as a flat array.

        Summed densely over at most _DENSE_CHUNK angles at a time, so that
        the (angles x n) matrix of exponentials stays small for the large
        batches the quadrature engine makes.
        """
        theta = np.ravel(theta)
        iks = 1j * np.arange(-(self.n // 2), self.n // 2 + 1)
        out = np.empty(theta.shape, dtype=complex)
        work = np.empty((min(theta.size, _DENSE_CHUNK), iks.size), dtype=complex)
        for i in range(0, theta.size, _DENSE_CHUNK):
            t = theta[i:i + _DENSE_CHUNK]
            e = np.multiply.outer(t, iks, out=work[:t.size])
            out[i:i + t.size] = np.exp(e, out=e) @ self.coeffs
        return out

    def to_json(self) -> str:
        return to_json(
            {
                "n": self.n,
                "p": self.p,
                "domain": self.domain_tag,
                "re": list(self.values.real),
                "im": list(self.values.imag),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BoundarySamples":
        import json

        obj = json.loads(text)
        vals = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return cls(n=obj["n"], values=vals, p=obj["p"], domain_tag=obj["domain"])


def pullback(f, p: float, n: int, infinity_limit: complex = 0.0) -> BoundarySamples:
    """Weighted circle pullback g(theta) = f(tan(theta/2)) (1+cos theta)^(-1/p).

    ``f`` is either a callable on the real line or line-domain BoundarySamples
    on the same grid.  The theta = -pi node is pinned to 0 by the declared
    decay at infinity.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"pullback requires 0 < p < 1, got {p}")
    if infinity_limit != 0.0:
        raise NonDecayingInput("line input must decay to 0 at infinity")
    thetas = circle_grid(n)
    if isinstance(f, BoundarySamples):
        if f.domain_tag != "line" or f.n != n:
            raise ValueError("expected line-domain samples on the same grid")
        fvals = f.values.copy()
    else:
        fvals = np.empty(n, dtype=complex)
        fvals[1:] = f(np.tan(thetas[1:] / 2.0))
    fvals[0] = 0.0
    g = np.zeros(n, dtype=complex)
    w = one_plus_cos(thetas[1:])
    g[1:] = fvals[1:] * w ** (-1.0 / p)
    return BoundarySamples(n=n, values=g, p=p, domain_tag="circle")
