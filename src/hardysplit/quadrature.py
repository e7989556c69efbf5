"""L^p quasi-norms on the line and circle via adaptive Gauss-Kronrod panels.

Line integrals go through one routine, line_integral, which pushes them
onto [-pi, pi] through x = tan(theta/2), dx = dtheta / (1 + cos theta), so
the point at infinity becomes the ordinary endpoint theta = +-pi.  Declared
integrable singularities (p * order < 1) and the interval endpoints get
graded geometric meshes (ratio 1/2); the remaining mass past the finest cell
is extrapolated from the observed cell-to-cell decay ratio, which is exact
for pure power behaviour |t - s|^(-q).

A graded side is an endpoint, or one side of a singular point.  The sides
of one integral advance together as a level wavefront: the first
_GRADE_MIN_LEVELS levels of every side, which no side can stop before, go
to the integrand in one call; after that each call holds the next level of
every side still open.  Each side keeps its own cells, acceptance test,
sub-refinement, tail extrapolation and stopping rule, and the sides reach
the accumulator in a fixed order, so the result does not depend on the
batching.  Only the number of integrand calls does: one per level instead
of one per cell, which matters because the phi-split integrands grade
toward 2m + 2 singular sides and pay a fixed cost per call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .cayley import BoundarySamples, one_plus_cos, theta_of_x
from .errors import NoConvergence, NonIntegrableSingularity

# 15-point Kronrod extension of 7-point Gauss (QUADPACK constants, [-1, 1]).
_KRONROD_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss-7 lives on the odd-index Kronrod nodes.
_GAUSS_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

DEFAULT_TOL = 1e-8
_GRADE_MIN_LEVELS = 8
_GRADE_MAX_LEVELS = 48


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with the engine's error estimate and panel count."""

    value: float
    est_error: float
    panels: int

    def __post_init__(self):
        if self.value < 0 and self.value > -1e-300:
            object.__setattr__(self, "value", 0.0)
        if self.est_error < 0:
            raise ValueError("est_error must be nonnegative")

    def to_report(self) -> dict:
        return {"value": self.value, "est_error": self.est_error, "panels": self.panels}


class _Accumulator:
    """Deterministic pairwise-tree summation of panel contributions."""

    def __init__(self):
        self._terms: list[complex] = []
        self.err = 0.0
        self.panels = 0

    def add(self, value: complex, err: float, panels: int = 1) -> None:
        self._terms.append(value)
        self.err += err
        self.panels += panels

    @property
    def value(self) -> complex:
        return _tree_sum(self._terms)


def _tree_sum(terms):
    items = list(terms)
    if not items:
        return 0.0 + 0.0j
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _panels_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorized K15/G7 on a batch of panels; returns (k15, |k15-g7|)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = c[:, None] + h[:, None] * _KRONROD_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    k15 = h * (vals @ _KRONROD_WEIGHTS)
    g7 = h * (vals[:, 1::2] @ _GAUSS_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _adaptive(f, lo: float, hi: float, tol_abs: float, acc: _Accumulator,
              panel_budget: int = 4096) -> None:
    """Bisection-adaptive GK15 on a smooth interval; results go into acc."""
    k15, err = _panels_eval(f, np.array([lo]), np.array([hi]))
    heap = [(-float(err[0]), 0, lo, hi, complex(k15[0]))]
    counter = 1
    total_err = float(err[0])
    used = 1
    while total_err > tol_abs and heap and used < panel_budget:
        neg_err, _, a, b, val = heapq.heappop(heap)
        parent_err = -neg_err
        m = 0.5 * (a + b)
        if parent_err <= 1e-300 or m <= a or m >= b:
            acc.add(val, parent_err)
            total_err -= parent_err
            continue
        k15, err = _panels_eval(f, np.array([a, m]), np.array([m, b]))
        used += 2
        total_err += float(err.sum()) - parent_err
        heapq.heappush(heap, (-float(err[0]), counter, a, m, complex(k15[0])))
        heapq.heappush(heap, (-float(err[1]), counter + 1, m, b, complex(k15[1])))
        counter += 2
    for neg_err, _, _a, _b, val in heap:
        acc.add(val, -neg_err)


class _GradedSide:
    """Geometric cells from a (possibly) singular point s toward far.

    Cells [s + h 2^-(j+1), s + h 2^-j] shrink toward s; the tail past the last
    cell is extrapolated from the geometric decay ratio of cell integrals.
    The side does not evaluate its cells itself: integrate() collects the
    next cells of every open side into one batch and feeds the results back
    in level order.
    """

    def __init__(self, s: float, far: float, tol_abs: float):
        self.s = s
        self.h = far - s
        self.tol_abs = tol_abs
        self.vals: list[complex] = []
        self.acc = _Accumulator()
        self.tail = 0.0 + 0.0j
        self.tail_err = math.inf
        self.done = self.h == 0.0

    def next_cells(self, levels: int) -> list[tuple[float, float]]:
        """The next (at most) `levels` cells, as increasing (lo, hi) pairs.

        A side with no cells left closes: after a width underflow nothing is
        left past its finest cell; at the level cap it keeps its last tail.
        """
        s, h = self.s, self.h
        out = []
        for j in range(len(self.vals), min(len(self.vals) + levels, _GRADE_MAX_LEVELS)):
            a = s + h * 2.0 ** -(j + 1)
            b = s + h * 2.0 ** -j
            if a == s or a == b:
                break
            out.append((a, b) if h > 0 else (b, a))
        if not out:
            if len(self.vals) < _GRADE_MAX_LEVELS:
                self.tail, self.tail_err = 0.0, 0.0  # width underflow
            self.done = True
        return out

    def feed(self, f, a: float, b: float, k15, err) -> None:
        """Take one cell's GK15 result and apply the stopping rule."""
        tol_abs = self.tol_abs
        # A cell passes below tol_abs/64, or below 1e-3 of its own value while
        # the side's accepted error stays within tol_abs: the relative test
        # alone let such cells add up past the caller's tolerance.
        if err > tol_abs / 64.0 and (err > 1e-3 * abs(k15)
                                     or self.acc.err + err > tol_abs):
            sub = _Accumulator()
            _adaptive(f, a, b, tol_abs / 64.0, sub, panel_budget=1024)
            cell_val, cell_err = sub.value, sub.err
            self.acc.add(cell_val, cell_err, sub.panels)
        else:
            cell_val, cell_err = complex(k15), float(err)
            self.acc.add(cell_val, cell_err)
        vals = self.vals
        vals.append(cell_val)
        j = len(vals)
        if j < _GRADE_MIN_LEVELS or j < 3:
            return
        v2, v1, v0 = vals[-1], vals[-2], vals[-3]
        if abs(v2) <= 1e-305 or abs(v1) <= 1e-305:
            self.tail, self.tail_err = 0.0, abs(v2)
            self.done = True
            return
        r, r_prev = v2 / v1, v1 / v0
        if abs(r) >= 1.05 and abs(r_prev) >= 1.05 and j >= 16:
            raise NoConvergence(
                f"integrand grows toward {self.s!r}; integral appears divergent"
            )
        if abs(r) >= 0.99:
            return  # too close to non-integrable; keep grading
        self.tail = v2 * r / (1.0 - r)
        self.tail_err = abs(self.tail) * (abs(r - r_prev) / abs(1.0 - r) + 1e-12)
        if self.tail_err <= 0.05 * tol_abs or abs(self.tail) <= 1e-300:
            self.done = True

    def add_to(self, acc: _Accumulator) -> None:
        """Add the side's cells plus its extrapolated tail as one term."""
        if self.h == 0.0:
            return
        tail, tail_err = self.tail, self.tail_err
        if not math.isfinite(tail_err):
            tail, tail_err = 0.0, 0.0
        acc.add(self.acc.value + tail, self.acc.err + tail_err, self.acc.panels)


def integrate(f, lo: float, hi: float, singular_points=(), tol: float = DEFAULT_TOL,
              grade_endpoints: bool = False) -> tuple[complex, float, int]:
    """Core engine: integral of vectorized f over [lo, hi].

    singular_points are interior abscissae where f may blow up integrably;
    grade_endpoints additionally treats lo and hi as potential singular points.
    Returns (value, est_error, panels); raises NoConvergence when the error
    estimate stays above 10x the requested tolerance.
    """
    sings = sorted({float(s) for s in singular_points if lo < s < hi})
    merged = []
    for s in sings:
        if not merged or s - merged[-1] > 1e-12 * max(1.0, abs(s)):
            merged.append(s)
    graded_pts = ([lo, hi] if grade_endpoints else []) + merged
    graded_pts = sorted(set(graded_pts))
    edges = sorted({lo, hi, *merged})
    if len(edges) < 2:
        return 0.0 + 0.0j, 0.0, 0
    n_seg = len(edges) - 1

    # coarse scale pass to turn the relative tolerance into an absolute one
    grid = np.linspace(edges[:-1], edges[1:], 9, axis=1)
    d = grid[:, 1:2] - grid[:, 0:1]
    inner = 0.5 * (grid[:, :-1] + grid[:, 1:])  # avoid hitting singular edges
    k15, _ = _panels_eval(f, (inner - 0.2 * d).ravel(), (inner + 0.2 * d).ravel())
    scale_abs = np.abs(k15)
    scale = 0.0
    for i in range(0, scale_abs.size, 8):  # one segment's 8 panels at a time
        scale += float(scale_abs[i:i + 8].sum()) * 2.5  # panels cover 40% of [u, v]
    tol_abs = tol * max(scale, 1e-300)
    seg_tol = tol_abs / n_seg

    # accumulation order: graded sides, and (u, v) for smooth segments
    plan = []
    for u, v in zip(edges[:-1], edges[1:]):
        u_sing = u in graded_pts
        v_sing = v in graded_pts
        if u_sing and v_sing:
            m = 0.5 * (u + v)
            plan += [_GradedSide(u, m, 0.5 * seg_tol), _GradedSide(v, m, 0.5 * seg_tol)]
        elif u_sing:
            plan.append(_GradedSide(u, v, seg_tol))
        elif v_sing:
            plan.append(_GradedSide(v, u, seg_tol))
        else:
            plan.append((u, v))
    sides = [item for item in plan if isinstance(item, _GradedSide)]

    # no side can stop before _GRADE_MIN_LEVELS; then one level at a time
    levels = _GRADE_MIN_LEVELS
    while True:
        batch = [(side, a, b) for side in sides if not side.done
                 for a, b in side.next_cells(levels)]
        if not batch:
            break
        k15, err = _panels_eval(f, np.array([a for _, a, _ in batch]),
                                np.array([b for _, _, b in batch]))
        for (side, a, b), cell_k15, cell_err in zip(batch, k15, err):
            side.feed(f, a, b, cell_k15, cell_err)
        levels = 1

    acc = _Accumulator()
    for item in plan:
        if isinstance(item, _GradedSide):
            item.add_to(acc)
        else:
            _adaptive(f, *item, seg_tol, acc)
    value = acc.value
    if not (math.isfinite(value.real) and math.isfinite(value.imag)
            and math.isfinite(acc.err)):
        raise NoConvergence("integrand is unbounded on the integration path")
    if acc.err > 10.0 * tol * max(abs(value), scale, 1e-300) and acc.err > 1e-14:
        raise NoConvergence(
            f"estimated error {acc.err:.3g} exceeds tolerance for value {value:.6g}"
        )
    return value, acc.err, acc.panels


def line_integral(g, singular_x=(), tol: float = DEFAULT_TOL
                  ) -> tuple[complex, float, int]:
    """integral of g(x) dx over R in the theta chart; returns integrate()'s triple.

    x = tan(theta/2) and dx = dtheta / (1 + cos theta) put infinity at the
    graded endpoints theta = +-pi; singular_x are real points where g may
    blow up integrably or peak, graded at theta(x).
    """

    def integrand(theta):
        theta = np.atleast_1d(theta)
        return np.asarray(g(np.tan(theta / 2.0))) / one_plus_cos(theta)

    return integrate(integrand, -math.pi, math.pi,
                     singular_points=[float(theta_of_x(a)) for a in singular_x],
                     tol=tol, grade_endpoints=True)


def lp_quasinorm_circle(g, p: float, tol: float = DEFAULT_TOL,
                        singular_thetas=()) -> QuadratureResult:
    """integral of |g(theta)|^p over [-pi, pi] by adaptive panels.

    Endpoints are always graded: pullbacks of decaying line functions may
    carry integrable blow-ups at theta = +-pi.
    """
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    ev = g.eval_theta if isinstance(g, BoundarySamples) else g

    def integrand(theta):
        return np.abs(np.asarray(ev(theta), dtype=complex)) ** p

    val, err, panels = integrate(
        integrand, -math.pi, math.pi, singular_points=singular_thetas,
        tol=tol, grade_endpoints=True,
    )
    return QuadratureResult(value=float(val.real), est_error=err, panels=panels)


def lp_quasinorm_line(f, p: float, singularities=(), tol: float = DEFAULT_TOL
                      ) -> QuadratureResult:
    """integral of |f(x)|^p over R via the theta substitution.

    singularities is a list of (location, order) real poles; each must satisfy
    p * order < 1, and is mapped to a graded point theta(location).
    """
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    for a, l in singularities:
        if p * l >= 1.0:
            raise NonIntegrableSingularity(
                f"pole at {a} of order {l}: p*l = {p * l:.6g} >= 1"
            )
    val, err, panels = line_integral(
        lambda x: np.abs(np.asarray(f(x), dtype=complex)) ** p,
        [a for a, _ in singularities], tol)
    return QuadratureResult(value=float(val.real), est_error=err, panels=panels)


def line_norm_at_height(f, p: float, y: float, tol: float = DEFAULT_TOL
                        ) -> QuadratureResult:
    """integral of |f(x + iy)|^p dx for y > 0 (interior line norm)."""
    if y <= 0:
        raise ValueError(f"height must be positive, got {y}")
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    val, err, panels = line_integral(
        lambda x: np.abs(np.asarray(f(x + 1j * y), dtype=complex)) ** p, tol=tol)
    return QuadratureResult(value=float(val.real), est_error=err, panels=panels)


def lp_quasinorm_window(f, p: float, window: float, singularities=(),
                        tol: float = DEFAULT_TOL) -> QuadratureResult:
    """integral of |f|^p over [-window, window]; used for divergence trends."""
    if window <= 0:
        raise ValueError("window must be positive")

    def integrand(x):
        return np.abs(np.asarray(f(np.atleast_1d(x)), dtype=complex)) ** p

    sings = [float(a) for a, _ in singularities]
    val, err, panels = integrate(
        integrand, -window, window, singular_points=sings, tol=tol,
        grade_endpoints=False,
    )
    return QuadratureResult(value=float(val.real), est_error=err, panels=panels)
