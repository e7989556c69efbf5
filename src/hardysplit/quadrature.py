"""L^p quasi-norms on the line and circle via adaptive Gauss-Kronrod panels.

Line integrals go through one routine, line_integral, which pushes them
onto [-pi, pi] through x = tan(theta/2), dx = dtheta / (1 + cos theta), so
the point at infinity becomes the ordinary endpoint theta = +-pi.  Declared
integrable singularities (p * order < 1) and the interval endpoints get
graded geometric meshes (ratio 1/2); the remaining mass past the finest cell
is extrapolated from the observed cell-to-cell decay ratio, which is exact
for pure power behaviour |t - s|^(-q).

Integrand calls carry a fixed cost (the phi-split integrands grade toward
2m + 2 singular sides), so calls are batched.  A graded side is an endpoint
or one side of a singular point.  The sides of one integral advance as a
level wavefront: one call holds the first _GRADE_MIN_LEVELS levels of every
side (none can stop sooner), each later call the next _GRADE_LEVELS_PER_CALL
levels of every open side; cells past a side's stop are discarded unfed.
The cells of a batch that fail their side's acceptance test, and all smooth
segments, go to _refine: globally adaptive GK15 (QUADPACK's scheme) run a
sweep at a time, one integrand call per sweep for all its intervals.

Results do not depend on the batching, only the call count does: each side
keeps its own cells, tail extrapolation and stopping rule, and its
acceptance test charges a rejected cell its refinement target, not the
error refinement reaches; refined panels are summed per cell; and the sides
reach the accumulator in a fixed order.
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
_GRADE_LEVELS_PER_CALL = 4
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


def _refine(f, jobs) -> list[tuple[complex, float, int]]:
    """Globally adaptive GK15 on smooth intervals, run a sweep at a time.

    A job is (lo, hi, k15, err, tol_abs, panel_budget): an interval with its
    GK15 result.  Each sweep, every open job pops its largest-error panels
    until their errors cover its excess over tol_abs, and the children of all
    jobs go to the integrand in one call.  A job closes within tol_abs, at
    panel_budget panels, or when no panel can be bisected.  Returns (value,
    err, panels) per job, each summed in its own heap order.
    """
    # per job: [heap of (-err, counter, a, b, k15), unsplittable panels,
    #           open error, panels used, tol_abs, panel_budget]
    states = [[[(-err, 0, a, b, k15)], [], err, 1, tol, budget]
              for a, b, k15, err, tol, budget in jobs]
    active = [st for st in states if st[2] > st[4]]
    while active:
        los, his, popped = [], [], []
        for st in active:
            heap, chosen, covered = st[0], [], 0.0
            while heap and st[2] - covered > st[4] and st[3] < st[5]:
                panel = heapq.heappop(heap)
                a, b = panel[2], panel[3]
                m = 0.5 * (a + b)
                if -panel[0] <= 1e-300 or m <= a or m >= b:
                    st[1].append(panel)
                    st[2] += panel[0]
                    continue
                chosen.append((panel[0], st[3]))  # children's counters: used, used + 1
                covered -= panel[0]
                st[3] += 2
                los += (a, m)
                his += (m, b)
            popped.append(chosen)
        if not los:
            break
        k15, err = _panels_eval(f, np.array(los), np.array(his))
        kids = zip(err.tolist(), los, his, k15.tolist())
        for st, chosen in zip(active, popped):
            for (neg_err, n), (e0, *left), (e1, *right) in zip(chosen, kids, kids):
                st[2] += e0 + e1 + neg_err
                heapq.heappush(st[0], (-e0, n, *left))
                heapq.heappush(st[0], (-e1, n + 1, *right))
        active = [st for st, chosen in zip(active, popped)
                  if chosen and st[2] > st[4] and st[3] < st[5]]
    return [(_tree_sum(panel[4] for panel in st[1] + st[0]),
             sum(-panel[0] for panel in st[1] + st[0]), len(st[1]) + len(st[0]))
            for st in states]


class _GradedSide:
    """Geometric cells from a (possibly) singular point s toward far.

    Cells [s + h 2^-(j+1), s + h 2^-j] shrink toward s; the tail past the last
    cell is extrapolated from the geometric decay ratio of cell integrals.
    integrate() evaluates the cells of all open sides in one batch, refines
    the ones accepts() rejects together, and feeds the results back in level
    order; cells of a batch past the level where the side stops are never
    fed, and count nowhere.  accepts() charges an accepted cell its raw GK15
    error and a rejected one its target tol_abs/64, so a cell's fate depends
    only on the cells before it on its own side.
    """

    def __init__(self, s: float, far: float, tol_abs: float):
        self.s = s
        self.h = far - s
        self.tol_abs = tol_abs
        self.charged = 0.0
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

    def accepts(self, k15: complex, err: float) -> bool:
        """Acceptance test for the side's next cell, in level order."""
        tol_abs = self.tol_abs
        # A cell passes below tol_abs/64, or below 1e-3 of its own value while
        # the side's charged error stays within tol_abs: the relative test
        # alone let such cells add up past the caller's tolerance.
        ok = not (err > tol_abs / 64.0 and (err > 1e-3 * abs(k15)
                                            or self.charged + err > tol_abs))
        self.charged += err if ok else tol_abs / 64.0
        return ok

    def feed(self, cell_val: complex, cell_err: float, panels: int = 1) -> None:
        """Take one cell's (accepted or refined) result; apply the stopping rule."""
        self.acc.add(cell_val, cell_err, panels)
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
        if self.tail_err <= 0.05 * self.tol_abs or abs(self.tail) <= 1e-300:
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

    # no side can stop before _GRADE_MIN_LEVELS; then a few levels a call
    levels = _GRADE_MIN_LEVELS
    while True:
        batch = [(side, a, b) for side in sides if not side.done
                 for a, b in side.next_cells(levels)]
        if not batch:
            break
        k15, err = _panels_eval(f, *np.array([item[1:] for item in batch]).T)
        cells = list(zip(k15.tolist(), err.tolist()))
        rejected = [i for i, (side, _, _) in enumerate(batch) if not side.accepts(*cells[i])]
        jobs = [(*batch[i][1:], *cells[i], batch[i][0].tol_abs / 64.0, 1024) for i in rejected]
        for i, cell in zip(rejected, _refine(f, jobs)):
            cells[i] = cell
        for (side, _, _), cell in zip(batch, cells):
            if not side.done:
                side.feed(*cell)
        levels = _GRADE_LEVELS_PER_CALL

    smooth = [item for item in plan if not isinstance(item, _GradedSide)]
    if smooth:
        k15, err = _panels_eval(f, *np.array(smooth).T)
        refined = iter(_refine(f, [(u, v, k, e, seg_tol, 4096) for (u, v), k, e
                                   in zip(smooth, k15.tolist(), err.tolist())]))
    acc = _Accumulator()
    for item in plan:
        if isinstance(item, _GradedSide):
            item.add_to(acc)
        else:
            acc.add(*next(refined))
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


def _abs_p(f, p: float):
    """The integrand x -> |f(x)|^p of an L^p quasi-norm, 0 < p <= 2."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    return lambda x: np.abs(np.asarray(f(x), dtype=complex)) ** p


def _result(triple) -> QuadratureResult:
    val, err, panels = triple
    return QuadratureResult(value=float(val.real), est_error=err, panels=panels)


def lp_quasinorm_circle(g, p: float, tol: float = DEFAULT_TOL,
                        singular_thetas=()) -> QuadratureResult:
    """integral of |g(theta)|^p over [-pi, pi] by adaptive panels.

    Endpoints are always graded: pullbacks of decaying line functions may
    carry integrable blow-ups at theta = +-pi.
    """
    integrand = _abs_p(g.eval_theta if isinstance(g, BoundarySamples) else g, p)
    return _result(integrate(integrand, -math.pi, math.pi, singular_points=singular_thetas,
                             tol=tol, grade_endpoints=True))


def lp_quasinorm_line(f, p: float, singularities=(), tol: float = DEFAULT_TOL
                      ) -> QuadratureResult:
    """integral of |f(x)|^p over R via the theta substitution.

    singularities is a list of (location, order) real poles; each must satisfy
    p * order < 1, and is mapped to a graded point theta(location).
    """
    integrand = _abs_p(f, p)
    for a, l in singularities:
        if p * l >= 1.0:
            raise NonIntegrableSingularity(
                f"pole at {a} of order {l}: p*l = {p * l:.6g} >= 1"
            )
    return _result(line_integral(integrand, [a for a, _ in singularities], tol))


def line_norm_at_height(f, p: float, y: float, tol: float = DEFAULT_TOL
                        ) -> QuadratureResult:
    """integral of |f(x + iy)|^p dx for y > 0 (interior line norm)."""
    if y <= 0:
        raise ValueError(f"height must be positive, got {y}")
    return _result(line_integral(_abs_p(lambda x: f(x + 1j * y), p), tol=tol))


def lp_quasinorm_window(f, p: float, window: float, singularities=(),
                        tol: float = DEFAULT_TOL) -> QuadratureResult:
    """integral of |f|^p over [-window, window]; used for divergence trends."""
    if window <= 0:
        raise ValueError("window must be positive")
    return _result(integrate(_abs_p(f, p), -window, window,
                             singular_points=[float(a) for a, _ in singularities], tol=tol))
