"""L^p quasi-norms on line and circle by adaptive Gauss-Kronrod and Gauss-Jacobi panels.

Line integrals go through one routine, line_integral, which pushes them
onto [-pi, pi] through x = tan(theta/2), dx = dtheta / (1 + cos theta), so
the point at infinity becomes the ordinary endpoint theta = +-pi.

integrate() treats a singular point in one of two ways.

Declared exponents: the caller states f ~ |theta - t|^a at each point t
(a > -1), as the split does for J(phi) (-p at the denominator roots) and
for an atom with zero order k (k p - 2 at theta = +-pi), through Declared
circle functions.  The points cut the interval into panels (none starting
wider than 1/16 of it), and a panel touching one is integrated by a
Gauss-Jacobi rule for the weight |s|^a at that end (Golub-Welsch, built on
first use and cached), with the offset s taken from the reference node.  A
16/24-node rule pair estimates the error; a panel that misses its share of
the tolerance is bisected, its regular child going to the sweep refiner
below.  Nothing is graded or extrapolated.

Graded sides: every undeclared singular point, and the interval endpoints
when asked, gets a geometric mesh (ratio 1/2); the remaining mass past the
finest cell is extrapolated from the observed cell-to-cell decay ratio,
which is exact for pure power behaviour |t - s|^(-q).  Callables and
samples take this path.  Integrand calls carry a fixed cost, so the sides
of one integral advance as a level wavefront: one call holds the first
_GRADE_MIN_LEVELS levels of every side (none can stop sooner), each later
call the next _GRADE_LEVELS_PER_CALL levels of every open side; cells past
a side's stop are discarded unfed.

The cells of a batch that fail their side's acceptance test, smooth
segments and regular children go to _refine: globally adaptive GK15
(QUADPACK's scheme) run a sweep at a time, one integrand call per sweep for
all its intervals.  Results do not depend on the batching, only the call
count does: each side keeps its own cells, tail extrapolation and stopping
rule, and its acceptance test charges a rejected cell its refinement
target, not the error refinement reaches; refined panels are summed per
cell; and sides and panels reach the accumulator in a fixed order.
"""

from __future__ import annotations

import functools
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
# Gauss-Jacobi panels at declared exponents: the larger rule gives the value,
# its difference from the smaller the error estimate
_JACOBI_ORDERS = (16, 24)
_DECLARED_LEVELS = 20
_DECLARED_BUDGET = 1024
_DECLARED_MIN_PANELS = 16


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
              grade_endpoints: bool = False, declared=()) -> tuple[complex, float, int]:
    """Core engine: integral of vectorized f over [lo, hi].

    singular_points are interior abscissae where f may blow up integrably;
    grade_endpoints additionally treats lo and hi as potential singular points.
    declared holds (point, exponent) pairs, f ~ |theta - point|^exponent with
    exponent > -1 (exponents given twice at one point add); when given, its
    points are the only singular ones (each singular point must be among
    them) and they get Gauss-Jacobi panels.
    Returns (value, est_error, panels); raises NoConvergence when the error
    estimate stays above 10x the requested tolerance.
    """
    exps = {}
    for t, a in declared:
        if lo <= t <= hi:
            exps[float(t)] = exps.get(float(t), 0.0) + float(a)
    if exps:
        undeclared = [s for s in singular_points if lo < s < hi and float(s) not in exps]
        if grade_endpoints or undeclared:
            raise ValueError("a declared integral cannot also grade undeclared points")
        for t, a in exps.items():
            if a <= -1.0:
                raise NonIntegrableSingularity(f"exponent {a:.6g} <= -1 at {t!r}")
        return _declared_integral(f, lo, hi, exps, tol)
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
    return _checked(acc, tol, scale)


def _checked(acc: _Accumulator, tol: float, scale: float) -> tuple[complex, float, int]:
    """The accumulated (value, err, panels), or NoConvergence past 10x tol."""
    value = acc.value
    if not (math.isfinite(value.real) and math.isfinite(value.imag)
            and math.isfinite(acc.err)):
        raise NoConvergence("integrand is unbounded on the integration path")
    if acc.err > 10.0 * tol * max(abs(value), scale, 1e-300) and acc.err > 1e-14:
        raise NoConvergence(
            f"estimated error {acc.err:.3g} exceeds tolerance for value {value:.6g}"
        )
    return value, acc.err, acc.panels


def _gauss_jacobi(n: int, a: float, b: float):
    """n-node Gauss rule (x, w) for the weight (1-x)^a (1+x)^b on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the weight's Jacobi
    matrix, the weights mu0 times the squared first components of its
    eigenvectors.  alpha_0 and beta_1 are written in cancelled form, since the
    textbook recurrence divides 0/0 at a + b = 0 and a + b = -1.
    """
    ab = a + b
    j = np.arange(1.0, n)
    alpha = np.empty(n)
    alpha[0] = (b - a) / (ab + 2.0)
    alpha[1:] = (b * b - a * a) / ((2.0 * j + ab) * (2.0 * j + ab + 2.0))
    beta = np.empty(n - 1)
    beta[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((ab + 2.0) ** 2 * (ab + 3.0))
    j = j[1:]
    beta[1:] = (4.0 * j * (j + a) * (j + b) * (j + ab)
                / ((2.0 * j + ab) ** 2 * (2.0 * j + ab + 1.0) * (2.0 * j + ab - 1.0)))
    off = np.sqrt(beta)
    x, vec = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp((ab + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(ab + 2.0))
    return x, mu0 * vec[0] ** 2


@functools.lru_cache(maxsize=64)
def _jacobi_pair(a: float, b: float):
    """The _JACOBI_ORDERS rules for (1-x)^a (1+x)^b, merged for one panel.

    Returns (offset, left, W) over the nodes of both rules: a node lies at
    u + h * offset from the panel's left end u where left holds, and at
    v - h * offset from its right end v elsewhere (h the half-width), so
    offset is 1 + x or 1 - x, whichever is smaller.  W's columns are each
    rule's weights divided by the weight function at the nodes (zero off
    that rule), so f(x) @ W integrates f by both rules.  The rule for a > b
    is the mirror image x -> -x of the one for (b, a).
    """
    if a > b:
        offset, left, W = _jacobi_pair(b, a)
        return offset[::-1], ~left[::-1], W[::-1]
    rules = [_gauss_jacobi(n, a, b) for n in _JACOBI_ORDERS]
    x = np.concatenate([x for x, _ in rules])
    W = np.zeros((x.size, len(rules)))
    start = 0
    for col, (_, w) in enumerate(rules):
        W[start:start + w.size, col] = w
        start += w.size
    W /= ((1.0 - x) ** a * (1.0 + x) ** b)[:, None]
    left = x <= 0.0
    out = (np.where(left, 1.0 + x, 1.0 - x), left, W)
    for arr in out:  # cached and shared by every caller
        arr.flags.writeable = False
    return out


def _declared_integral(f, lo: float, hi: float, exps: dict, tol: float
                       ) -> tuple[complex, float, int]:
    """integrate() for declared exponents exps = {point: exponent}, not empty.

    The declared points cut [lo, hi] into segments, each cut evenly into
    panels no wider than 1/_DECLARED_MIN_PANELS of the interval: a rule pair
    resolves a few oscillations, and bisecting down from one wide panel
    would cost an integrand call per halving.  A panel touching a point is
    integrated by the Gauss-Jacobi pair for its end exponents; each node's
    offset from the panel end comes from the reference node, so the weight
    divided out matches the node exactly.  A round sends all such panels to
    f in one call, with the GK15 nodes of the last round's regular children;
    the first round's absolute values set the scale.  A panel's share of the
    tolerance is the mean of its shares of the width and of the scale (mass
    crowds toward an exponent near -1).  A panel whose two-rule difference
    exceeds its share is bisected: the child at a declared point stays a
    Gauss-Jacobi panel, the other goes to _refine.  Past _DECLARED_LEVELS
    bisections of a panel, or _DECLARED_BUDGET panels in all, nothing is
    bisected and the error check decides: deeper down, the rounding of theta
    swamps the node offsets.
    """
    points = np.array(sorted({lo, hi, *exps}))
    if points.size < 2:
        return 0.0 + 0.0j, 0.0, 0
    width = hi - lo
    # cut segment i evenly into k[i] panels
    k = np.ceil(_DECLARED_MIN_PANELS * np.diff(points) / width).astype(int)
    seg = np.repeat(np.arange(k.size), k)
    j = np.arange(seg.size) - np.repeat(np.cumsum(k) - k, k)
    edges = np.append(points[seg] + (points[seg + 1] - points[seg]) * (j / k[seg]), hi)
    declared = np.array([t in exps for t in edges.tolist()])
    ends = np.array([exps.get(t, 0.0) for t in edges.tolist()])
    # panels [u, v] with exponents eu, ev at their ends, declared or not (du, dv)
    u, v, eu, ev = edges[:-1], edges[1:], ends[:-1], ends[1:]
    du, dv = declared[:-1], declared[1:]
    level = np.zeros(u.size, dtype=int)
    budget = max(_DECLARED_BUDGET, 2 * u.size)
    used, scale = 0, None
    done, jobs = [], []  # accepted (u, value, err) arrays; _refine jobs
    while u.size:
        jac = du | dv
        u_r, v_r = u[~jac], v[~jac]
        u, v, eu, ev, du, dv, level = (x[jac] for x in (u, v, eu, ev, du, dv, level))
        # each panel's rule pair, looked up once per distinct end exponents
        keys = list(zip(ev.tolist(), eu.tolist()))
        table = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        offset, left, W = (np.stack(r) for r in zip(*(_jacobi_pair(*key) for key in table)))
        pick = np.array([table[key] for key in keys], dtype=int)
        offset, left, W = offset[pick], left[pick], W[pick]
        h = 0.5 * (v - u)[:, None]
        c_r, h_r = 0.5 * (u_r + v_r), 0.5 * (v_r - u_r)
        vals = np.asarray(f(np.concatenate([
            (np.where(left, u[:, None], v[:, None]) + np.where(left, h, -h) * offset).ravel(),
            (c_r[:, None] + h_r[:, None] * _KRONROD_NODES[None, :]).ravel()])), dtype=complex)

        est = h * np.einsum("pn,pnc->pc", vals[:offset.size].reshape(offset.shape), W)
        rv = vals[offset.size:].reshape(c_r.size, _KRONROD_NODES.size)
        k15 = h_r * (rv @ _KRONROD_WEIGHTS)
        k_err = np.abs(k15 - h_r * (rv[:, 1::2] @ _GAUSS_WEIGHTS))
        if scale is None:
            scale = float(np.abs(est[:, -1]).sum() + np.abs(k15).sum())
        share = 0.5 * tol * (scale * (v_r - u_r) / width + np.abs(k15))
        jobs += zip(*(x.tolist() for x in (u_r, v_r, k15, k_err, share)))

        value, err = est[:, -1], np.abs(est[:, -1] - est[:, 0])
        mid = 0.5 * (u + v)
        share = 0.5 * tol * (scale * (v - u) / width + np.abs(value))
        split = (err > share) & (level < _DECLARED_LEVELS) & (u < mid) & (mid < v)
        used += u.size
        split &= np.cumsum(split) <= (budget - used) // 2
        done.append((u[~split], value[~split], err[~split]))
        zero, no = np.zeros(int(split.sum())), np.zeros(int(split.sum()), dtype=bool)
        u, v = np.concatenate([u[split], mid[split]]), np.concatenate([mid[split], v[split]])
        eu, ev = np.concatenate([eu[split], zero]), np.concatenate([zero, ev[split]])
        du, dv = np.concatenate([du[split], no]), np.concatenate([no, dv[split]])
        level = np.concatenate([level[split], level[split]]) + 1

    terms = [(a, val, e, 1) for part in done for a, val, e in zip(*(x.tolist() for x in part))]
    # the regular children share 8 * _DECLARED_BUDGET panels, 64 to 1024 each
    each = min(1024, max(64, 8 * _DECLARED_BUDGET // max(len(jobs), 1)))
    jobs = [(*job, each) for job in jobs]
    terms += [(job[0], *res) for job, res in zip(jobs, _refine(f, jobs))]
    acc = _Accumulator()
    for _, value, err, n in sorted(terms, key=lambda term: term[0]):
        acc.add(value, err, n)
    return _checked(acc, tol, scale)


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


@dataclass(frozen=True)
class Declared:
    """A circle function g with declared orders: |g| ~ c |theta - t|^order at each (t, order).

    lp_quasinorm_circle integrates |g|^p with exponent p * order at each t,
    and takes every point that orders does not name, theta = +-pi included,
    as regular.  With no orders, g is integrated like any callable.
    """

    g: object
    orders: tuple

    def __call__(self, theta):
        return self.g(theta)


def lp_quasinorm_circle(g, p: float, tol: float = DEFAULT_TOL,
                        singular_thetas=()) -> QuadratureResult:
    """integral of |g(theta)|^p over [-pi, pi] by adaptive panels.

    Endpoints are graded: pullbacks of decaying line functions may carry
    integrable blow-ups at theta = +-pi.  A Declared g gets Gauss-Jacobi
    panels at its declared points instead, and singular_thetas must be among
    them.
    """
    if isinstance(g, Declared) and g.orders:
        return _result(integrate(_abs_p(g.g, p), -math.pi, math.pi,
                                 singular_points=singular_thetas, tol=tol,
                                 declared=[(t, p * order) for t, order in g.orders]))
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
