"""Out-of-tree tracer: wraps the library's public functions from outside.

The tracer replaces module attributes (and a few methods) of the
``hardysplit`` package with timing wrappers and puts the originals back
afterwards, so the library source is never edited.  A function imported by
name into another module (``from .quadrature import integrate``) is a
separate attribute there, so every module attribute that *is* the original
object gets the wrapper.

Each wrapped call records a span ``(name, start, end, parent, op)`` in
memory; counts that a span alone cannot give (integrand batches and points,
panels, bytes written, points evaluated) are added at the same boundary.
``layer_metrics`` folds spans and counts into the per-layer metrics, all
normalised per operation so that runs of different length compare.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs; "Class.method" patches the class attribute.
TARGETS = (
    ("quadrature", "integrate"),
    ("quadrature", "lp_quasinorm_circle"),
    ("quadrature", "lp_quasinorm_line"),
    ("quadrature", "line_norm_at_height"),
    ("approx", "rational_sequence"),
    ("approx", "TrigPolynomial.eval"),
    ("approx", "WeierstrassPlan.q_eval"),
    ("split", "decompose"),
    ("split", "split_atom"),
    ("split", "real_pole_blend"),
    ("split", "poisson_recovery"),
    ("rational", "to_general"),
    ("rational", "certify_lp"),
    ("rational", "LaurentRational.eval_w"),
    ("hardy", "poisson_extend"),
    ("hardy", "cauchy_integral"),
    ("hardy", "line_profile"),
    ("spectral", "dft_line"),
    ("spectral", "build_F"),
    ("spectral", "laplace_reconstruct"),
    ("spectral", "spectrum_support_test"),
    ("serialize", "to_json"),
)

LAYERS = ("quadrature", "approx", "split", "rational", "hardy", "spectral",
          "serialize")

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("quadrature.integrate.calls", "count/op", "lower"),
    ("quadrature.integrate.panels", "count/op", "lower"),
    ("quadrature.integrate.batches", "count/op", "lower"),
    ("quadrature.integrate.evals", "count/op", "lower"),
    ("quadrature.integrate.self_s", "s/op", "lower"),
    ("quadrature.integrate.integrand_s", "s/op", "lower"),
    ("quadrature.integrate.us_per_eval", "us", "lower"),
    ("quadrature.integrate.failures", "count/op", "lower"),
    ("approx.rational_sequence.s", "s/op", "lower"),
    ("approx.trig_eval.calls", "count/op", "lower"),
    ("approx.trig_eval.points", "count/op", "lower"),
    ("approx.trig_eval.s", "s/op", "lower"),
    ("approx.trig_eval.mpts_per_s", "Mpts/s", "higher"),
    ("approx.q_eval.s", "s/op", "lower"),
    ("split.split_atom.calls", "count/op", "lower"),
    ("split.split_atom.s", "s/op", "lower"),
    ("split.split_atom.self_s", "s/op", "lower"),
    ("split.split_atom.quad_per_atom", "count", "lower"),
    ("split.split_atom.failures", "count/op", "lower"),
    ("split.phi_scan.useful_ratio", "ratio", "higher"),
    ("split.real_pole_blend.calls", "count/op", "lower"),
    ("split.real_pole_blend.s", "s/op", "lower"),
    ("split.real_pole_blend.failures", "count/op", "lower"),
    ("split.poisson_recovery.s", "s/op", "lower"),
    ("rational.to_general.calls", "count/op", "lower"),
    ("rational.to_general.s", "s/op", "lower"),
    ("rational.certify_lp.calls", "count/op", "lower"),
    ("rational.eval_w.points", "count/op", "lower"),
    ("rational.eval_w.s", "s/op", "lower"),
    ("hardy.poisson_extend.calls", "count/op", "lower"),
    ("hardy.poisson_extend.s", "s/op", "lower"),
    ("hardy.cauchy_integral.calls", "count/op", "lower"),
    ("hardy.cauchy_integral.s", "s/op", "lower"),
    ("hardy.line_profile.calls", "count/op", "lower"),
    ("hardy.line_profile.s", "s/op", "lower"),
    ("spectral.dft_line.calls", "count/op", "lower"),
    ("spectral.dft_line.s", "s/op", "lower"),
    ("spectral.build_F.calls", "count/op", "lower"),
    ("spectral.build_F.s", "s/op", "lower"),
    ("spectral.laplace_reconstruct.calls", "count/op", "lower"),
    ("spectral.laplace_reconstruct.s", "s/op", "lower"),
    ("spectral.fft_points", "count/op", "lower"),
    ("serialize.to_json.calls", "count/op", "lower"),
    ("serialize.to_json.s", "s/op", "lower"),
    ("serialize.to_json.bytes", "B/op", "lower"),
    *((f"{layer}.failures", "count/op", "lower") for layer in LAYERS),
    ("check.failures", "count/op", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Short metric prefix for each traced attribute.
_ALIAS = {
    "approx.TrigPolynomial.eval": "approx.trig_eval",
    "approx.WeierstrassPlan.q_eval": "approx.q_eval",
    "rational.LaurentRational.eval_w": "rational.eval_w",
}

_PKG = "hardysplit"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == _PKG or name.startswith(_PKG + "."))]


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Spans and counters for one run; install() wraps, restore() unwraps."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name_id, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (holder, attribute, original)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr in TARGETS:
            module = importlib.import_module(f"{_PKG}.{mod_name}")
            name = _ALIAS.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        self.active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counts = self.counts
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs, after = hook(counts, args, kwargs)
            else:
                after = None
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failures"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (nid, start, end, parent, self.op)
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- reduction ---------------------------------------------------------
    def layer_metrics(self, n_ops: int, useful_quads: int) -> dict:
        """Per-layer metrics (see LAYER_METRICS) over the traced operations."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        quads_in_scan = 0
        scan_ids = {self._name_ids["split.split_atom"],
                    self._name_ids["split.real_pole_blend"]}
        integrate_id = self._name_ids["quadrature.integrate"]
        split_id = self._name_ids["split.split_atom"]
        quads_in_split = 0
        spans = self.spans
        for nid, start, end, parent, _op in spans:
            dur = end - start
            total[nid] += dur
            calls[nid] += 1
            if parent >= 0:
                child[parent] += dur
        split_self = 0.0
        for idx, (nid, start, end, parent, _op) in enumerate(spans):
            if nid == split_id:
                split_self += (end - start) - child[idx]
            if nid == integrate_id:
                anc = parent
                while anc >= 0 and spans[anc][0] not in scan_ids:
                    anc = spans[anc][3]
                if anc >= 0:
                    quads_in_scan += 1
                    if spans[anc][0] == split_id:
                        quads_in_split += 1

        def s(name):
            return total[self._name_ids[name]]

        def c(name):
            return calls[self._name_ids[name]]

        ops = max(n_ops, 1)
        cnt = self.counts
        evals = cnt["quadrature.integrate.evals"]
        integrand_s = cnt["quadrature.integrate.integrand_s"]
        trig_s = s("approx.trig_eval")
        out = {
            "quadrature.integrate.calls": c("quadrature.integrate") / ops,
            "quadrature.integrate.panels": cnt["quadrature.integrate.panels"] / ops,
            "quadrature.integrate.batches": cnt["quadrature.integrate.batches"] / ops,
            "quadrature.integrate.evals": evals / ops,
            "quadrature.integrate.self_s":
                (s("quadrature.integrate") - integrand_s) / ops,
            "quadrature.integrate.integrand_s": integrand_s / ops,
            "quadrature.integrate.us_per_eval":
                1e6 * s("quadrature.integrate") / evals if evals else 0.0,
            "quadrature.integrate.failures":
                cnt["quadrature.integrate.failures"] / ops,
            "approx.rational_sequence.s": s("approx.rational_sequence") / ops,
            "approx.trig_eval.calls": c("approx.trig_eval") / ops,
            "approx.trig_eval.points": cnt["approx.trig_eval.points"] / ops,
            "approx.trig_eval.s": trig_s / ops,
            "approx.trig_eval.mpts_per_s":
                cnt["approx.trig_eval.points"] / trig_s / 1e6 if trig_s else 0.0,
            "approx.q_eval.s": s("approx.q_eval") / ops,
            "split.split_atom.calls": c("split.split_atom") / ops,
            "split.split_atom.s": s("split.split_atom") / ops,
            "split.split_atom.self_s": split_self / ops,
            "split.split_atom.quad_per_atom":
                quads_in_split / c("split.split_atom") if c("split.split_atom") else 0.0,
            "split.split_atom.failures": cnt["split.split_atom.failures"] / ops,
            "split.phi_scan.useful_ratio":
                useful_quads / quads_in_scan if quads_in_scan else 0.0,
            "split.real_pole_blend.calls": c("split.real_pole_blend") / ops,
            "split.real_pole_blend.s": s("split.real_pole_blend") / ops,
            "split.real_pole_blend.failures":
                cnt["split.real_pole_blend.failures"] / ops,
            "split.poisson_recovery.s": s("split.poisson_recovery") / ops,
            "rational.to_general.calls": c("rational.to_general") / ops,
            "rational.to_general.s": s("rational.to_general") / ops,
            "rational.certify_lp.calls": c("rational.certify_lp") / ops,
            "rational.eval_w.points": cnt["rational.eval_w.points"] / ops,
            "rational.eval_w.s": s("rational.eval_w") / ops,
            "spectral.fft_points": cnt["spectral.fft_points"] / ops,
            "serialize.to_json.calls": c("serialize.to_json") / ops,
            "serialize.to_json.s": s("serialize.to_json") / ops,
            "serialize.to_json.bytes": cnt["serialize.to_json.bytes"] / ops,
        }
        for fn in ("hardy.poisson_extend", "hardy.cauchy_integral",
                   "hardy.line_profile", "spectral.dft_line", "spectral.build_F",
                   "spectral.laplace_reconstruct"):
            out[f"{fn}.calls"] = c(fn) / ops
            out[f"{fn}.s"] = s(fn) / ops
        return out

    def write(self, path, extra: dict) -> None:
        """Write spans (compact rows) and counters to a JSON file."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["span_names"] = self.names
        doc["spans"] = [
            [nid, round(a - origin, 7), round(b - origin, 7), parent, op]
            for nid, a, b, parent, op in self.spans
        ]
        doc["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- hooks: counts only visible at the call boundary --------------------------

def _hook_integrate(counts, args, kwargs):
    f = args[0]

    def counted(x):
        counts["quadrature.integrate.batches"] += 1
        counts["quadrature.integrate.evals"] += _size(x)
        t0 = time.perf_counter()
        try:
            return f(x)
        finally:
            counts["quadrature.integrate.integrand_s"] += time.perf_counter() - t0

    def after(out):
        counts["quadrature.integrate.panels"] += out[2]

    return (counted, *args[1:]), kwargs, after


def _hook_points(key):
    def hook(counts, args, kwargs):
        counts[key] += _size(args[1])
        return args, kwargs, None

    return hook


def _hook_to_json(counts, args, kwargs):
    def after(out):
        counts["serialize.to_json.bytes"] += len(out)

    return args, kwargs, after


def _hook_fft_points(counts, args, kwargs):
    def after(out):  # a SpectrumProfile, or an FProfile with one FFT per delta
        counts["spectral.fft_points"] += out.n * len(getattr(out, "delta_list", (0,)))

    return args, kwargs, after


_HOOKS = {
    "quadrature.integrate": _hook_integrate,
    "approx.trig_eval": _hook_points("approx.trig_eval.points"),
    "rational.eval_w": _hook_points("rational.eval_w.points"),
    "serialize.to_json": _hook_to_json,
    "spectral.dft_line": _hook_fft_points,
    "spectral.build_F": _hook_fft_points,
}
