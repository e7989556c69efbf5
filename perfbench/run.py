"""hardysplit benchmark: one closed-loop client, four seeded workloads.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

One client issues one operation at a time, in-process, against the library
in ``src/`` of the checkout this file sits in.  Operations are drawn in
whole rounds (see workloads.py); a run holds the number of rounds that
takes ``--seconds`` on the reference machine, so the same seed and
``--seconds`` always give the same operations.  Each operation's output is
checked outside the timed region.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, and with ``--trace 1`` the per-layer metrics of
a traced run plus the tracing overhead.  Details, spans and the machine description go to
``.bench_out/<workload>-seed<n>-trace<k>.json``.  ``--workload all`` runs
every workload in turn, each in its own process.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is first imported.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
TAIL_MIN_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s", "ok_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "fail_ratio": "ratio", "peak_rss_mb": "MB", "bound_use_max": "ratio",
    "rel_err_max": "ratio",
}
# End-to-end metrics gated by BENCHMARK.json.  The other five are printed
# and written out but not gated: fail_ratio, bound_use_max and rel_err_max
# can be 0 or undefined on some workloads.  ok_per_s and op_tail_s move with
# which of a run's seeded inputs hit a library failure: today that spreads
# ok_per_s by 7-14% between seeds on atoms, samples and decompose, and on
# decompose (3-5 successes a run, so the tail is their maximum) op_tail_s
# by 13%, whenever a slow p ~ 0.95 input happens to succeed.
GATED = ("setup_s", "op_p50_s", "peak_rss_mb")

_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [sys.argv[2], sys.argv[3]]
import numpy as np
import workloads
workloads.make_round(sys.argv[1], np.random.default_rng(int(sys.argv[4])), 0)
print(time.perf_counter() - t0)
"""


def _library_path() -> None:
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "hardysplit" / "__init__.py").is_file():
        sys.exit(f"error: no hardysplit sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of importing the library and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, workload, str(SRC), str(BENCH_DIR),
             str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def raising_layer(exc: BaseException) -> str:
    """Module of the innermost public library call on the traceback."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        mod = frame.f_globals.get("__name__", "")
        qual = frame.f_code.co_qualname
        if (mod.startswith("hardysplit.") and "<locals>" not in qual
                and not any(part.startswith("_") for part in qual.split("."))):
            layer = mod.split(".", 1)[1]
        tb = tb.tb_next
    return layer


def closed_loop(workload: str, seed: int, seconds: float, tracer=None,
                tiny: bool = False) -> dict:
    """Run the rounds that `seconds` buys on the reference machine; check outputs."""
    import numpy as np
    import workloads

    rng = np.random.default_rng(seed)
    log, timed = [], 0.0
    by_class, by_layer = {}, {}
    useful = 0
    rounds = 1 if tiny else workloads.rounds_for(workload, seconds)
    for index in range(rounds):
        for op in workloads.make_round(workload, rng, index, tiny):
            if tracer is not None:
                tracer.op = len(log)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                workloads.run_op(op, tiny)
            except Exception as exc:  # a library failure is a measured outcome
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                if isinstance(exc, workloads.ReportedFailure):
                    cls, layer = exc.exc_class, exc.layer
                else:
                    cls, layer = type(exc).__name__, raising_layer(exc)
                entry = {"ok": False, "error": f"{cls}: {exc}", "layer": layer}
            else:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                chk = workloads.check_op(op)
                useful += workloads.useful_quads(op)
                cls, layer = "OutputCheck", "check"
                entry = {"ok": chk.ok, "rel_err": chk.rel_err,
                         "bound_use": chk.bound_use}
                if not chk.ok:
                    entry["error"] = f"output check: {chk.reason}"
                    entry["layer"] = layer
            if not entry["ok"]:
                by_class[cls] = by_class.get(cls, 0) + 1
                by_layer[layer] = by_layer.get(layer, 0) + 1
            entry.update(kind=op.kind, label=op.label, p=op.p, seconds=dt,
                         report_bytes=op.report_bytes)
            log.append(entry)
            timed += dt
    return {"log": log, "timed_s": timed, "rounds": rounds,
            "failures_by_class": by_class, "failures_by_layer": by_layer,
            "useful_quads": useful}


def tail(times: list) -> tuple:
    """(value, label): the highest percentile with 10 samples beyond it.

    That is the 11th-largest time, at percentile 100 (n - 10) / n; it moves
    smoothly with n, where a fixed ladder (p90, p95, ...) would jump between
    runs whose counts straddle a rung.  With 10 or fewer samples: the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], "max"
    return ordered[n - TAIL_MIN_BEYOND - 1], f"p{100.0 * (n - TAIL_MIN_BEYOND) / n:.1f}"


def end_to_end(loop: dict, setup_s: float | None) -> tuple[dict, dict]:
    log = loop["log"]
    ok_times = [e["seconds"] for e in log if e["ok"]]
    n_fail = sum(not e["ok"] for e in log)
    uses = [e["bound_use"] for e in log if e.get("bound_use") is not None]
    errs = [e["rel_err"] for e in log if e.get("rel_err") is not None]
    tail_value, tail_label = tail(ok_times) if ok_times else (math.nan, "none")
    metrics = {
        "setup_s": setup_s,
        "ok_per_s": len(ok_times) / loop["timed_s"],
        "op_p50_s": statistics.median(ok_times) if ok_times else math.nan,
        "op_tail_s": tail_value,
        "fail_ratio": n_fail / len(log),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_use_max": max(uses) if uses else None,
        "rel_err_max": max(errs) if errs else None,
    }
    notes = {"op_tail_s": f"{tail_label} of {len(ok_times)} successful ops",
             "fail_ratio": f"{n_fail} of {len(log)} ops"}
    return metrics, notes


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "machine": platform.machine(),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from tracing import LAYER_METRICS, LAYERS, Tracer

    env = environment()
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "env": env}
    if not trace:
        setup_s = measure_setup(workload, seed)
        loop = closed_loop(workload, seed, seconds, tiny=tiny)
        e2e, notes = end_to_end(loop, setup_s)
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in GATED}
        doc.update(end_to_end=e2e, notes=notes)
        loops = [loop]
    else:
        # Same inputs twice: untraced, then traced; the difference in
        # median operation time is the tracing overhead.
        base = closed_loop(workload, seed, seconds / 2.0, tiny=tiny)
        tracer = Tracer()
        with tracer:
            loop = closed_loop(workload, seed, seconds / 2.0, tracer=tracer, tiny=tiny)
        e2e, notes = end_to_end(loop, None)
        base_e2e, _ = end_to_end(base, None)
        layers = tracer.layer_metrics(len(loop["log"]), loop["useful_quads"])
        for layer in (*LAYERS, "check"):
            layers[f"{layer}.failures"] = (loop["failures_by_layer"].get(layer, 0)
                                          / len(loop["log"]))
        layers["trace.overhead_s"] = e2e["op_p50_s"] - base_e2e["op_p50_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        doc.update(end_to_end=e2e, untraced_end_to_end=base_e2e, notes=notes,
                   per_layer=layers)
        loops = [base, loop]
    failed = sum(not e["ok"] for e in loop["log"])
    correct = all(e.get("layer") != "check" for lp in loops for e in lp["log"])
    result = {"correct": correct, "attempted": len(loop["log"]), "failed": failed,
              "metrics": metrics}
    doc.update(result=result, rounds=loop["rounds"], timed_s=loop["timed_s"],
               failures_by_class=loop["failures_by_class"],
               failures_by_layer=loop["failures_by_layer"], ops=loop["log"])

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"rounds={loop['rounds']} timed={loop['timed_s']:.3f}s")
    print(f"# env nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} threads=1")
    for name, value in e2e.items():
        note = notes.get(name, "")
        print(f"{workload:10s} {name:14s} {_fmt(value):>14s} {E2E_UNITS[name]:6s} {note}")
    if trace:
        for name, unit, _ in LAYER_METRICS:
            print(f"{workload:10s} {name:40s} {_fmt(metrics[name]['value']):>14s} {unit}")
    if loop["failures_by_class"]:
        print(f"# failures by class {json.dumps(loop['failures_by_class'])}")
        print(f"# failures by layer {json.dumps(loop['failures_by_layer'])}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        if trace:
            tracer.write(path, doc)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, default=str)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decompose", "atoms", "verify", "samples", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _library_path()
    if args.workload == "all":
        import workloads

        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=ROOT / ".bench_out")
    undefined = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if undefined:
        print(f"error: no operation succeeded, so {undefined} are undefined",
              file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
