"""Self-test of the benchmark: every workload at tiny size, traced and not.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hardysplit import corpus, split  # noqa: E402
from hardysplit.errors import NoConvergence  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _library_attributes() -> dict:
    """Every module attribute of the package, and every traced method."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "hardysplit" or name.startswith("hardysplit."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
    for mod_name, attr in tracing.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"hardysplit.{mod_name}"], cls_name)
            snap[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return snap


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_and_restores_the_library(workload, trace):
    before = _library_attributes()
    result = run.run(workload, seed=0, seconds=0.0, trace=trace, tiny=True)
    after = _library_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    assert result["correct"]
    assert 1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    json.dumps(result, allow_nan=False)


def test_failures_are_charged_to_the_raising_module():
    # the corpus lorentzian atom at p = 0.55 fails inside quadrature.integrate
    with pytest.raises(NoConvergence) as info:
        split.split_atom(corpus.get("lorentzian").laurent, 0.55)
    assert run.raising_layer(info.value) == "quadrature"


def test_the_same_seed_runs_the_same_operations():
    # the work is set by the seed and --seconds, never by the run's speed
    assert workloads.rounds_for("decompose", 20.0) == 1
    assert workloads.rounds_for("atoms", 0.0) == 1
    assert workloads.rounds_for("atoms", 22.0) == 2 * workloads.rounds_for("atoms", 11.0)
    first = run.closed_loop("atoms", 7, 3.0)
    again = run.closed_loop("atoms", 7, 3.0)
    assert first["rounds"] == again["rounds"] == workloads.rounds_for("atoms", 3.0)
    assert [(e["label"], e["p"], e["ok"]) for e in first["log"]] == \
        [(e["label"], e["p"], e["ok"]) for e in again["log"]]
