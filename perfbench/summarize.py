"""Median and quartiles per workload and metric over a set of run files.

    python3 perfbench/summarize.py .bench_out/*-trace0.json > summary.json

Each argument is a run file written by run.py.  Untraced runs contribute
their eight end-to-end metrics, traced runs their per-layer metrics; a
metric that is undefined in a run (``null``) is left out of its statistics.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        workload = doc["workload"]
        seeds[workload].append(doc["seed"])
        metrics = dict(doc.get("end_to_end", {}))
        if doc.get("trace"):
            metrics = dict(doc.get("per_layer", {}))
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                values[workload][name].append(float(value))
    out = {}
    for workload, by_name in sorted(values.items()):
        rows = {}
        for name, vals in by_name.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            med = statistics.median(vals)
            rows[name] = {"median": med, "q1": q[0], "q3": q[2], "n": len(vals),
                          "spread": (q[2] - q[0]) / med if med else None}
        out[workload] = {"seeds": sorted(seeds[workload]), "metrics": rows}
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
