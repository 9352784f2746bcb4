"""Scaling sweeps: cost per iteration against one input property at a time.

    python3 perfbench/scaling.py [--seed N]

Not part of the per-check benchmark runs. Starting from the full-size
``long_tree_smallN`` and ``mmse_bigN`` inputs, each sweep changes one
property (iteration count, batch size N, node count K, filter width Q) and
prints the wall milliseconds per distributed iteration of the timed section,
with tracing off. Every run is held to the workload's correctness checks
except the final-error tolerance, which short sweeps do not aim at; a point
whose runs fail is printed with the reasons and the script exits 1. The
points are also written to ``.perfbench_out/scaling.json``.
"""

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "dasf" / "__init__.py").is_file():
    sys.exit("perfbench: src/dasf not found next to perfbench/")
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, check_run  # noqa: E402

warnings.filterwarnings("ignore", message="constraint count")

# property -> values, per workload; the other properties keep the base value
SWEEPS = {
    "long_tree_smallN": {
        "base": dict(iterations=500),
        "iterations": (250, 500, 1000, 2000, 4000),
        "samples": (1_000, 10_000, 100_000),
        "nodes": (8, 16, 32),
        "n_filters": (1, 2, 3, 4),
    },
    "mmse_bigN": {
        "base": dict(iterations=40),
        "iterations": (20, 40, 80, 160),
        "samples": (1_000, 10_000, 100_000),
        "nodes": (5, 10, 20),
        "n_filters": (1, 2, 3, 4),
    },
}


def measure(name: str, seed: int, params: dict) -> tuple[float, list[str]]:
    """ms per iteration of one timed section, plus any check failures other
    than the final-error tolerance."""
    workload = WORKLOADS[name]
    runs = workload.build(seed, 0, tolerance=float("inf"), **params)
    t = time.perf_counter()
    outcomes = workload.execute(runs, None)
    wall = time.perf_counter() - t
    iterations = sum(o.iterations for o in outcomes)
    failures = [f"{o.label}: {reason}" for o in outcomes if (reason := check_run(o))]
    return 1e3 * wall / max(iterations, 1), failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    points = []
    ok = True
    for name in sorted(SWEEPS):
        sweep = SWEEPS[name]
        base = {**WORKLOADS[name].sizes["full"], **sweep["base"]}
        for prop in ("iterations", "samples", "nodes", "n_filters"):
            for value in sweep[prop]:
                ms, failures = measure(name, args.seed, {**base, prop: value})
                ok &= not failures
                points.append({"workload": name, "property": prop, "value": value,
                               "ms_per_iter": ms, "failures": failures})
                print(f"{name:18s} {prop:10s} {value:>8}  {ms:9.3f} ms/iter"
                      + ("  FAILED " + "; ".join(failures) if failures else ""), flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(points, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
