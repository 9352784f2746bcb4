"""dasf-sim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are printed, measured with
tracing off; with ``--trace 1`` the per-layer metrics of one traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The seed and the
machine facts go to an earlier ``# run`` line, and the full record
(per-repetition values, one summary per run) plus, when traced, every span
go to ``.perfbench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here, before dasf is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("eps_final_neglog10", "decades"),
    ("tx_scalars_per_iter", "count"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# timed repetitions in an end-to-end run, at least; tx_scalars_per_iter counts
# these, and six trees keep its seed-to-seed spread on long_tree_smallN near 0.035
MIN_REPS = 6
MIN_BASELINE = 2      # untraced repetitions a traced run compares against
SETUP_PROBES = {"full": 6, "tiny": 1}   # extra processes that only set up


def _import_program():
    """Put the checkout's src/ first on the path and import dasf from it;
    exit non-zero when the checkout has no program."""
    if not (SRC / "dasf" / "__init__.py").is_file():
        sys.exit("perfbench: src/dasf not found next to perfbench/; "
                 "run from the root of a dasf-sim checkout")
    sys.path.insert(0, str(SRC))
    import dasf

    if not Path(dasf.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported dasf from {dasf.__file__}, not from src/")


_import_program()

from calibration import Calibration  # noqa: E402
from machine import machine_facts  # noqa: E402
from tracing import PER_LAYER, POINTS, Tracer, layer_metrics  # noqa: E402
from workloads import EPS_FLOOR, WORKLOADS, check_run  # noqa: E402

# advisory warnings the workloads trigger by design
warnings.filterwarnings("ignore", message="constraint count")


@dataclass
class RunSummary:
    """What the benchmark keeps of one distributed run after checking it."""

    rep: int
    label: str
    iterations: int
    tx_scalars: int
    transport_records: int
    final_eps: float | None
    failure: str | None


def summarize(outcomes, rep: int) -> list[RunSummary]:
    out = []
    for o in outcomes:
        r = o.result
        out.append(RunSummary(
            rep=rep,
            label=o.label,
            iterations=o.iterations,
            tx_scalars=r.transport.scalars() if r is not None else 0,
            transport_records=len(r.transport) if r is not None else 0,
            final_eps=float(r.records[-1].epsilon) if r is not None and r.records else None,
            failure=check_run(o),
        ))
    return out


def timed_reps(workload, args, work_dir, first_inputs, budget_s, min_reps, same_inputs,
               calibration=None):
    """Repeat the workload's timed section until the budget is spent (at
    least min_reps times). Repetition r uses the inputs of rep r, or always
    first_inputs when same_inputs. A calibration, when given, is sampled
    before every repetition and after the last. Returns per-rep rates,
    per-rep timed wall seconds and run summaries."""
    rates, walls, runs = [], [], []
    start = time.perf_counter()
    inputs = first_inputs
    while True:
        if inputs is None:
            inputs = workload.inputs(args.seed, len(rates), args.size)
        if calibration is not None:
            calibration.sample()
        t = time.perf_counter()
        outcomes = workload.execute(inputs, work_dir)
        wall = time.perf_counter() - t
        if not same_inputs:
            inputs = None
        rep_runs = summarize(outcomes, 0 if same_inputs else len(rates))
        del outcomes
        rates.append(sum(s.iterations for s in rep_runs) / wall)
        walls.append(wall)
        runs += rep_runs
        elapsed = time.perf_counter() - start
        if len(rates) >= min_reps and elapsed + statistics.median(walls) > budget_s:
            if calibration is not None:
                calibration.sample()
            return rates, walls, runs


def setup_probe_times(args, calibration) -> list[float]:
    """Set-up time of fresh processes that import dasf and build the
    workload's inputs, then exit. The calibration is sampled before every
    probe and after the last."""
    times = []
    for _ in range(SETUP_PROBES[args.size]):
        calibration.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    calibration.sample()
    return times


def end_to_end(workload, args, work_dir):
    inputs = workload.inputs(args.seed, 0, args.size)
    setup_main = time.perf_counter() - _T0
    calibration = Calibration()
    rates, walls, runs = timed_reps(workload, args, work_dir, inputs, args.seconds, MIN_REPS,
                                    same_inputs=False, calibration=calibration)
    reference_walls = calibration.reference_times(walls)
    del inputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up times in reference-machine time, like the repetitions; the
    # run's own set-up is followed by the first calibration sample
    setup_calibration = Calibration()
    probes = setup_probe_times(args, setup_calibration)
    setups = ([setup_main / calibration.factors[0]]
              + setup_calibration.reference_times(probes))

    eps = [max(s.final_eps, EPS_FLOOR) for s in runs
           if s.failure is None and s.final_eps is not None]
    iterations = sum(s.iterations for s in runs)
    # over the repetitions every run makes, so the count repeats exactly per seed
    counted = [s for s in runs if s.rep < MIN_REPS]
    metrics = {
        "setup_s": statistics.median(setups),
        "iters_per_s": iterations / sum(reference_walls),
        "eps_final_neglog10": -statistics.fmean(math.log10(e) for e in eps) if eps else 0.0,
        "tx_scalars_per_iter": (sum(s.tx_scalars for s in counted)
                                / max(sum(s.iterations for s in counted), 1)),
        "ok_frac": sum(s.failure is None for s in runs) / len(runs),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"setup_s": setups, "wall_setup_s": [setup_main] + probes,
              "setup_calibration_factors": setup_calibration.factors,
              "wall_iters_per_s": iterations / sum(walls),
              "rep_wall_iters_per_s": rates, "calibration_factors": calibration.factors}
    return metrics, runs, detail


def traced(workload, args, work_dir):
    """One traced pass (set-up plus timed section of rep 0), then untraced
    repetitions of the same inputs for the tracing overhead."""
    tracer = Tracer()
    tracer.install(POINTS)
    try:
        t0 = time.perf_counter()
        inputs = workload.inputs(args.seed, 0, args.size)
        t1 = time.perf_counter()
        outcomes = workload.execute(inputs, work_dir)
        t2 = time.perf_counter()
    finally:
        tracer.uninstall()
    runs = summarize(outcomes, 0)
    del outcomes
    traced_rate = sum(s.iterations for s in runs) / (t2 - t1)
    rates, walls, baseline_runs = timed_reps(
        workload, args, work_dir, inputs, max(args.seconds - (time.perf_counter() - t0), 0.0),
        MIN_BASELINE, same_inputs=True)
    untraced_rate = sum(s.iterations for s in baseline_runs) / sum(walls)
    overhead = 1.0 - traced_rate / untraced_rate
    metrics = layer_metrics(tracer, t2 - t0, sum(s.transport_records for s in runs), overhead)
    trace_file = OUT / f"trace_{workload.name}_s{args.seed}.json"
    tracer.dump(trace_file)
    detail = {"traced_iters_per_s": traced_rate, "untraced_iters_per_s": untraced_rate,
              "untraced_rep_iters_per_s": rates,
              "spans": len(tracer.spans), "trace_file": trace_file.name}
    return metrics, runs + baseline_runs, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="time budget of the measured section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.inputs(args.seed, 0, args.size)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, runs, detail = traced(workload, args, work_dir)
        units = dict(PER_LAYER)
    else:
        metrics, runs, detail = end_to_end(workload, args, work_dir)
        units = dict(END_TO_END)

    facts = machine_facts()
    print("# run " + json.dumps({"workload": workload.name, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "size": args.size, "machine": facts}))
    failures = [s for s in runs if s.failure is not None]
    for s in failures:
        print(f"FAILED {workload.name} rep {s.rep} {s.label}: {s.failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": facts, **result,
              "detail": detail, "runs": [asdict(s) for s in runs]}
    name = f"result_{workload.name}_s{args.seed}_t{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
