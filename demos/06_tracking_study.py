"""Tracking a moving target: the steering vector drifts mid-run and the
distributed filter follows it.

In adaptive mode every iteration consumes a fresh batch, so the filter can
chase a time-varying optimum. The error is measured against the closed-form
optimum of the signal model frozen at each iteration.
"""

from pathlib import Path

import numpy as np

from dasf import run_tracking, validate_config

OUT = Path(__file__).resolve().parent / "out" / "tracking"

# the schedule is given in iteration units: hold the initial steering for 30
# iterations, slide to the perturbed one over the next 40, then hold again
raw = {
    "schema_version": 1,
    "problem": {"kind": "mmse", "n_filters": 1},
    "network": {"kind": "erdos_renyi", "nodes": 8, "channels": 3,
                "edge_prob": 0.7, "graph_seed": 2},
    "signals": {
        "noise_var": 0.05,
        "drift": {
            "delta_std": 1.5,
            "schedule": [[0, 0.0], [30, 0.0], [70, 1.0]],
        },
    },
    "run": {"monte_carlo_runs": 10, "iterations": 110, "samples": 1500,
            "mode": "adaptive", "seed": 7},
    "output": {"dir": str(OUT)},
}

study = run_tracking(validate_config(raw))
med = study.epsilon_median
# the drift weight per iteration, as the study wrote it next to the errors
lam = np.loadtxt(OUT / "aggregate.csv", delimiter=",", skiprows=1)[:, 4]

print(f"tracking study: {study.run_count} runs, {med.size - 1} iterations")
print()
print("iter   weight  median eps")
for j in (0, 10, 20, 30, 40, 50, 60, 70, 85, 100, 110):
    print(f"{j:4d}   {lam[j]:.2f}    {med[j]:.3e}")

settled = med[20:30].mean()
during = med[35:70].max()
after = med[95:].mean()
print()
print(f"settled error before the drift: {settled:.3e}")
print(f"worst error while drifting:     {during:.3e}")
print(f"settled error after the drift:  {after:.3e}")
print(f"outputs under {OUT}: aggregate.csv (with a lambda column), epsilon.gp, "
      "run_<i>.csv, study.meta")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(med, label="median error")
    ax.set_xlabel("iteration")
    ax.set_ylabel("normalized error")
    ax2 = ax.twinx()
    ax2.plot(lam, color="gray", alpha=0.6, label="mixing weight")
    ax2.set_ylabel("mixing weight")
    ax2.set_ylim(0, 1.1)
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(OUT / "tracking.png", dpi=120)
    print("wrote", OUT / "tracking.png")
