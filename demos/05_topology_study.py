"""Monte-Carlo convergence studies from config dictionaries and from the
command line.

A study is described by a small YAML document: problem family, network,
signal model, run counts. run_study executes every Monte-Carlo run, measures
the normalized error against the per-run centralized optimum, and writes
per-run CSVs plus aggregate curves. The same config dialect drives the
dasf-sim CLI.
"""

from pathlib import Path

from dasf import run_study, validate_config
from dasf.cli import main as cli_main

OUT = Path(__file__).resolve().parent / "out"


def study_config(topology, **extra):
    raw = {
        "schema_version": 1,
        "problem": {"kind": "tro", "n_filters": 2},
        "network": {"kind": topology, "nodes": 10, "channels": 3, **extra},
        "signals": {"sources": 4, "interferers": 4, "noise_var": 0.2},
        "run": {"monte_carlo_runs": 8, "iterations": 60, "samples": 2000, "seed": 3},
        "output": {"dir": str(OUT / f"topology_{topology}")},
    }
    return validate_config(raw)


# --- denser networks converge faster: compare two topologies --------------

results = {}
for topology in ("fully_connected", "path"):
    study = run_study(study_config(topology))
    results[topology] = study
    print(f"{topology:16s} runs={study.run_count}  "
          f"median eps at iter 20/40/60: "
          + "  ".join(f"{study.epsilon_median[j]:.2e}" for j in (20, 40, 60)))

fc_final = results["fully_connected"].epsilon_median[-1]
path_final = results["path"].epsilon_median[-1]
print(f"fully connected beats the path by a factor {path_final / fc_final:.1e}")
print(f"outputs under {OUT}/topology_*/: run_<i>.csv, aggregate.csv, "
      "epsilon.gp, study.meta")

# --- the same dialect, driven through the CLI ------------------------------

config_text = f"""\
schema_version: 1
problem:
  kind: mmse
  n_filters: [1, 2]        # a sweep: one study per filter width
network:
  kind: random_tree
  nodes: 8
  channels: 2
  graph_seed: 4
run:
  iterations: 40
  monte_carlo_runs: 6
  samples: 1500
  seed: 0
output:
  dir: {OUT / "cli_sweep"}
"""
cfg_path = OUT / "sweep.yaml"
OUT.mkdir(parents=True, exist_ok=True)
cfg_path.write_text(config_text)

print()
print("$ dasf-sim run", cfg_path.name)
code = cli_main(["run", str(cfg_path)])
print("exit code:", code)
print("sweep subdirectories:", sorted(p.name for p in (OUT / "cli_sweep").iterdir()))

# --- optional picture -------------------------------------------------------

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    for topology, study in results.items():
        ax.semilogy(study.epsilon_median, label=topology)
    ax.set_xlabel("iteration")
    ax.set_ylabel("median normalized error")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(OUT / "topology_comparison.png", dpi=120)
    print()
    print("wrote", OUT / "topology_comparison.png")
