"""Solve each of the four spatial filter problem families centrally.

The distributed engine solves exactly these problems, only on compressed
data; here we call the solvers on the full network-wide batch so their
outputs can be checked against first principles.
"""

import numpy as np

from dasf import (
    MmseProblem,
    QcqpProblem,
    ScqpProblem,
    SignalModel,
    TroProblem,
    sample_stationary,
    solve_centralized,
)
from dasf.sfo import constraint_residuals, evaluate_objective
from dasf.signals import estimate_covariance, estimate_cross


def fresh_batch(rng_seed=0, n=4000):
    rng = np.random.default_rng(rng_seed)
    channels = (3, 3, 3, 3)
    m = sum(channels)
    model = SignalModel(
        channels=channels,
        source_var=0.5,
        noise_var=0.1,
        mix_y=rng.standard_normal((m, 2)),
        mix_v=rng.standard_normal((m, 4)),
    )
    return sample_stationary(model, 0, n, rng_seed=rng_seed)


batch = fresh_batch()
m = batch.y.shape[0]
q = 2
rng = np.random.default_rng(99)


def report(label, problem, outcome):
    res = constraint_residuals(problem, outcome.x)
    worst = res.max() if res.size else 0.0
    print(f"{label:5s} objective={evaluate_objective(problem, outcome.x, batch):+.6f}  "
          f"inner iterations={outcome.iterations:3d}  max residual={worst:.2e}")


# MMSE: closed form, must match the normal equations exactly
mmse = MmseProblem(n_filters=q)
out = solve_centralized(mmse, batch)
direct = np.linalg.solve(estimate_covariance(batch.y), estimate_cross(batch.y, batch.s))
report("mmse", mmse, out)
print("      matches the normal equations:", np.allclose(out.x, direct))

# QCQP: quadratic objective, one norm ball plus one linear response equality
c = rng.standard_normal(m)
d = rng.standard_normal(q)
qcqp = QcqpProblem(
    n_filters=q,
    linear_term=rng.standard_normal((m, q)),
    gain_vector=c,
    target_response=d,
    radius=1.5 * float(np.linalg.norm(d) / np.linalg.norm(c)),
)
out = solve_centralized(qcqp, batch)
report("qcqp", qcqp, out)
print("      response X^T c == d:", np.allclose(out.x.T @ c, d))
print(f"      ball usage ||X||_F / radius: {np.linalg.norm(out.x) / qcqp.radius:.3f}")

# TRO: maximize the power ratio of the two streams over orthonormal filters;
# reported objective is the negated ratio, the history shows the fixed point
# climbing monotonically.
tro = TroProblem(n_filters=q)
out = solve_centralized(tro, batch)
report("tro", tro, out)
hist = np.array(out.history)
print(f"      ratio history: {hist[0]:.4f} -> {hist[-1]:.4f} "
      f"in {hist.size} steps, monotone: {bool((np.diff(hist) >= -1e-12).all())}")
print("      X^T X == I:", np.allclose(out.x.T @ out.x, np.eye(q)))

# SCQP: quadratic objective on the unit sphere
scqp = ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
out = solve_centralized(scqp, batch)
report("scqp", scqp, out)
print(f"      ||X||_F = {np.linalg.norm(out.x):.12f}")

# evaluate_objective recomputes any family's objective from a raw batch, so
# solutions can be compared across solvers or against random points
x_rand = scqp.random_feasible(m, rng)
print()
print("random feasible SCQP point objective:", f"{evaluate_objective(scqp, x_rand, batch):+.6f}")
print("solver SCQP objective:               ",
      f"{evaluate_objective(scqp, out.x, batch):+.6f}")
