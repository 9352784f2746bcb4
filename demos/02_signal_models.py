"""Synthetic multichannel signals: stationary batches, a second correlated
stream, and a drifting steering vector for tracking studies."""

import numpy as np

from dasf import DriftSpec, LambdaSchedule, SignalModel, sample_adaptive, sample_stationary
from dasf.signals import estimate_covariance, estimate_cross, mean_squared_error

rng = np.random.default_rng(0)

# --- a stationary model: 2 latent sources mixed into 10 channels ----------

channels = (3, 3, 2, 2)
m_total = sum(channels)
model = SignalModel(
    channels=channels,
    source_var=0.5,
    noise_var=0.1,
    mix_y=rng.standard_normal((m_total, 2)),
    mix_v=rng.standard_normal((m_total, 3)),   # interferers, second stream only
)

batch = sample_stationary(model, t=0, n_samples=5000, rng_seed=42)
print("batch shapes: y", batch.y.shape, " v", batch.v.shape, " s", batch.s.shape)

# the channel split cuts the stacked array into per-node blocks (views)
blocks = np.split(batch.y, np.cumsum(channels)[:-1])
print("stacking the per-node blocks reproduces y:", np.array_equal(np.vstack(blocks), batch.y))

# the sample covariance approaches the analytic one as N grows
analytic = 0.5 * model.mix_y @ model.mix_y.T + 0.1 * np.eye(m_total)
for n in (200, 2000, 20000):
    b = sample_stationary(model, 0, n, rng_seed=1)
    gap = np.abs(estimate_covariance(b.y) - analytic).max()
    print(f"N={n:6d}  max |R_hat - R| = {gap:.4f}")

# the second stream contains the first plus the interferer mix
resid = batch.v - batch.y
print("rank of v - y:", np.linalg.matrix_rank(resid @ resid.T), "(interferer count is 3)")

# estimating the sources from the channels, network-wide least squares
x = np.linalg.solve(estimate_covariance(batch.y), estimate_cross(batch.y, batch.s))
print(f"MSE of the network-wide estimator: {mean_squared_error(batch.s, x.T @ batch.y):.4f}")
print(f"MSE of guessing zero:              {mean_squared_error(batch.s, 0 * batch.s):.4f}")

# --- a drifting model: the steering vector moves along a schedule ---------

print()
schedule = LambdaSchedule(times=(0.0, 100.0, 200.0), values=(0.0, 0.0, 1.0))
print("mixing weight at t = 0, 100, 150, 200, 999:",
      [float(schedule(t)) for t in (0, 100, 150, 200, 999)])

drift_model = SignalModel(
    channels=channels,
    source_var=1.0,
    noise_var=0.05,
    drift=DriftSpec(
        p0=rng.standard_normal(m_total),
        delta=rng.standard_normal(m_total),
        schedule=schedule,
    ),
)

# sample_adaptive draws a fresh batch anchored at sample index t; the
# steering vector used for column j is p0 + schedule(t + j) * delta
early = sample_adaptive(drift_model, t=0, n_samples=50, rng_seed=3)
late = sample_adaptive(drift_model, t=200, n_samples=50, rng_seed=3)
print("early/late batches share the latent draw but not the mixing:",
      np.array_equal(early.s, late.s) and not np.allclose(early.y, late.y))
