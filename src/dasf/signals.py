"""Synthetic multi-channel signal models and batch statistics.

Two stochastic streams are supported. The primary stream mixes latent
sources into M channels and adds white noise,

    y(t) = mix_y s(t) + n(t),

and an optional second stream adds extra mixed components on top of it,

    v(t) = mix_v r(t) + y(t).

A drifting variant replaces the mixture by a single time-varying steering
vector, y(t) = p(t) s(t) + n(t) with p(t) = p0 + lambda(t) * delta, used for
tracking studies. All draws are i.i.d. Gaussian and seed-deterministic.

Every problem family depends on a batch only through its second-order
statistics, which a batch computes once, on first use, and keeps. Tracking
studies therefore never draw a drift batch's M x N samples:
``sample_drift_statistics`` draws its statistics directly, exactly in
distribution with the batch ``sample_adaptive`` returns, for a stack of
windows in one call. Per-seed batches differ from the sample draw, their
distribution does not. ``sample_adaptive`` still returns samples.
The draw's generator contract, which fixes every per-seed value: per call,
for windows in the order given, it takes the N normals of s of each ramp
window; then, window by window and row by row, the r normals of G (r = 1
for a constant window, 2 for a ramp) followed by that row's normals below
the diagonal of Bartlett's factor; then one chi-square on N degrees of
freedom per constant window, followed by each window's diagonal
chi-squares of Bartlett's factor. A window is constant iff lambda takes one
value at every sample. Each call reads lambda only through the linear
pieces of the schedule over its windows, never at every sample: they
decide which windows are constant, and a ramp window's moments of lambda
come from one product of s^2 with [1, u, u^2] per piece. A tracking run
draws its windows in blocks (``drift_batches``), one call per block, and
the block's size follows from M, N and ``DRAW_BLOCK_ENTRIES``.

One screen decides every batch's conditioning (``ill_conditioned``), which
each batch keeps: one dpotrf per matrix, and the eigenvalues where it
fails; a batch of N < M samples is singular, so the screen decides it
without one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
import math
import sys

import numpy as np

from ._lapack import dpotrf

COND_LIMIT = 1e12           # conditioning threshold for MMSE diagonal loading
# entries of one block of drift draws: its stacked statistics and the
# normals of its ramp windows
DRAW_BLOCK_ENTRIES = 2**16

__all__ = [
    "LambdaSchedule",
    "DriftSpec",
    "SignalModel",
    "SampleBatch",
    "sample_stationary",
    "sample_adaptive",
    "sample_drift_statistics",
    "drift_batches",
    "estimate_covariance",
    "estimate_cross",
    "mean_squared_norm",
    "mean_squared_error",
]


def _check_finite(name: str, a: np.ndarray) -> None:
    """A ValueError naming the field when an entry is NaN or infinite, as
    validate_config rejects such config numbers."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must hold only finite numbers, got {a[~np.isfinite(a)][0]}")


@dataclass(frozen=True)
class LambdaSchedule:
    """Piecewise-linear mixing weight t -> [0, 1], held constant past the ends."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("schedule needs matching 1-d times and values")
        _check_finite("schedule times", t)
        _check_finite("schedule values", v)
        if np.any(np.diff(t) < 0):
            raise ValueError("schedule times must be non-decreasing")
        if np.any((v < 0) | (v > 1)):
            raise ValueError("schedule values must lie in [0, 1]")
        object.__setattr__(self, "times", tuple(float(x) for x in t))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def __call__(self, t):
        return np.interp(t, self.times, self.values)

    def _pieces(self, t0, n):
        """The linear pieces of lambda over the n integer times t0 .. t0+n-1,
        for one window or for arrays of window starts and lengths
        (broadcast): per window and piece, its first time, its length (0 for
        an empty piece), and lambda at its first and last times. The times
        before the first knot, between two knots and past the last knot
        each form one piece, cut at ceil(knot)."""
        start = np.asarray(t0, dtype=float)[..., None]
        end = start + np.asarray(n)[..., None]
        cuts = np.ceil(self.times)   # the first time at or past each knot
        # [lo, hi) per piece, each clipped to [start, end]
        lo = np.minimum(np.maximum(np.concatenate([[-np.inf], cuts]), start), end)
        hi = np.minimum(np.maximum(np.concatenate([cuts, [np.inf]]), start), end)
        return lo, hi - lo, self(lo), self(hi - 1)

    def window_means(self, t0, n):
        """Means of lambda and lambda^2 over the n integer times t0 .. t0+n-1,
        from the knots, for one window or for arrays of window starts and
        lengths (broadcast). On each linear piece of the window (``_pieces``)
        lambda takes an arithmetic sequence of k values running from a to b,
        with mean (a + b) / 2 and variance (b - a)^2 (k + 1) / (12 (k - 1))."""
        _, k, a, b = self._pieces(t0, n)
        mid = 0.5 * (a + b)
        var = (b - a) ** 2 * (k + 1) / (12 * np.maximum(k - 1, 1))   # 0 when k = 1
        return (k * mid).sum(axis=-1) / n, (k * (mid * mid + var)).sum(axis=-1) / n


@dataclass(frozen=True)
class DriftSpec:
    """Steering drift between p0 and p0 + delta, paced by a lambda schedule."""

    p0: np.ndarray      # (M,) base steering vector
    delta: np.ndarray   # (M,) drift direction
    schedule: LambdaSchedule

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float).ravel()
        delta = np.asarray(self.delta, dtype=float).ravel()
        if p0.shape != delta.shape:
            raise ValueError("p0 and delta must have the same length")
        _check_finite("p0", p0)
        _check_finite("delta", delta)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "delta", delta)

    @cached_property
    def basis(self) -> np.ndarray:
        """U = [p0, delta], the (M, 2) steering basis."""
        return _frozen(np.column_stack([self.p0, self.delta]))


@dataclass(frozen=True)
class SignalModel:
    """Network-wide signal description, including the per-node channel split.

    mix_y : (M, S) mixing of the latent sources into the primary stream,
            or None when ``drift`` provides a time-varying steering vector.
    mix_v : (M, R) extra mixing for the second stream, or None to disable it.
    """

    channels: tuple[int, ...]
    source_var: float
    noise_var: float
    mix_y: np.ndarray | None = None
    mix_v: np.ndarray | None = None
    drift: DriftSpec | None = None

    def __post_init__(self):
        chans = tuple(int(m) for m in self.channels)
        if any(m < 1 for m in chans):
            raise ValueError("channel counts must be positive")
        object.__setattr__(self, "channels", chans)
        m_total = sum(chans)
        if (self.mix_y is None) == (self.drift is None):
            raise ValueError("exactly one of mix_y and drift must be set")
        for name in ("source_var", "noise_var"):
            value = getattr(self, name)
            if not abs(value) <= sys.float_info.max:   # validate_config's rule
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.source_var < 0 or self.noise_var < 0:
            raise ValueError("variances must be non-negative")
        if self.mix_y is not None:
            mix = np.atleast_2d(np.asarray(self.mix_y, dtype=float))
            if mix.shape[0] != m_total:
                raise ValueError(f"mix_y must have {m_total} rows")
            _check_finite("mix_y", mix)
            object.__setattr__(self, "mix_y", mix)
        if self.drift is not None and self.drift.p0.size != m_total:
            raise ValueError(f"drift vectors must have length {m_total}")
        if self.mix_v is not None:
            if self.drift is not None:
                raise ValueError("second stream is not supported with drift")
            mv = np.atleast_2d(np.asarray(self.mix_v, dtype=float))
            if mv.shape[0] != m_total:
                raise ValueError(f"mix_v must have {m_total} rows")
            _check_finite("mix_v", mv)
            object.__setattr__(self, "mix_v", mv)

    @property
    def total_channels(self) -> int:
        return sum(self.channels)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One batch of N samples, stacked network-wide; ``channels`` is the
    per-node row split of the stacked streams. Batches compare and hash by
    identity.

    The statistics (``cov_y``, ``cov_y_ill_conditioned``, ``cov_v``,
    ``cross``, ``target_power``) are computed on first use and kept,
    read-only, so every solve and evaluation on the batch shares one product
    per stream. The streams must not be modified once a statistic has been
    read. A batch made by ``from_statistics`` holds no samples (``y``,
    ``v`` and ``s`` are None), only its statistics and sample count; every
    other batch needs its samples ``y``.
    """

    y: np.ndarray | None          # (M, N) primary stream; None for a statistics batch
    channels: tuple[int, ...]
    t: int = 0                    # sample index of the first column
    v: np.ndarray | None = None   # (M, N) second stream
    s: np.ndarray | None = None   # (S, N) latent target rows

    def __post_init__(self):
        if self.y is None:
            raise ValueError("a batch needs its samples y; a batch of statistics only "
                             "comes from SampleBatch.from_statistics")
        if self.y.shape[0] != sum(self.channels):
            raise ValueError("row count does not match the channel split")
        if self.v is not None and self.v.shape != self.y.shape:
            raise ValueError(f"v has shape {self.v.shape}, y has shape {self.y.shape}")
        if self.s is not None and (self.s.ndim != 2 or self.s.shape[1] != self.y.shape[1]):
            raise ValueError(f"s has shape {self.s.shape}, expected (rows, {self.y.shape[1]}) "
                             f"to match y of shape {self.y.shape}")

    @classmethod
    def from_statistics(cls, channels, cov_y: np.ndarray, cross: np.ndarray,
                        target_power: float, n_samples: int, t: int = 0) -> SampleBatch:
        """A batch of ``n_samples`` samples given by its statistics R_yy
        (M, M), R_ys (M, S) and tr(R_ss); it allocates no sample array, and
        ``to_csv`` refuses every stream."""
        channels, m = tuple(channels), sum(channels)
        if cov_y.shape != (m, m):
            raise ValueError(f"cov_y has shape {cov_y.shape}, expected ({m}, {m}) "
                             f"for channels {channels}")
        if cross.ndim != 2 or cross.shape[0] != m:
            raise ValueError(f"cross has shape {cross.shape}, expected ({m}, rows) "
                             f"for channels {channels}")
        if isinstance(n_samples, bool) or int(n_samples) != n_samples or n_samples < 1:
            raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
        batch = object.__new__(cls)   # no samples, so __init__'s check on y is skipped
        batch.__dict__.update({f.name: None for f in fields(cls)}, channels=channels, t=int(t),
                              cov_y=_frozen(cov_y), cross=_frozen(cross),
                              target_power=float(target_power), n_samples=int(n_samples))
        return batch

    @cached_property
    def n_samples(self) -> int:
        return self.y.shape[1]

    @cached_property
    def cov_y(self) -> np.ndarray:
        """R_yy, the (M, M) primary-stream covariance."""
        return _frozen(estimate_covariance(self.y))

    @cached_property
    def cov_y_ill_conditioned(self) -> bool:
        """cond(R_yy) > COND_LIMIT in the 2-norm, by ``ill_conditioned`` on a
        stack of one. A batch given by its statistics is screened as given."""
        n_samples = None if self.y is None else self.n_samples
        return bool(ill_conditioned(self.cov_y[None], n_samples)[0])

    @cached_property
    def cov_v(self) -> np.ndarray:
        """R_vv, the (M, M) second-stream covariance."""
        if self.v is None:
            raise ValueError("batch has no second stream")
        return _frozen(estimate_covariance(self.v))

    @cached_property
    def cross(self) -> np.ndarray:
        """R_ys, the (M, S) cross-correlation with the target rows."""
        if self.s is None:
            raise ValueError("batch has no target rows")
        return _frozen(estimate_cross(self.y, self.s))

    @cached_property
    def target_power(self) -> float:
        """tr(R_ss), the mean power of the target rows."""
        if self.s is None:
            raise ValueError("batch has no target rows")
        return mean_squared_norm(self.s)

    def to_csv(self, path, stream: str = "y") -> None:
        """Dump one stream as CSV, rows = channels, columns = samples."""
        if self.y is None:
            raise ValueError(f"batch holds statistics only, it has no '{stream}' samples")
        data = {"y": self.y, "v": self.v, "s": self.s}[stream]
        if data is None:
            raise ValueError(f"batch has no '{stream}' stream")
        np.savetxt(path, data, delimiter=",")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def ill_conditioned(r: np.ndarray, n_samples: int | None = None) -> np.ndarray:
    """cond(R) > COND_LIMIT in the 2-norm for each R of a (W, M, M) stack of
    symmetric matrices (True if singular, False if not finite). With
    t = ||R||_inf / COND_LIMIT >= lambda_max / COND_LIMIT, a Cholesky factor
    of R - t I proves lambda_min > t: each R takes one dpotrf, in place on a
    shifted copy, and the eigenvalues of R decide where it fails. R of
    ``n_samples`` < M samples has rank at most N, so it is singular: True
    wherever t is finite, with no factorization. None screens R as given."""
    m = r.shape[-1]
    shift = (np.abs(r) @ np.ones(m)).max(axis=-1) / COND_LIMIT
    finite = np.isfinite(shift)
    if n_samples is not None and n_samples < m:
        return finite
    decided = np.zeros(len(r), dtype=bool)
    shifted = r[finite]   # a copy, so the statistics are never touched
    shifted.reshape(len(shifted), m * m)[:, ::m + 1] -= shift[finite, None]
    for w, a in zip(np.flatnonzero(finite).tolist(), shifted):
        # a.T is a in LAPACK's order (a is symmetric), factorized in place
        if dpotrf(a.T, lower=1, clean=0, overwrite_a=1)[1] != 0:
            mag = np.abs(np.linalg.eigvalsh(r[w]))
            decided[w] = not mag.min() > 0.0 or mag.max() / mag.min() > COND_LIMIT
    return decided


def sample_stationary(model: SignalModel, t: int, n_samples: int, rng_seed=None) -> SampleBatch:
    """Draw one stationary batch. Draw order is sources, extras, noise."""
    if model.drift is not None:
        raise ValueError("model has a drift spec, use sample_adaptive")
    rng = np.random.default_rng(rng_seed)
    m_total = model.total_channels
    s = math.sqrt(model.source_var) * rng.standard_normal((model.mix_y.shape[1], n_samples))
    r = None
    if model.mix_v is not None:
        r = math.sqrt(model.source_var) * rng.standard_normal((model.mix_v.shape[1], n_samples))
    noise = math.sqrt(model.noise_var) * rng.standard_normal((m_total, n_samples))
    y = model.mix_y @ s + noise
    v = y + model.mix_v @ r if r is not None else None
    return SampleBatch(y=y, channels=model.channels, t=int(t), v=v, s=s)


def sample_adaptive(model: SignalModel, t: int, n_samples: int, rng_seed=None) -> SampleBatch:
    """Draw one batch starting at sample index ``t``.

    Without drift this is a fresh stationary batch. With drift, each column
    tau uses the steering vector p0 + lambda(tau) * delta, so the batch picks
    up whatever portion of the schedule it covers.
    """
    if model.drift is None:
        return sample_stationary(model, t, n_samples, rng_seed)
    rng = np.random.default_rng(rng_seed)
    lam = model.drift.schedule(np.arange(t, t + n_samples))
    s = math.sqrt(model.source_var) * rng.standard_normal((1, n_samples))
    y = rng.standard_normal((model.total_channels, n_samples))
    y *= math.sqrt(model.noise_var)
    # (p0 + lambda delta) s as two rank-one terms, never the M x N steering
    y += np.outer(model.drift.p0, s[0])
    y += np.outer(model.drift.delta, lam * s[0])
    return SampleBatch(y=y, channels=model.channels, t=int(t), s=s)


def sample_drift_statistics(model: SignalModel, t, n_samples: int, rng_seed=None):
    """Draw the statistics of drift batches of ``n_samples`` samples, one
    per start in ``t`` (one sample index, or a 1-d array of them), exactly
    in distribution, jointly for R_yy, R_ys and tr(R_ss), with the batches
    ``sample_adaptive`` draws, without their M x N samples. Returns one
    SampleBatch for one start, else a tuple of batches whose statistics are
    views into one read-only stack.

    With P = [p0, delta] and A = [s; lambda s], a batch is
    y = P A + sqrt(noise_var) W for white W. Let L be the lower Cholesky
    factor of A A^T, so A = L U^T with U^T U = I over the r directions A
    spans. The rows of W are rotation invariant, so G = W U is an (M, r)
    normal draw and the part of W orthogonal to A is white and independent
    of it: y y^T = B B^T with B = [P L + sqrt(noise_var) G, sqrt(noise_var) K]
    and K K^T ~ Wishart_M(N - r, I), drawn as Bartlett's factor (an
    M x (N - r) trapezoid when N - r < M), while y s^T = l00 B e1 and
    s s^T = l00^2. In closed form, l00 = ||s||, l10 = mu ||s|| and
    l11 = ||(lambda - mu) s||, with mu the s^2-weighted mean of lambda,
    taken per linear piece of the schedule (``_ramp_moments``). A window is
    constant iff lambda takes one value at every sample, which its pieces
    decide; it has r = 1 and l11 = 0, and it draws ||s||^2 = source_var
    chi2_N instead of s. The module docstring states the order of the draws.
    Every batch comes with its conditioning decision, from one screen of the
    whole stack (``ill_conditioned``).
    """
    drift = model.drift
    if drift is None:
        raise ValueError("model has no drift spec, use sample_adaptive")
    starts = np.asarray(t)
    if starts.ndim > 1:
        raise ValueError(f"t must be one start or a 1-d array of starts, got shape {starts.shape}")
    first = starts.reshape(-1)
    rng = np.random.default_rng(rng_seed)
    m, n = model.total_channels, n_samples
    # lambda is linear on each piece, and rounds monotonically there, so it
    # takes one value at every sample iff every nonempty piece runs from
    # lambda at the first sample to that value
    pieces = drift.schedule._pieces(first, n)
    _, size, head, tail = pieces
    lam = head[:, :1]
    ramp = ((size > 0) & ((head != lam) | (tail != lam))).any(axis=1)
    rank = 1 + ramp
    dof = n - rank
    s = rng.standard_normal((np.count_nonzero(ramp), n))
    s *= math.sqrt(model.source_var)
    # B's r columns of G, then Bartlett's factor: normals below its diagonal,
    # which holds min(M, N - r) chi entries; the unused entries stay zero
    row, cols = np.arange(m), np.arange(m + 2)
    below = np.stack([np.where(cols < 2, cols < r, cols - 2 < np.minimum(row[:, None], n - r))
                      for r in (1, 2)])[rank - 1]   # the pattern of each window's rank
    b = np.zeros(below.shape)
    b[below] = rng.standard_normal(np.count_nonzero(below))
    on_diagonal = row < dof[:, None]
    fixed = first.size - s.shape[0]
    chi = rng.chisquare(np.concatenate([np.full(fixed, float(n)),
                                        (dof[:, None] - row)[on_diagonal]]))
    sd = math.sqrt(model.noise_var)
    b *= sd
    diagonal = np.zeros(on_diagonal.shape)
    diagonal[on_diagonal] = sd * np.sqrt(chi[fixed:])
    b[:, row, row + 2] = diagonal
    # L: ||s||^2, mu and l11 per window (mu is any value when s = 0)
    power, mu, l11 = np.empty(first.size), np.empty(first.size), np.zeros(first.size)
    power[~ramp] = model.source_var * chi[:fixed]
    mu[~ramp] = lam[~ramp, 0]
    if s.size:
        power[ramp], mu[ramp], l11[ramp] = _ramp_moments(
            first[ramp], [x[ramp] for x in pieces], s * s)
    l00 = np.sqrt(power)
    b[:, :, 0] += l00[:, None] * drift.p0 + (mu * l00)[:, None] * drift.delta
    b[:, :, 1] += l11[:, None] * drift.delta
    cov = b @ b.mT
    cov /= n
    cross = _frozen((l00 / n)[:, None, None] * b[:, :, :1])
    # B has at most N nonzero columns: R has the rank of N samples
    decided = ill_conditioned(cov, n)
    batches = []
    for c, x, p, t0, ill in zip(_frozen(cov), cross, (power / n).tolist(), first.tolist(),
                                decided.tolist()):
        batches.append(SampleBatch.from_statistics(model.channels, c, x, p, n, t0))
        batches[-1].__dict__["cov_y_ill_conditioned"] = ill   # kept like the statistics
    return batches[0] if starts.ndim == 0 else tuple(batches)


def drift_batches(model: SignalModel, n_samples: int, count: int, rng):
    """The drift batches of windows 0, ..., count - 1 of ``n_samples``
    samples each (window i starts at sample i N), in order. They are drawn
    in blocks of consecutive windows, one ``sample_drift_statistics`` call
    per block, when the block's first window is asked for, and the previous
    block is let go first. A block holds
    max(1, DRAW_BLOCK_ENTRIES // (M^2 + M + 1 + N)) windows: its stacked
    statistics and ramp normals hold at most DRAW_BLOCK_ENTRIES entries
    unless one window alone holds more. The block size, and with it every
    per-seed value, follows from M, N and that constant."""
    m = model.total_channels
    size = max(1, DRAW_BLOCK_ENTRIES // (m * m + m + 1 + n_samples))
    for first in range(0, count, size):
        windows = np.arange(first, min(first + size, count))
        yield from sample_drift_statistics(model, n_samples * windows, n_samples, rng)


def _ramp_moments(starts: np.ndarray, pieces, sq: np.ndarray):
    """||s||^2, mu and l11 of ramp windows of N samples at ``starts``, from
    their linear pieces (``LambdaSchedule._pieces``) and the (R, N) squared
    samples ``sq``: mu = c + S1 / P and
    l11^2 = max(S2 - S1^2 / P, 0), where P, S1 and S2 are the sums of s^2,
    s^2 (lambda - c) and s^2 (lambda - c)^2 over the window and c is its
    mean lambda. On each linear piece lambda - c = d + g u, with u the times
    centred on the piece, so one product of the piece's s^2 with
    [1, u, u^2] gives its share of all three sums."""
    n = sq.shape[1]
    lo, k, a, b = pieces
    windows = np.stack([lo - starts[:, None], k, 0.5 * (a + b), (b - a) / np.maximum(k - 1, 1)],
                       axis=-1).tolist()   # per window and piece: offset, k, m and g
    out = []
    for row, window in zip(sq, windows):
        window = [(int(o), int(kk), m, g) for o, kk, m, g in window if kk]
        c = sum(kk * m for _, kk, m, _ in window) / n
        p = s1 = s2 = 0.0
        for o, kk, m, g in window:
            q0, q1, q2 = (row[o:o + kk] @ _moment_basis(kk)).tolist()
            d = m - c
            p += q0
            s1 += d * q0 + g * q1
            s2 += d * d * q0 + 2 * d * g * q1 + g * g * q2
        out.append((p, c + s1 / p, math.sqrt(max(s2 - s1 * s1 / p, 0.0))) if p > 0
                   else (0.0, 0.0, 0.0))
    return np.array(out).T


@lru_cache(maxsize=16)
def _moment_basis(k: int) -> np.ndarray:
    """[1, u, u^2] for u = 0, ..., k - 1 less (k - 1) / 2, as (k, 3), read-only."""
    u = np.arange(k) - 0.5 * (k - 1)
    return _frozen(np.column_stack([np.ones(k), u, u * u]))


def estimate_covariance(y: np.ndarray) -> np.ndarray:
    """Sample covariance Y Y^T / N of a zero-mean (M, N) batch."""
    return (y @ y.T) / y.shape[1]


def estimate_cross(y: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Sample cross-correlation Y D^T / N between a batch and (L, N) target rows."""
    target = np.atleast_2d(target)
    return (y @ target.T) / y.shape[1]


def mean_squared_norm(z: np.ndarray) -> float:
    """Batch estimate of E||z(t)||^2, the direct matrix form ||Z||_F^2 / N."""
    return float(np.sum(z * z)) / z.shape[1]


def mean_squared_error(target: np.ndarray, z: np.ndarray) -> float:
    """Batch estimate of E||d(t) - z(t)||^2."""
    d = np.atleast_2d(target) - z
    return float(np.sum(d * d)) / z.shape[1]
