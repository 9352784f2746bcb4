import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dasf import signals
from dasf.signals import (
    DriftSpec,
    LambdaSchedule,
    SampleBatch,
    SignalModel,
    estimate_covariance,
    estimate_cross,
    mean_squared_error,
    mean_squared_norm,
    sample_adaptive,
    sample_drift_statistics,
    sample_stationary,
)


def _model(channels=(2, 3), sources=2, extras=None, seed=0):
    rng = np.random.default_rng(seed)
    m = sum(channels)
    return SignalModel(
        channels=channels,
        source_var=0.5,
        noise_var=0.1,
        mix_y=rng.uniform(-0.5, 0.5, (m, sources)),
        mix_v=None if extras is None else rng.uniform(-0.5, 0.5, (m, extras)),
    )


def test_schedule_interpolates_and_clamps():
    sched = LambdaSchedule((10.0, 20.0), (0.0, 1.0))
    assert sched(5) == 0.0
    assert sched(10) == 0.0
    assert sched(15) == pytest.approx(0.5)
    assert sched(20) == 1.0
    assert sched(99) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        LambdaSchedule((2.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        LambdaSchedule((0.0, 1.0), (0.0, 1.5))
    with pytest.raises(ValueError):
        LambdaSchedule((), ())


def test_model_requires_exactly_one_mixing():
    with pytest.raises(ValueError):
        SignalModel(channels=(2,), source_var=1.0, noise_var=0.1)
    spec = DriftSpec(np.ones(2), np.ones(2), LambdaSchedule((0.0,), (0.0,)))
    with pytest.raises(ValueError):
        SignalModel(channels=(2,), source_var=1.0, noise_var=0.1,
                    mix_y=np.ones((2, 1)), drift=spec)
    with pytest.raises(ValueError):
        SignalModel(channels=(2,), source_var=1.0, noise_var=0.1,
                    mix_v=np.ones((2, 1)), drift=spec)


def test_model_row_count_checked():
    with pytest.raises(ValueError):
        SignalModel(channels=(2, 2), source_var=1.0, noise_var=0.1,
                    mix_y=np.ones((3, 1)))


def test_stationary_batch_shapes_and_blocks():
    model = _model(channels=(2, 3), sources=2, extras=1)
    batch = sample_stationary(model, 0, 64, rng_seed=1)
    assert batch.y.shape == (5, 64)
    assert batch.v.shape == (5, 64)
    assert batch.s.shape == (2, 64)
    assert batch.n_samples == 64


def test_stationary_deterministic_under_seed():
    model = _model()
    a = sample_stationary(model, 0, 32, rng_seed=5)
    b = sample_stationary(model, 0, 32, rng_seed=5)
    assert np.array_equal(a.y, b.y)
    c = sample_stationary(model, 0, 32, rng_seed=6)
    assert not np.array_equal(a.y, c.y)


def test_second_stream_contains_first():
    # v = y + mix_v r, so subtracting the streams leaves the extras mixture
    model = _model(channels=(2, 2), sources=1, extras=1, seed=3)
    batch = sample_stationary(model, 0, 16, rng_seed=2)
    resid = batch.v - batch.y
    # rank of the residual equals the number of extra components
    assert np.linalg.matrix_rank(resid, tol=1e-8) == 1


def test_adaptive_without_drift_is_stationary():
    model = _model()
    a = sample_adaptive(model, 0, 16, rng_seed=9)
    b = sample_stationary(model, 0, 16, rng_seed=9)
    assert np.array_equal(a.y, b.y)


def test_drift_steering_moves_with_schedule():
    m = 3
    sched = LambdaSchedule((0.0, 100.0), (0.0, 1.0))
    spec = DriftSpec(p0=np.array([1.0, 0.0, 0.0]), delta=np.array([0.0, 1.0, 0.0]),
                     schedule=sched)
    model = SignalModel(channels=(m,), source_var=1.0, noise_var=0.0, drift=spec)
    batch = sample_adaptive(model, 0, 101, rng_seed=0)
    # noise-free: y(t) = (p0 + lam(t) delta) s(t)
    s = batch.s[0]
    assert np.allclose(batch.y[0], 1.0 * s)
    assert np.allclose(batch.y[1], np.linspace(0, 1, 101) * s)
    assert np.allclose(batch.y[2], 0.0)


def test_drift_batch_equals_steering_product():
    # same normals in the same order as y = (p0 + lam delta) s + noise
    rng = np.random.default_rng(3)
    spec = DriftSpec(p0=rng.standard_normal(4), delta=rng.standard_normal(4),
                     schedule=LambdaSchedule((50.0, 150.0), (0.2, 0.9)))
    model = SignalModel(channels=(1, 3), source_var=0.5, noise_var=0.3, drift=spec)
    batch = sample_adaptive(model, 40, 200, rng_seed=11)
    draws = np.random.default_rng(11)
    s = np.sqrt(0.5) * draws.standard_normal((1, 200))
    noise = np.sqrt(0.3) * draws.standard_normal((4, 200))
    lam = spec.schedule(np.arange(40, 240))
    steering = spec.p0[:, None] + lam[None, :] * spec.delta[:, None]
    assert np.array_equal(batch.s, s)
    assert np.allclose(batch.y, steering * s + noise, rtol=0, atol=1e-14)


def _drift_model(m, noise_var, schedule, seed=0, source_var=0.5, scale=0.5, delta_std=1.5):
    rng = np.random.default_rng(seed)
    spec = DriftSpec(p0=rng.uniform(-scale, scale, m), delta=rng.normal(0.0, delta_std, m),
                     schedule=schedule)
    return SignalModel(channels=(1,) * (m % 3) + (3,) * (m // 3), source_var=source_var,
                       noise_var=noise_var, drift=spec)


RAMP = LambdaSchedule((50.0, 150.0), (0.2, 0.9))
STEPS = LambdaSchedule((50.0, 100.0, 150.0), (0.3, 0.3, 0.8))


@pytest.mark.parametrize("t, n", [(0, 30), (40, 200), (149, 1)])
def test_drift_statistics_noise_free_equal_samples(t, n):
    # a ramp window draws s first, as sample_adaptive does, so without noise
    # the batches coincide; a window of one lambda draws only ||s||^2, and its
    # statistics are the rank-one forms of p = p0 + lambda delta
    model = _drift_model(5, 0.0, RAMP, seed=1)
    got = sample_drift_statistics(model, t, n, rng_seed=7)
    assert got.y is None and got.s is None and got.n_samples == n and got.t == t
    assert not (got.cov_y.flags.writeable or got.cross.flags.writeable)
    lam = oracles.window_lambda(RAMP, t, n)
    if lam is None:
        ref = sample_adaptive(model, t, n, rng_seed=7)
        assert np.allclose(got.cov_y, ref.cov_y, rtol=0, atol=1e-12)
        assert np.allclose(got.cross, ref.cross, rtol=0, atol=1e-12)
        assert abs(got.target_power - ref.target_power) <= 1e-12
    else:
        p = model.drift.p0 + lam * model.drift.delta
        scale = got.target_power
        assert scale > 0
        assert np.allclose(got.cov_y, scale * np.outer(p, p), rtol=1e-13, atol=0)
        assert np.allclose(got.cross[:, 0], scale * p, rtol=1e-13, atol=0)


def test_drift_statistics_assembly_equals_sample_estimates():
    # the split the draw rests on, for one fixed W: with L the closed-form
    # Cholesky factor of A A^T, A = L U^T, G = W U and K K^T the part of
    # W W^T orthogonal to A, the statistics of y = P A + sd W are B B^T / N
    # and l00 B e1 / N, B = [P L + sd G, sd K]
    rng = np.random.default_rng(2)
    m, n, nv = 6, 40, 0.3
    p = rng.standard_normal((m, 2))
    s = rng.standard_normal(n)
    lam = np.linspace(0.1, 0.8, n)
    a = np.vstack([s, lam * s])
    w = rng.standard_normal((m, n))
    mu = (lam * s * s).sum() / (s * s).sum()
    l00, l11 = np.linalg.norm(s), np.linalg.norm((lam - mu) * s)
    chol = np.array([[l00, 0.0], [mu * l00, l11]])
    assert np.allclose(chol, np.linalg.cholesky(a @ a.T), rtol=1e-13, atol=0)
    u = np.linalg.solve(chol, a).T
    assert np.allclose(u.T @ u, np.eye(2), rtol=0, atol=1e-13)
    k = np.linalg.cholesky(w @ (np.eye(n) - u @ u.T) @ w.T)
    b = np.hstack([p @ chol + np.sqrt(nv) * (w @ u), np.sqrt(nv) * k])
    y = p @ a + np.sqrt(nv) * w
    assert np.allclose(b @ b.T / n, estimate_covariance(y), rtol=0, atol=1e-12)
    assert np.allclose(l00 * b[:, :1] / n, estimate_cross(y, s), rtol=0, atol=1e-12)
    assert np.isclose(l00 ** 2 / n, mean_squared_norm(s[None]), rtol=1e-14, atol=0)


@pytest.mark.parametrize("m, n", [(4, 9), (5, 3)])
def test_wishart_factor_moments(m, n):
    # with p0 = delta = 0 a batch is white noise, so N R_yy / noise_var =
    # G G^T + K K^T ~ Wishart_m(n, I): entry means n I, variances n off the
    # diagonal and 2n on it. Each call mixes windows of one lambda (r = 1)
    # and ramp windows (r = 2); n = 9 takes Bartlett's triangle, n = 3 its
    # trapezoid (N - r < M)
    spec = DriftSpec(np.zeros(m), np.zeros(m), RAMP)
    model = SignalModel(channels=(m,), source_var=0.5, noise_var=0.3, drift=spec)
    starts = np.tile([0, 60], 10_000)
    draws = np.array([b.cov_y * (n / 0.3) for b in
                      sample_drift_statistics(model, starts, n, np.random.default_rng(8))])
    for part in (draws[0::2], draws[1::2]):
        d = len(part)
        dev = part - part.mean(axis=0)
        mean_se = part.std(axis=0) / np.sqrt(d)
        assert np.all(np.abs(part.mean(axis=0) - n * np.eye(m)) <= 5 * mean_se)
        var = (dev ** 2).mean(axis=0)
        var_se = (dev ** 2).std(axis=0) / np.sqrt(d)
        assert np.all(np.abs(var - n * (1 + np.eye(m))) <= 5 * var_se)


@pytest.mark.parametrize("schedule, t, n", [
    (RAMP, 49, 3),        # N < M, lambda ramps
    (RAMP, 0, 10),        # constant lambda over the window: A A^T has rank 1
    (RAMP, 60, 200),      # lambda ramps, N > M
    (RAMP, 130, 40),      # the window straddles the knot at 150
    # lambda runs from 0 to 1 across the window, so W's second direction
    # along A carries a visible share of the cross terms
    (LambdaSchedule((0.0, 40.0), (0.0, 1.0)), 0, 40),
])
def test_drift_statistics_match_sample_adaptive_moments(schedule, t, n):
    model = _drift_model(4, 0.3, schedule, seed=3)

    def row(b):
        return np.concatenate([b.cov_y[np.triu_indices(4)], b.cross[:, 0], [b.target_power]])

    rng = np.random.default_rng(21)
    ref = np.array([row(sample_adaptive(model, t, n, rng)) for _ in range(5000)])
    # the draw in stacks of 50 windows at the same start
    rng = np.random.default_rng(22)
    got = np.array([row(b) for _ in range(100)
                    for b in sample_drift_statistics(model, np.full(50, t), n, rng)])
    # first moments, then second moments, which see the zero-mean W A^T term
    for a, b in ((ref, got), (ref ** 2, got ** 2)):
        se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se)


@pytest.mark.parametrize("schedule, t, n", [
    (LambdaSchedule((0.0,), (0.0,)), 0, 2000),     # lambda = 0: A A^T has rank 1
    (LambdaSchedule((0.0,), (1.0,)), 300, 2000),   # lambda = 1: the rows of A are equal
    (RAMP, 60, 80),                                # a ramp
    (RAMP, 120, 60),                               # the window straddles the knot at 150
    (RAMP, 40, 20),                                # N - r < M: Bartlett's trapezoid
    # windows in one constant piece draw no s
    (STEPS, 0, 40),                                # before the first knot
    (STEPS, 55, 40),                               # between two equal knots
    (STEPS, 200, 60),                              # past the last knot
    (RAMP, 30, 21),                                # ending exactly at a knot
    (RAMP, 150, 40),                               # starting exactly at a knot
    # one call: constant and ramp windows, with N - r = 29 < M for
    # the ramps while N - r = 30 = M for the constant windows
    (RAMP, [0, 30, 150, 120, 10, 100, 60], 31),
    # constant windows, as lambda takes one value at every sample: over -0.0
    # knots (-0.0 up to 20, then 0.0), and straddling knots between the
    # samples 3 and 4
    (LambdaSchedule((20.0, 40.0, 60.0), (-0.0, 0.0, 0.5)), 0, 30),
    (LambdaSchedule((3.2, 3.5, 3.8), (0.0, 1.0, 0.0)), 0, 40),
])
def test_drift_statistics_draw_keeps_the_random_stream(schedule, t, n):
    # the same generator calls in the same order, the same arithmetic: every
    # value, the screen's decision and the generator state after each call
    # are bitwise those of the oracle written from the README's contract
    model = _drift_model(30, 0.3, schedule, seed=5)
    ours, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        got = sample_drift_statistics(model, t, n, ours)
        want = oracles.drift_statistics_draw(model, t, n, ref)
        got = (got,) if isinstance(t, int) else got
        assert len(got) == len(want) == len(np.atleast_1d(t))
        for batch, (cov, cross, power), t0 in zip(got, want, np.atleast_1d(t)):
            assert batch.t == t0 and batch.n_samples == n
            assert np.array_equal(batch.cov_y, cov)
            assert np.array_equal(batch.cross, cross)
            assert batch.target_power == power
            assert batch.cov_y_ill_conditioned == oracles.cholesky_screen(cov)
        assert ours.bit_generator.state == ref.bit_generator.state
    # N < M leaves W W^T rank deficient, so that case exercises the eigenvalue path
    assert got[0].cov_y_ill_conditioned == (n < 30)


@pytest.mark.parametrize("schedule, t, n, source_var", [
    (RAMP, 130, 40, 0.5),                                          # the knot at 150 inside
    (RAMP, 111, 40, 0.5),                                          # the knot on the last sample
    (LambdaSchedule((20.0, 25.0, 60.0), (-0.0, 0.0, 0.5)), 0, 30, 0.5),   # -0.0, 0.0, a ramp
    (LambdaSchedule((20.0, 40.0, 60.0), (-0.0, 0.0, 0.5)), 10, 60, 0.5),  # -0.0, then a ramp
    (RAMP, 100, 2, 0.5),                                           # N = 2
    (RAMP, 60, 40, 0.0),                                           # no source power
])
def test_ramp_moments_match_the_per_sample_formula(schedule, t, n, source_var):
    # the per-piece moments give the statistics of lambda at every sample, to
    # rounding: the same random stream with mu and l11 taken per sample
    model = _drift_model(6, 0.3, schedule, seed=5, source_var=source_var)
    assert oracles.window_lambda(schedule, t, n) is None
    got = sample_drift_statistics(model, np.array([t, t]), n, np.random.default_rng(9))
    want = oracles.drift_statistics_draw(model, [t, t], n, np.random.default_rng(9),
                                         moments=oracles.ramp_moments_per_sample)
    for batch, (cov, cross, power) in zip(got, want):
        for ours, ref in ((batch.cov_y, cov), (batch.cross, cross),
                          (batch.target_power, power)):
            assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


_SPD = np.random.default_rng(6).standard_normal((4, 5, 12))


def test_conditioning_screen_of_a_stack_matches_each_window():
    # each window of a stack takes its own factorization, so a singular,
    # ill-conditioned or non-finite window beside well-conditioned ones is
    # decided as the oracle decides it alone
    good = _SPD @ _SPD.mT
    low = _SPD[0, :, :3] @ _SPD[0, :, :3].T                     # N = 3 < M = 5
    loose = np.diag([1.0, 2.0, 1e-13, 1.0, 3.0])               # the eigenvalues decide
    nan = np.full((5, 5), np.nan)
    inf = np.eye(5)
    inf[0, 1] = inf[1, 0] = np.inf
    for stack in (good, np.stack([good[0], low, nan, good[1], loose, inf, good[2]]),
                  good[:1], np.zeros((0, 5, 5))):
        kept = stack.copy()
        got = signals.ill_conditioned(stack)
        assert got.dtype == bool and got.shape == (len(stack),)
        assert got.tolist() == [oracles.cholesky_screen(r) for r in stack]
        assert np.array_equal(stack, kept, equal_nan=True)
    assert got.tolist() == [] and not signals.ill_conditioned(good).any()
    assert signals.ill_conditioned(np.stack([good[0], low, nan, loose, inf])).tolist() == [
        False, True, False, True, False]


def test_conditioning_screen_decides_one_matrix_as_a_stack_does():
    # a batch's own screen is a stack of one, and a stack of several decides
    # each matrix alone: all agree, window by window
    good = _SPD @ _SPD.mT
    low = _SPD[0, :, :3] @ _SPD[0, :, :3].T                     # singular
    loose = np.diag([1.0, 2.0, 1e-13, 1.0, 3.0])               # ill-conditioned
    nan = np.full((5, 5), np.nan)
    inf = np.eye(5)
    inf[0, 1] = inf[1, 0] = np.inf
    for r, want in ((good[0], False), (loose, True), (low, True), (nan, False), (inf, False)):
        assert oracles.cholesky_screen(r) == want
        batch = SampleBatch.from_statistics((2, 3), r.copy(), np.zeros((5, 1)), 1.0, 7)
        assert batch.cov_y_ill_conditioned is want
        assert signals.ill_conditioned(r[None]).tolist() == [want]
        assert signals.ill_conditioned(np.stack([good[1], r])).tolist() == [False, want]
        assert signals.ill_conditioned(np.stack([r, good[2], loose])).tolist() == [want, False, True]


def test_conditioning_screen_decides_fewer_samples_than_channels_by_rank(monkeypatch):
    # R of N < M samples has rank at most N, so the screen decides it True
    # without dpotrf, a stacked Cholesky or eigvalsh, as the full rule does;
    # a non-finite R still decides False, and statistics handed in as they
    # are go through the factorization; a drift draw of N >= M samples takes
    # one dpotrf per window and never a stacked Cholesky
    calls = []

    def counted(name, f):
        return lambda *args, **kw: calls.append(name) or f(*args, **kw)

    monkeypatch.setattr(signals, "dpotrf", counted("dpotrf", signals.dpotrf))
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(16)
    decided = []
    for _ in range(40):
        channels = tuple(int(c) for c in rng.integers(1, 5, rng.integers(1, 9)))
        m = sum(channels)
        if m < 2:
            continue
        n = int(rng.integers(1, m))
        y = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal((m, n))
        batches = [SampleBatch(y=y, channels=channels),
                   sample_stationary(_model(channels, sources=int(rng.integers(1, 4)),
                                            seed=int(rng.integers(1000))), 0, n, rng)]
        model = _drift_model(m, float(rng.choice([0.0, 0.3])), RAMP, seed=int(rng.integers(1000)))
        batches += sample_drift_statistics(model, rng.integers(0, 200, 3), n, rng)
        decided += [(batch.cov_y, batch.cov_y_ill_conditioned) for batch in batches]
    nan = np.eye(3)
    nan[0, 0] = np.nan
    assert SampleBatch(y=nan, channels=(3,)).cov_y_ill_conditioned is False
    assert calls == []
    given = SampleBatch.from_statistics((2, 3), np.eye(5), np.zeros((5, 1)), 1.0, 3)
    assert given.cov_y_ill_conditioned is False and calls == ["dpotrf"]
    calls.clear()
    drawn = sample_drift_statistics(_drift_model(7, 0.3, RAMP, seed=3),
                                    np.array([0, 60, 140, 140]), 40, rng)
    assert [batch.cov_y_ill_conditioned for batch in drawn] == [False] * 4
    assert calls == ["dpotrf"] * 4
    monkeypatch.undo()
    assert len(decided) > 150
    assert all(ill is True for _, ill in decided)
    assert [ill for _, ill in decided] == [oracles.cholesky_screen(cov) for cov, _ in decided]


def test_drift_statistics_stack_is_one_read_only_array():
    model = _drift_model(6, 0.3, RAMP, seed=2)
    batches = sample_drift_statistics(model, np.array([0, 60, 140]), 25, rng_seed=1)
    assert isinstance(batches, tuple) and [b.t for b in batches] == [0, 60, 140]
    base = batches[0].cov_y.base
    assert base is not None and base.shape == (3, 6, 6) and not base.flags.writeable
    assert all(b.cov_y.base is base for b in batches)
    assert isinstance(sample_drift_statistics(model, 60, 25, rng_seed=1), SampleBatch)
    assert sample_drift_statistics(model, np.zeros(0, dtype=int), 25, rng_seed=1) == ()
    with pytest.raises(ValueError, match=r"1-d array of starts, got shape \(1, 2\)"):
        sample_drift_statistics(model, np.array([[0, 1]]), 25, rng_seed=1)


def test_drift_statistics_without_source_power():
    # source_var = 0: no signal, the batch is white noise of the right size
    model = _drift_model(5, 0.3, RAMP, seed=4, source_var=0.0)
    for batch in sample_drift_statistics(model, np.array([0, 60, 60]), 40, rng_seed=3):
        assert batch.target_power == 0.0 and not batch.cross.any()
        assert np.isfinite(batch.cov_y).all()
        assert np.linalg.eigvalsh(batch.cov_y).min() > 0


_KNOT_VALUES = st.sampled_from([0.0, -0.0, 0.3, 0.3, 1.0])


@pytest.mark.parametrize("schedule", [
    RAMP, STEPS,
    LambdaSchedule((0.0,), (0.0,)),
    LambdaSchedule((30.0, 30.0, 70.0), (0.0, 1.0, 1.0)),        # a jump at 30
    LambdaSchedule((20.0, 40.0, 60.0), (-0.0, 0.0, 0.5)),        # a -0.0 knot
    LambdaSchedule((10.5, 20.5, 40.0), (0.6, 0.6, 0.1)),         # knots between samples
])
@settings(max_examples=40, deadline=None)
@given(knots=st.lists(st.tuples(st.integers(0, 2000).map(lambda x: x / 10), _KNOT_VALUES),
                      max_size=4),
       starts=st.lists(st.integers(-20, 220), min_size=1, max_size=8),
       n=st.integers(1, 60))
def test_schedule_constant_value_equals_interpolation(schedule, knots, starts, n):
    # a window draws as constant, at lambda of its first sample, iff lambda
    # takes that value at every one of its samples: the draw equals the
    # oracle that reads lambda per sample, bitwise and generator state
    # included, over each schedule with up to four knots added in tenths
    # (-0.0, half-integer and closely spaced knots among them)
    knots = sorted([*zip(schedule.times, schedule.values), *knots], key=lambda kv: kv[0])
    model = _drift_model(3, 0.3, LambdaSchedule(*zip(*knots)), seed=5)
    ours, ref = np.random.default_rng(9), np.random.default_rng(9)
    got = sample_drift_statistics(model, np.array(starts), n, ours)
    want = oracles.drift_statistics_draw(model, starts, n, ref)
    for batch, (cov, cross, power) in zip(got, want, strict=True):
        assert np.array_equal(batch.cov_y, cov) and np.array_equal(batch.cross, cross)
        assert batch.target_power == power
    assert ours.bit_generator.state == ref.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=500),
    ramp=st.booleans(),
    t=st.integers(min_value=0, max_value=1000),
    log_vars=st.tuples(*[st.floats(min_value=-4, max_value=3)] * 4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_drift_statistics_property(m, n, ramp, t, log_vars, seed):
    source_var, noise_var, scale, delta_std = (10.0 ** x for x in log_vars)
    schedule = (LambdaSchedule((200.0, 700.0), (0.0, 1.0)) if ramp
                else LambdaSchedule((0.0,), (0.4,)))
    model = _drift_model(m, noise_var, schedule, seed=seed, source_var=source_var,
                         scale=scale, delta_std=delta_std)
    batch = sample_drift_statistics(model, t, n, rng_seed=seed)
    cov, cross = batch.cov_y, batch.cross
    assert cov.shape == (m, m) and cross.shape == (m, 1) and batch.n_samples == n
    assert np.isfinite(cov).all() and np.isfinite(cross).all()
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.linalg.norm(cov, 2)


_ROWS = np.random.default_rng(4).standard_normal((6, 9))


_SCREEN_KINDS = ("spd", "loose", "singular", "nan", "inf")


def _screen_matrix(kind: str, m: int, rng) -> np.ndarray:
    """One symmetric M x M matrix of the kind: well conditioned, one
    eigenvalue 1e-13 among ones to threes, exactly singular (a zero row and
    column), or with a NaN or an infinite pair of entries."""
    a = rng.standard_normal((m, m + 2))
    r = a @ a.T
    k, j = rng.integers(m, size=2)
    if kind == "loose":
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        d = rng.uniform(1.0, 3.0, m)
        d[k] = 1e-13
        r = (q * d) @ q.T
        r = 0.5 * (r + r.T)
    elif kind == "singular":
        r[k] = r[:, k] = 0.0
    elif kind in ("nan", "inf"):
        r[k, j] = r[j, k] = np.nan if kind == "nan" else np.inf
    return r


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 8), kinds=st.lists(st.sampled_from(_SCREEN_KINDS), max_size=6),
       n_samples=st.one_of(st.none(), st.integers(1, 16)), seed=st.integers(0, 2**32 - 1))
def test_conditioning_screen_property(m, kinds, n_samples, seed):
    # every decision is the oracle's, or, for R of N < M samples, True for a
    # finite shift; the stack is read, never written; and a matrix is
    # decided the same in its stack as alone
    rng = np.random.default_rng(seed)
    stack = np.array([_screen_matrix(kind, m, rng) for kind in kinds]).reshape(-1, m, m)
    kept = stack.copy()
    stack.setflags(write=False)
    got = signals.ill_conditioned(stack, n_samples)
    assert got.dtype == bool and got.shape == (len(kinds),)
    assert np.array_equal(stack, kept, equal_nan=True)
    for r, ill in zip(stack, got.tolist()):
        if n_samples is not None and n_samples < m:
            assert ill == bool(np.isfinite(np.abs(r).sum(axis=1).max()))
        else:
            assert ill == oracles.cholesky_screen(r)
        assert signals.ill_conditioned(r[None], n_samples).tolist() == [ill]


@pytest.mark.parametrize("cov, decided", [
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), False),   # not finite
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), False),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), True),           # exactly singular
    (np.zeros((3, 3)), True),
    (np.array([[4.0]]), False),                           # 1 x 1
    (np.array([[0.0]]), True),
    (_ROWS @ _ROWS.T, False),                             # the Cholesky screen passes
    (np.diag([1.0, 1e-13]), True),                        # it fails, the eigenvalues decide
])
def test_conditioning_screen_edge_cases(cov, decided):
    m = cov.shape[0]
    batch = SampleBatch.from_statistics((m,), cov.copy(), np.zeros((m, 1)), 1.0, 3)
    assert batch.cov_y_ill_conditioned == decided == oracles.cholesky_screen(cov)
    # only a shifted copy is factorized: the frozen statistic is untouched
    assert not batch.cov_y.flags.writeable
    assert np.array_equal(batch.cov_y, cov, equal_nan=True)


def test_statistics_batch_rejects_bad_shapes():
    with pytest.raises(ValueError, match=r"cov_y has shape \(4, 4\), expected \(5, 5\)"):
        SampleBatch.from_statistics((2, 3), np.eye(4), np.zeros((5, 1)), 1.0, 10)
    with pytest.raises(ValueError, match=r"cross has shape \(4, 1\), expected \(5, rows\)"):
        SampleBatch.from_statistics((2, 3), np.eye(5), np.zeros((4, 1)), 1.0, 10)
    with pytest.raises(ValueError, match=r"cross has shape \(5,\), expected \(5, rows\)"):
        SampleBatch.from_statistics((2, 3), np.eye(5), np.zeros(5), 1.0, 10)
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="n_samples must be a positive integer"):
            SampleBatch.from_statistics((2, 3), np.eye(5), np.zeros((5, 1)), 1.0, bad)
    with pytest.raises(ValueError, match="statistics only"):
        SampleBatch(y=None, channels=(2,), s=np.ones((1, 3)))
    batch = SampleBatch.from_statistics((2, 3), np.eye(5), np.zeros((5, 2)), 1.5, 10)
    assert batch.n_samples == 10 and batch.target_power == 1.5 and batch.cross.shape == (5, 2)


def test_statistics_batch_refuses_sample_dump(tmp_path):
    batch = SampleBatch.from_statistics((2,), np.eye(2), np.zeros((2, 1)), 1.0, 3)
    for stream in ("y", "v", "s"):
        with pytest.raises(ValueError, match="statistics only"):
            batch.to_csv(tmp_path / f"{stream}.csv", stream)
        assert not (tmp_path / f"{stream}.csv").exists()


def test_drift_model_rejects_stationary_sampler():
    sched = LambdaSchedule((0.0,), (0.0,))
    spec = DriftSpec(np.ones(2), np.ones(2), sched)
    model = SignalModel(channels=(2,), source_var=1.0, noise_var=0.1, drift=spec)
    with pytest.raises(ValueError):
        sample_stationary(model, 0, 8, rng_seed=0)


def test_batch_row_split_validated():
    with pytest.raises(ValueError):
        SampleBatch(y=np.zeros((3, 4)), channels=(2, 2))


def test_batch_rejects_mismatched_streams():
    y = np.zeros((4, 100))
    with pytest.raises(ValueError, match=r"\(4, 40\).*\(4, 100\)"):
        SampleBatch(y=y, channels=(2, 2), v=np.zeros((4, 40)))
    with pytest.raises(ValueError, match=r"\(2, 60\).*\(4, 100\)"):
        SampleBatch(y=y, channels=(2, 2), s=np.zeros((2, 60)))
    with pytest.raises(ValueError, match=r"\(100,\)"):
        SampleBatch(y=y, channels=(2, 2), s=np.zeros(100))
    SampleBatch(y=y, channels=(2, 2), v=np.ones((4, 100)), s=np.ones((1, 100)))


def test_batch_to_csv(tmp_path):
    batch = SampleBatch(y=np.arange(6.0).reshape(2, 3), channels=(1, 1))
    path = tmp_path / "y.csv"
    batch.to_csv(path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.allclose(loaded, batch.y)
    with pytest.raises(ValueError):
        batch.to_csv(tmp_path / "v.csv", stream="v")


# ---------------------------------------------------------------------------
# estimators against loop oracles


def test_batch_statistics_computed_once_and_shared(monkeypatch):
    # one product per stream serves the centralized solve, every step and
    # every objective evaluation on the batch
    from dasf import signals
    from dasf.engine import dasf_run
    from dasf.network import make_path
    from dasf.sfo import TroProblem, evaluate_objective, solve_centralized

    shapes = []
    real = signals.estimate_covariance
    monkeypatch.setattr(signals, "estimate_covariance",
                        lambda y: shapes.append(y.shape) or real(y))
    batch = sample_stationary(_model(channels=(2, 2, 2), extras=2), 0, 300, rng_seed=4)
    prob = TroProblem(n_filters=2)
    out = solve_centralized(prob, batch)
    dasf_run(prob, make_path(3, 2), batch, 6, rng_seed=0)
    evaluate_objective(prob, out.x, batch)
    assert shapes == [(6, 300), (6, 300)]
    assert np.allclose(batch.cov_y, oracles.covariance_loop(batch.y), atol=1e-12)
    assert np.allclose(batch.cov_v, oracles.covariance_loop(batch.v), atol=1e-12)
    assert np.allclose(batch.cross, oracles.cross_loop(batch.y, batch.s), atol=1e-12)
    assert batch.target_power == pytest.approx(mean_squared_norm(batch.s))
    assert not (batch.cov_y.flags.writeable or batch.cross.flags.writeable)
    with pytest.raises(ValueError):
        SampleBatch(y=batch.y, channels=batch.channels).cov_v


def test_covariance_matches_loop_oracle():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((4, 37))
    assert np.allclose(estimate_covariance(y), oracles.covariance_loop(y), atol=1e-12)


def test_cross_matches_loop_oracle():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 23))
    s = rng.standard_normal((2, 23))
    assert np.allclose(estimate_cross(y, s), oracles.cross_loop(y, s), atol=1e-12)


def test_cross_accepts_single_row_target():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((3, 10))
    s = rng.standard_normal(10)
    assert estimate_cross(y, s).shape == (3, 1)


def test_mean_squared_norm_hand_value():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    # (1 + 4 + 9 + 16) / 2 samples
    assert mean_squared_norm(z) == pytest.approx(15.0)


def test_mean_squared_error_hand_value():
    s = np.array([[1.0, 1.0]])
    z = np.array([[0.0, 3.0]])
    assert mean_squared_error(s, z) == pytest.approx((1.0 + 4.0) / 2.0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_covariance_estimator_property(m, n, seed):
    y = np.random.default_rng(seed).standard_normal((m, n))
    cov = estimate_covariance(y)
    assert np.allclose(cov, cov.T)
    assert np.allclose(cov, oracles.covariance_loop(y), atol=1e-10)
    w = np.linalg.eigvalsh(cov)
    assert w.min() >= -1e-10  # positive semidefinite up to roundoff


def test_covariance_converges_to_truth():
    # large-sample check against the model's analytic covariance
    model = _model(channels=(3, 3), sources=2, seed=8)
    batch = sample_stationary(model, 0, 200_000, rng_seed=11)
    truth = 0.5 * model.mix_y @ model.mix_y.T + 0.1 * np.eye(6)
    assert np.allclose(estimate_covariance(batch.y), truth, atol=2e-2)
