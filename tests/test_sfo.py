import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dasf.network import make_fully_connected, make_path
from dasf import sfo
from dasf.sfo import (
    DIAG_LOAD,
    CompressedInstance,
    FEASIBILITY_RTOL,
    InfeasibleProblemError,
    MmseProblem,
    QcqpProblem,
    ScqpProblem,
    SolverError,
    TroProblem,
    align_orthogonal,
    align_signs,
    align_to_anchor,
    centralized_instance,
    check_constraint_bound,
    evaluate_objective,
    solve_centralized,
    solve_instance,
    solve_mmse,
    solve_scqp,
    solve_tro,
)
from dasf.signals import COND_LIMIT, SampleBatch, estimate_covariance


def _batch(m, n, rng, with_v=False, s_rows=0):
    y = rng.standard_normal((m, n))
    v = rng.standard_normal((m, n)) + y if with_v else None
    s = rng.standard_normal((s_rows, n)) if s_rows else None
    return SampleBatch(y=y, channels=(m,), v=v, s=s)


def _qcqp(m, q, rng, radius_scale=1.5):
    a = rng.standard_normal((m, q))
    c = rng.standard_normal(m)
    d = rng.standard_normal(q)
    radius = radius_scale * np.linalg.norm(d) / np.linalg.norm(c)
    return QcqpProblem(n_filters=q, linear_term=a, gain_vector=c,
                       target_response=d, radius=radius)


# ---------------------------------------------------------------------------
# mmse


def test_mmse_matches_lstsq_oracle():
    rng = np.random.default_rng(0)
    batch = _batch(6, 400, rng, s_rows=2)
    prob = MmseProblem(n_filters=2)
    out = solve_centralized(prob, batch)
    expected = oracles.lstsq_estimator(batch.y, batch.s)
    assert np.allclose(out.x, expected, atol=1e-9)
    assert evaluate_objective(prob, out.x, batch) == pytest.approx(
        oracles.mse_of(out.x, batch.y, batch.s))
    assert out.residuals.size == 0


def test_mmse_loading_handles_singular_covariance():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((3, 200))
    y[2] = y[1]                       # duplicated channel, singular covariance
    s = y[:1] + 0.01 * rng.standard_normal((1, 200))
    batch = SampleBatch(y=y, channels=(3,), s=s)
    out = solve_centralized(MmseProblem(n_filters=1), batch)
    assert np.all(np.isfinite(out.x))
    # consistent system: loaded solve approaches the pseudo-inverse solution
    cov = estimate_covariance(y)
    pinv_x = np.linalg.pinv(cov) @ (y @ s.T / y.shape[1])
    assert np.allclose(out.x, pinv_x, atol=1e-5)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_mmse_loading_decision_is_the_condition_number(factor):
    # a batch whose covariance has eigenvalues from 1 down to
    # 1 / (factor COND_LIMIT) in a random basis: the network instance is
    # loaded exactly when np.linalg.cond says cond > COND_LIMIT
    rng = np.random.default_rng(40)
    w = np.array([1.0, 0.6, 0.3, 1.0 / (factor * COND_LIMIT)])
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    batch = SampleBatch(y=2.0 * v * np.sqrt(w), channels=(4,),
                        s=rng.standard_normal((1, 4)))
    cov, cross = batch.cov_y, batch.cross
    loads = np.linalg.cond(cov) > COND_LIMIT
    assert loads == (factor > 1.0)
    inst = centralized_instance(MmseProblem(n_filters=1), batch)
    load = DIAG_LOAD * np.trace(cov) / 4
    assert inst.load == (load if loads else 0.0)
    out = solve_mmse(inst)
    loaded = v @ ((v.T @ cross) / (w + load)[:, None])
    unloaded = v @ ((v.T @ cross) / w[:, None])
    expected, other = (loaded, unloaded) if loads else (unloaded, loaded)
    assert np.allclose(out.x, expected, rtol=1e-2, atol=0)
    assert not np.allclose(out.x, other, rtol=0.5, atol=0)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=30),
    log_cond=st.floats(min_value=0.0, max_value=16.0),
    log_scale=st.floats(min_value=-8.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mmse_loading_decision_property(m, log_cond, log_scale, seed):
    # the batch's Cholesky screen decides as the eigenvalue rule does, and as
    # np.linalg.cond outside the band where their rounding of lambda_min
    # differs (about m eps COND_LIMIT relative)
    rng = np.random.default_rng(seed)
    exponents = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, max(m - 2, 0))])[:m]
    w = 10.0 ** (-log_cond * exponents)
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    cov = 10.0 ** log_scale * (v * w) @ v.T
    cov = (cov + cov.T) / 2
    batch = SampleBatch.from_statistics((m,), cov, np.zeros((m, 1)), 1.0, 3)
    decided = batch.cov_y_ill_conditioned
    mag = np.abs(np.linalg.eigvalsh(cov))
    assert decided == (not mag.min() > 0 or mag.max() / mag.min() > COND_LIMIT)
    cond = np.linalg.cond(cov)
    if abs(cond / COND_LIMIT - 1) > m * np.finfo(float).eps * COND_LIMIT:
        assert decided == (cond > COND_LIMIT)


@pytest.mark.parametrize("cause, y_value", [("non-finite", np.nan), ("all zero", 0.0)])
def test_mmse_rejects_degenerate_covariance(cause, y_value):
    # without the check the eigen-solve returns inf or NaN silently
    rng = np.random.default_rng(41)
    batch = SampleBatch(y=np.full((3, 20), y_value), channels=(3,),
                        s=rng.standard_normal((1, 20)))
    with pytest.raises(SolverError, match=f"mmse: covariance .*{cause}"):
        solve_centralized(MmseProblem(n_filters=1), batch)


def test_mmse_exactly_singular_covariance_raises():
    # rank one with no ridge: the LU factorization meets an exact zero pivot
    instance = CompressedInstance(problem=MmseProblem(n_filters=1),
                                  cov_y=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                  cross=np.array([[1.0], [0.5]]), target_power=1.0, load=0.0)
    with pytest.raises(SolverError, match="mmse: covariance is singular"):
        solve_mmse(instance)


_NAN_COV = np.array([[1.0, np.nan], [np.nan, 1.0]])
_INF_DIAG_COV = np.array([[np.inf, 0.0], [0.0, 1.0]])   # dgesv returns a finite x here
_ZERO_COV = np.zeros((2, 2))
_GOOD_COV = np.array([[2.0, 0.5], [0.5, 1.0]])
_INF_CROSS = np.array([[1.0], [np.inf]])
_GOOD_CROSS = np.array([[1.0], [0.5]])


@pytest.mark.parametrize("cov, cross, load, message", [
    (_ZERO_COV, _GOOD_CROSS, 0.0, "mmse: covariance is all zero"),
    (_ZERO_COV, _GOOD_CROSS, 1e-3, "mmse: covariance is all zero"),
    (_NAN_COV, _GOOD_CROSS, 0.0, "mmse: covariance has non-finite entries"),
    (_INF_DIAG_COV, _GOOD_CROSS, 0.0, "mmse: covariance has non-finite entries"),
    (_GOOD_COV, _INF_CROSS, 0.0, "mmse: cross-correlation has non-finite entries"),
    (_GOOD_COV, _INF_CROSS, 1e-3, "mmse: cross-correlation has non-finite entries"),
    (np.ones((2, 2)), _GOOD_CROSS, 0.0, "mmse: covariance is singular"),
    # several causes at once: named in the order the checks have always run
    (_NAN_COV, _INF_CROSS, 0.0, "mmse: covariance has non-finite entries"),
    (_ZERO_COV, _INF_CROSS, 0.0, "mmse: cross-correlation has non-finite entries"),
])
def test_mmse_input_errors_keep_their_messages(cov, cross, load, message):
    # the solve runs ahead of the input checks, which name the cause only
    # when its screen or dgesv fails; the messages stay those of the checks
    instance = CompressedInstance(problem=MmseProblem(n_filters=1), cov_y=cov, cross=cross,
                                  target_power=1.0, load=load)
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        solve_mmse(instance)


def test_mmse_screen_passes_finite_totals_whose_sum_overflows():
    # each total is finite and their sum is not: the screen sends the solve
    # through the checks, which find every entry finite, so the solve stands,
    # without a warning
    big = 0.4 * np.finfo(float).max
    instance = CompressedInstance(problem=MmseProblem(n_filters=1),
                                  cov_y=np.diag([big, big]), cross=np.array([[big], [big]]),
                                  target_power=1.0, load=0.0)
    outcome = solve_mmse(instance)
    assert outcome.x.tolist() == [[1.0], [1.0]] and outcome.iterations == 1
    assert outcome.residuals.shape == (0,) and not outcome.residuals.flags.writeable


def test_mmse_requires_target_rows():
    rng = np.random.default_rng(2)
    batch = _batch(4, 50, rng)
    with pytest.raises(ValueError):
        solve_centralized(MmseProblem(n_filters=1), batch)


def test_centralized_instance_names_the_missing_stream():
    # the batch's own statistics raise, naming the stream the problem reads
    batch = _batch(4, 50, np.random.default_rng(3))
    with pytest.raises(ValueError, match="batch has no second stream"):
        centralized_instance(TroProblem(n_filters=1), batch)
    with pytest.raises(ValueError, match="batch has no target rows"):
        centralized_instance(MmseProblem(n_filters=1), batch)


# ---------------------------------------------------------------------------
# qcqp


def test_qcqp_matches_slsqp_oracle():
    rng = np.random.default_rng(3)
    prob = _qcqp(6, 2, rng)
    batch = _batch(6, 500, rng)
    out = solve_centralized(prob, batch)
    cov = estimate_covariance(batch.y)
    x_ref, f_ref = oracles.qcqp_slsqp(
        cov, prob.linear_term, prob.gain_vector, prob.target_response,
        prob.radius, np.eye(6), np.random.default_rng(30),
    )
    f = evaluate_objective(prob, out.x, batch)
    assert f <= f_ref + 1e-6 * (1 + abs(f_ref))
    assert abs(f - f_ref) <= 1e-6 * (1 + abs(f_ref))
    assert out.residuals.max() <= FEASIBILITY_RTOL


def test_qcqp_kkt_stationarity():
    # gradient must lie in the span of the active constraint normals with a
    # single nonnegative ball multiplier shared across columns
    rng = np.random.default_rng(4)
    prob = _qcqp(5, 2, rng, radius_scale=1.1)   # tight ball, surely active
    batch = _batch(5, 300, rng)
    out = solve_centralized(prob, batch)
    cov = estimate_covariance(batch.y)
    m, q = 5, 2
    grad = cov @ out.x - prob.linear_term
    design = np.zeros((m * q, 1 + q))
    design[:, 0] = out.x.ravel(order="F")       # identity metric: M X = X
    for j in range(q):
        design[j * m:(j + 1) * m, 1 + j] = prob.gain_vector
    coef, *_ = np.linalg.lstsq(design, -grad.ravel(order="F"), rcond=None)
    fit = design @ coef + grad.ravel(order="F")
    assert np.linalg.norm(fit) <= 1e-6 * max(1.0, np.linalg.norm(grad))
    assert coef[0] >= -1e-8                     # ball multiplier nonnegative


def test_qcqp_infeasible_radius_raises():
    rng = np.random.default_rng(5)
    prob = _qcqp(4, 1, rng, radius_scale=0.5)   # below the plane minimum
    batch = _batch(4, 100, rng)
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(prob, batch)
    with pytest.raises(InfeasibleProblemError):
        prob.random_feasible(4, rng)


def test_qcqp_interior_shortcut():
    rng = np.random.default_rng(6)
    prob = _qcqp(4, 1, rng, radius_scale=1e4)   # huge ball, equality only binds
    batch = _batch(4, 200, rng)
    out = solve_centralized(prob, batch)
    assert out.iterations == 0
    ball = float(np.sum(out.x * out.x))
    assert ball < prob.radius**2 * 0.99
    # equality-only minimizer: gradient orthogonal to the plane directions
    cov = estimate_covariance(batch.y)
    grad = cov @ out.x - prob.linear_term
    c = prob.gain_vector / np.linalg.norm(prob.gain_vector)
    tangent = grad - np.outer(c, c @ grad)
    assert np.linalg.norm(tangent) <= 1e-8 * max(1.0, np.linalg.norm(grad))


def test_qcqp_dimension_one_is_pinned():
    rng = np.random.default_rng(7)
    prob = QcqpProblem(n_filters=1, linear_term=np.array([[0.3]]),
                       gain_vector=np.array([2.0]),
                       target_response=np.array([1.0]), radius=10.0)
    batch = _batch(1, 50, rng)
    out = solve_centralized(prob, batch)
    assert out.x == pytest.approx(np.array([[0.5]]))


# ---------------------------------------------------------------------------
# the secular equation of qcqp and scqp


def _secular_g(lam, b, mu):
    b2 = np.sum(b * b, axis=1)
    live = b2 > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(b2[live] / (lam[live] + mu) ** 2))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=3),
    zeros=st.integers(min_value=0, max_value=3),
    clustered=st.booleans(),
    zero_rows=st.floats(min_value=0.0, max_value=0.8),
    log_frac=st.floats(min_value=-12.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_secular_root_property(n, q, zeros, clustered, zero_rows, log_frac, seed):
    # lam >= 0 with exact zeros and clusters, b with zero rows, and s^2 from
    # 1e-12 to 1e6 of g(0) (of g(1) when a zero lam has a nonzero row)
    rng = np.random.default_rng(seed)
    lam = np.sort(10.0 ** rng.uniform(-6, 4, n))
    if clustered:
        lam[n // 2:] = lam[n // 2] * (1.0 + 1e-13 * rng.integers(0, 3, n - n // 2))
    lam[:zeros] = 0.0
    b = rng.standard_normal((n, q)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    b[rng.random(n) < zero_rows] = 0.0
    b[rng.integers(n)] += 1.0                  # at least one nonzero row
    g0 = _secular_g(lam, b, 0.0)
    s2 = 10.0 ** log_frac * (g0 if np.isfinite(g0) else _secular_g(lam, b, 1.0))
    mu, steps = sfo._secular_root(lam, b, s2, "test")
    # the least mu >= 0 with g(mu) <= s^2: a root when positive
    assert mu >= 0.0 and steps <= sfo.SECULAR_MAX_ITER
    if mu > 0.0:
        assert abs(_secular_g(lam, b, mu) / s2 - 1.0) <= 1e-13
    else:
        assert g0 <= s2


def test_secular_root_failure_names_the_family(monkeypatch):
    monkeypatch.setattr(sfo, "SECULAR_MAX_ITER", 1)
    with pytest.raises(SolverError, match="^scqp: secular equation did not converge in 1 steps"):
        sfo._secular_root(np.array([0.0, 1.0]), np.ones((2, 1)), 0.5, "scqp")


def test_qcqp_null_space_basis_is_orthonormal():
    # with the ball active the solution lies on the sphere and the plane to
    # rounding, which needs c^T Z = 0 and Z^T Z = I of the Householder basis;
    # gain vectors of either sign of c_0, as the reflector takes its sign
    rng = np.random.default_rng(71)
    for m in (2, 5, 40):
        for sign in (1.0, -1.0):
            c = rng.standard_normal(m)
            c[0] = sign * abs(c[0])
            d = rng.standard_normal(2)
            prob = QcqpProblem(n_filters=2, linear_term=100.0 * rng.standard_normal((m, 2)),
                               gain_vector=c, target_response=d,
                               radius=1.2 * np.linalg.norm(d) / np.linalg.norm(c))
            out = solve_centralized(prob, _batch(m, 300, rng))
            assert abs(np.sum(out.x * out.x) / prob.radius**2 - 1.0) <= 1e-13
            assert np.abs(c @ out.x - d).max() <= 1e-13 * np.abs(d).max()


# ---------------------------------------------------------------------------
# tro


def test_tro_diagonal_analytic():
    m = 4
    y = np.sqrt(m) * np.eye(m)                  # sample covariance exactly I
    d = np.array([1.0, 2.0, 3.0, 4.0])
    batch = SampleBatch(y=y, channels=(m,), v=d[:, None] * y)
    prob = TroProblem(n_filters=2)
    out = solve_centralized(prob, batch)
    assert evaluate_objective(prob, out.x, batch) == pytest.approx(-(16.0 + 9.0) / 2.0)
    # solution spans the two dominant coordinate axes
    span = np.abs(out.x[2:, :])
    assert np.allclose(np.abs(out.x[:2, :]), 0.0, atol=1e-10)
    assert np.allclose(span @ span.T, np.eye(2), atol=1e-10)


def test_tro_history_is_nondecreasing():
    rng = np.random.default_rng(8)
    batch = _batch(6, 800, rng, with_v=True)
    out = solve_centralized(TroProblem(n_filters=2), batch)
    hist = np.asarray(out.history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) >= -1e-12)
    assert out.residuals.max() <= FEASIBILITY_RTOL


def test_tro_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    batch = _batch(5, 600, rng, with_v=True)
    prob = TroProblem(n_filters=2)
    out = solve_centralized(prob, batch)
    rho_ref = oracles.tro_rho_bisect(
        estimate_covariance(batch.y), estimate_covariance(batch.v), np.eye(5), 2,
    )
    assert -evaluate_objective(prob, out.x, batch) == pytest.approx(rho_ref, rel=1e-7)


def test_tro_constant_ratio_returns_anchor():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((4, 300))
    batch = SampleBatch(y=y, channels=(4,), v=y.copy())   # ratio is 1 everywhere
    anchor, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    prob = TroProblem(n_filters=2)
    inst = centralized_instance(prob, batch, anchor)
    out = solve_tro(inst)
    assert np.allclose(out.x, anchor, atol=1e-10)


def test_tro_rank_deficient_anchor_rejected():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((4, 100))
    anchor = np.ones((4, 2))                    # identical columns
    inst = centralized_instance(TroProblem(n_filters=2),
                                SampleBatch(y=y, channels=(4,), v=2 * y), anchor)
    with pytest.raises(SolverError):
        solve_tro(inst)


# ---------------------------------------------------------------------------
# scqp


def test_scqp_matches_slsqp_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 2))
    batch = _batch(5, 500, rng)
    prob = ScqpProblem(n_filters=2, linear_term=a)
    out = solve_centralized(prob, batch)
    cov = estimate_covariance(batch.y)
    x_ref, f_ref = oracles.scqp_slsqp(cov, a, np.eye(5), np.random.default_rng(31))
    assert abs(evaluate_objective(prob, out.x, batch) - f_ref) <= 1e-6 * (1 + abs(f_ref))
    assert out.residuals.max() <= FEASIBILITY_RTOL


def test_scqp_zero_linear_term_is_bottom_eigenvector():
    rng = np.random.default_rng(13)
    batch = _batch(5, 400, rng)
    cov = estimate_covariance(batch.y)
    lam, vec = np.linalg.eigh(cov)
    prob = ScqpProblem(n_filters=1, linear_term=np.zeros((5, 1)))
    out = solve_centralized(prob, batch)
    assert evaluate_objective(prob, out.x, batch) == pytest.approx(0.5 * lam[0], rel=1e-10)
    assert abs(float(vec[:, 0] @ out.x[:, 0])) == pytest.approx(1.0, abs=1e-10)


def test_scqp_hard_case_follows_anchor_sign():
    rng = np.random.default_rng(14)
    y = rng.standard_normal((4, 300))
    cov = estimate_covariance(y)
    _, vec = np.linalg.eigh(cov)
    u1 = vec[:, :1]
    prob = ScqpProblem(n_filters=1, linear_term=np.zeros((4, 1)))
    batch = SampleBatch(y=y, channels=(4,))
    for sign in (1.0, -1.0):
        inst = centralized_instance(prob, batch, sign * u1)
        out = solve_scqp(inst)
        assert float(u1[:, 0] @ out.x[:, 0]) * sign > 0.999


# ---------------------------------------------------------------------------
# alignment helpers


def test_align_signs_is_brute_force_optimal():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((5, 3))
    anchor = rng.standard_normal((5, 3))
    got = align_signs(x, anchor)
    best = min(
        (np.linalg.norm(x * np.array(f) - anchor)
         for f in itertools.product((1.0, -1.0), repeat=3)),
    )
    assert np.linalg.norm(got - anchor) == pytest.approx(best)


def test_align_orthogonal_recovers_rotation():
    rng = np.random.default_rng(16)
    base, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    aligned = align_orthogonal(base @ rot, base)
    assert np.allclose(aligned, base, atol=1e-10)
    # spot-check optimality against random orthogonal candidates
    x = rng.standard_normal((6, 3))
    anchor = rng.standard_normal((6, 3))
    got = np.linalg.norm(align_orthogonal(x, anchor) - anchor)
    for _ in range(50):
        omega, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert got <= np.linalg.norm(x @ omega - anchor) + 1e-12


def test_align_to_anchor_dispatch():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 2))
    anchor = rng.standard_normal((4, 2))
    assert align_to_anchor(x, None, "orthogonal") is x
    assert align_to_anchor(x, anchor, "none") is x
    for unknown in ("sign", "bogus"):
        with pytest.raises(ValueError):
            align_to_anchor(x, anchor, unknown)


# ---------------------------------------------------------------------------
# constraint counting and the network capacity bound


def test_constraint_counts_per_family():
    rng = np.random.default_rng(18)
    assert MmseProblem(n_filters=3).constraint_count() == 0
    assert _qcqp(5, 3, rng).constraint_count() == 4
    assert TroProblem(n_filters=3).constraint_count() == 9
    assert ScqpProblem(n_filters=3, linear_term=np.zeros((5, 3))).constraint_count() == 1


def test_random_feasible_points_are_feasible():
    rng = np.random.default_rng(19)
    qcqp = _qcqp(6, 2, rng)
    scqp = ScqpProblem(n_filters=2, linear_term=rng.standard_normal((6, 2)))
    for prob in (qcqp, TroProblem(n_filters=2), scqp):
        x = prob.random_feasible(6, rng)
        assert x.shape == (6, 2)
        res = prob.residuals_on(x)
        assert res.max() <= 1e-10


def test_bound_fully_connected():
    graph = make_fully_connected(10, 4)
    check = check_constraint_bound(TroProblem(n_filters=3), graph)
    assert check.applicable and check.ok
    assert check.limit == pytest.approx(90.0)
    assert check.count == 9


def test_bound_path_warns_when_exceeded():
    graph = make_path(4, 2)

    class Overconstrained(TroProblem):
        def constraint_count(self):
            return 5

    with pytest.warns(RuntimeWarning):
        check = check_constraint_bound(Overconstrained(n_filters=1), graph)
    assert check.limit == pytest.approx(2.0)
    assert check.count == 5
    assert check.ok is False


def test_bound_single_node_not_applicable():
    graph = make_fully_connected(1, 3)
    check = check_constraint_bound(TroProblem(n_filters=2), graph)
    assert check.applicable is False
    assert check.limit is None and check.ok is None


# ---------------------------------------------------------------------------
# feasibility property across families


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["mmse", "qcqp", "tro", "scqp"]),
)
def test_solver_outputs_are_feasible(m, seed, kind):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, min(3, m) + 1)) if kind != "tro" else int(rng.integers(1, m))
    if kind == "mmse":
        prob = MmseProblem(n_filters=q)
        batch = _batch(m, 80, rng, s_rows=q)
    elif kind == "qcqp":
        prob = _qcqp(m, q, rng)
        batch = _batch(m, 80, rng)
    elif kind == "tro":
        prob = TroProblem(n_filters=q)
        batch = _batch(m, 120, rng, with_v=True)
    else:
        prob = ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
        batch = _batch(m, 80, rng)
    out = solve_centralized(prob, batch)
    assert np.all(np.isfinite(out.x))
    local = centralized_instance(prob, batch).objective(out.x)
    assert np.isfinite(local)
    if out.residuals.size:
        assert out.residuals.max() <= FEASIBILITY_RTOL
    assert local == pytest.approx(evaluate_objective(prob, out.x, batch))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["mmse", "qcqp", "tro", "scqp"]),
)
def test_objective_from_statistics_equals_sample_estimate(m, seed, kind):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    if kind == "mmse":
        prob = MmseProblem(n_filters=q)
    elif kind == "qcqp":
        prob = _qcqp(m, q, rng)
    elif kind == "tro":
        prob = TroProblem(n_filters=q)
    else:
        prob = ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
    batch = _batch(m, 50, rng, with_v=True, s_rows=q)
    x = rng.standard_normal((m, q))
    expected = oracles.objective_on_samples(prob, x, batch.y, batch.v, batch.s)
    assert evaluate_objective(prob, x, batch) == pytest.approx(expected, rel=1e-10, abs=1e-12)
    inst = centralized_instance(prob, batch)
    assert inst.objective(x) == pytest.approx(expected, rel=1e-10, abs=1e-12)
