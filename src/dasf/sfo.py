"""Spatial filter optimization: problem families, local instances, solvers.

Every problem couples second-order statistics of one or two streams with
deterministic terms and at most one quadratic constraint family on X^T X,
and objectives are evaluated in closed trace form on those statistics. The
same solver code serves the network-wide problem and the compressed
per-node problems built by the fusion engine: for the current transition
matrix C every covariance R becomes C^T R C and every term B becomes C^T B.
The engine gives C orthonormal columns, so C^T C = I and the quadratic
constraints keep their network-wide form in every local problem.

Shipped families:

* mmse  - unconstrained target estimation, closed-form normal equations
* qcqp  - quadratic objective, one ball and one linear-response equality
          constraint, solved via null-space elimination plus a secular
          equation for the ball multiplier
* tro   - filtered-power trace ratio of two streams on the orthonormal
          (Stiefel) manifold, solved by a ratio fixed point over
          eigenvector subproblems
* scqp  - quadratic objective on the unit sphere, solved via the secular
          equation of the shifted linear system
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from ._lapack import dgesv
from .signals import SampleBatch

__all__ = [
    "SfoProblem",
    "MmseProblem",
    "QcqpProblem",
    "TroProblem",
    "ScqpProblem",
    "CompressedInstance",
    "SolveOutcome",
    "BoundCheck",
    "SolverError",
    "InfeasibleProblemError",
    "solve_mmse",
    "solve_qcqp",
    "solve_tro",
    "solve_scqp",
    "solve_instance",
    "centralized_instance",
    "solve_centralized",
    "evaluate_objective",
    "constraint_residuals",
    "check_constraint_bound",
    "align_signs",
    "align_orthogonal",
    "align_to_anchor",
    "FEASIBILITY_RTOL",
]


class SolverError(RuntimeError):
    """A solver could not produce a solution meeting its contract."""


class InfeasibleProblemError(SolverError):
    """The constraint set of an instance is empty."""


FEASIBILITY_RTOL = 1e-8     # relative feasibility tolerance on returned solutions
BALL_TOL = 1e-10            # ball slack accepted by the QCQP interior shortcut
BALL_TIGHT_RTOL = 1e-12     # r^2 this close to the plane minimum: the ball only touches it
SECULAR_MAX_ITER = 100      # Newton (or fallback bisection) steps before a secular solve gives up
SECULAR_STEP_RTOL = 4.0 * np.finfo(float).eps   # a secular step this small against mu ends it
RATIO_TOL = 1e-10           # trace-ratio fixed-point tolerance, relative to max(1, |rho|)
RATIO_MAX_ITER = 200
DIAG_LOAD = 1e-10           # loading factor, scaled by trace(R)/dim


# --------------------------------------------------------------------------
# problem families


@dataclass(frozen=True)
class SfoProblem:
    """Base class: a filter-width plus family-specific deterministic data."""

    n_filters: int

    kind: ClassVar[str] = "abstract"
    uses_second_stream: ClassVar[bool] = False
    uses_target: ClassVar[bool] = False
    # whether the local solve reads the instance's anchor C^T x (the current
    # filter in local coordinates), for tie-breaks or as a start
    uses_anchor: ClassVar[bool] = True
    # solution-set symmetry the engine may search when tie-breaking:
    # "none" or "orthogonal" (right O(Q) orbit)
    symmetry: ClassVar[str] = "none"

    def __post_init__(self):
        if self.n_filters < 1:
            raise ValueError("n_filters must be positive")

    def b_term_matrices(self) -> dict[str, np.ndarray]:
        """Named network-wide linear-term matrices, each (M, L)."""
        return {}

    def constraint_count(self) -> int:
        """Number of scalar constraints (matrix equalities count entrywise)."""
        return 0

    def objective_on(self, x, stats, terms=None):
        """Objective at x from second-order statistics: ``stats`` carries
        ``cov_y`` and, where the family uses them, ``cov_v``, ``cross`` and
        ``target_power`` (a SampleBatch or a CompressedInstance). x may be a
        (T, M, Q) stack of points against one batch's statistics; the result
        then has shape (T,). Statistics stacked the same way broadcast too,
        as the tests' frozen step loop evaluates them."""
        raise NotImplementedError

    def residuals_on(self, x, terms=None) -> np.ndarray:
        """Per-constraint feasibility residuals (violations, relative scale),
        on the last axis; a (T, M, Q) stack of points gives T rows."""
        return np.zeros(x.shape[:-2] + (0,))

    def random_feasible(self, dim: int, rng) -> np.ndarray:
        """A random (dim, n_filters) point satisfying the constraints."""
        raise NotImplementedError


def _trace(a: np.ndarray, b: np.ndarray):
    """tr(A^T B), per point of a stack, without the product A * B."""
    return np.einsum("...ij,...ij->...", a, b)


def _power(x: np.ndarray, cov: np.ndarray):
    """tr(X^T R X), the mean power of the filtered stream E||X^T y(t)||^2."""
    return _trace(x, cov @ x)


@dataclass(frozen=True)
class MmseProblem(SfoProblem):
    """Estimate known target rows from the primary stream, minimum MSE.

    Unconstrained; n_filters must match the number of target rows.
    """

    kind: ClassVar[str] = "mmse"
    uses_target: ClassVar[bool] = True
    uses_anchor: ClassVar[bool] = False   # the closed form is unique

    def objective_on(self, x, stats, terms=None):
        # E||s(t) - X^T y(t)||^2 = tr R_ss - 2 tr(X^T R_ys) + tr(X^T R_yy X)
        return (stats.target_power - 2.0 * _trace(x, stats.cross)
                + _power(x, stats.cov_y))

    def random_feasible(self, dim, rng):
        return rng.standard_normal((dim, self.n_filters))


@dataclass(frozen=True)
class QcqpProblem(SfoProblem):
    """Quadratic objective with a ball and a linear-response equality.

    minimize   0.5 E||x(t)||^2 - tr(X^T A),  x(t) = X^T y(t)
    subject to tr(X^T X) <= radius^2  and  X^T c = target_response

    where A = ``linear_term`` (M, Q) and c = ``gain_vector`` (M,).
    Feasibility requires radius^2 >= ||d||^2 / ||c||^2.
    """

    linear_term: np.ndarray = None
    gain_vector: np.ndarray = None
    target_response: np.ndarray = None
    radius: float = 1.0

    kind: ClassVar[str] = "qcqp"

    def __post_init__(self):
        super().__post_init__()
        a = np.atleast_2d(np.asarray(self.linear_term, dtype=float))
        c = np.asarray(self.gain_vector, dtype=float).ravel()
        d = np.asarray(self.target_response, dtype=float).ravel()
        if a.shape[1] != self.n_filters or d.size != self.n_filters:
            raise ValueError("linear_term columns and target_response must match n_filters")
        if a.shape[0] != c.size:
            raise ValueError("linear_term rows and gain_vector must match")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(float(self.radius) * float(self.radius)):
            raise ValueError(f"radius must have a finite square, got {self.radius!r}")
        object.__setattr__(self, "linear_term", a)
        object.__setattr__(self, "gain_vector", c)
        object.__setattr__(self, "target_response", d)

    def b_term_matrices(self):
        return {"linear": self.linear_term, "gain": self.gain_vector[:, None]}

    def constraint_count(self):
        return 1 + self.n_filters

    def objective_on(self, x, stats, terms=None):
        a = (terms or self.b_term_matrices())["linear"]
        return 0.5 * _power(x, stats.cov_y) - _trace(x, a)

    def residuals_on(self, x, terms=None):
        c = (terms or self.b_term_matrices())["gain"].ravel()
        d = self.target_response
        ball = _trace(x, x) - self.radius**2
        out = np.empty(x.shape[:-2] + (1 + self.n_filters,))
        out[..., 0] = np.maximum(0.0, ball) / max(1.0, self.radius**2)
        out[..., 1:] = np.abs(c @ x - d) / max(1.0, float(np.max(np.abs(d), initial=0.0)))
        return out

    def random_feasible(self, dim, rng):
        c, d, r2 = self.gain_vector, self.target_response, self.radius**2
        x = rng.standard_normal((dim, self.n_filters))
        x -= np.outer(c, c @ x - d) / (c @ c)
        x_min = np.outer(c, d) / (c @ c)      # minimum-norm point on the plane
        h = x - x_min                         # plane-parallel part, orthogonal to x_min
        slack = r2 - float(np.sum(x_min * x_min))
        if slack < -1e-9 * r2:
            raise InfeasibleProblemError("radius below the minimum-norm response")
        slack = max(slack, 0.0)               # a radius at the plane minimum, up to rounding
        hn = float(np.sum(h * h))
        if hn > 0.9 * slack:
            h *= np.sqrt(0.9 * slack / hn) if slack > 0 else 0.0
        return x_min + h


@dataclass(frozen=True)
class TroProblem(SfoProblem):
    """Maximize the filtered-power ratio of the second stream over the first.

    maximize   E||X^T v(t)||^2 / E||X^T y(t)||^2
    subject to X^T X = I

    reported as a minimization of the negated ratio. The solution set is the
    full right-orthogonal orbit of any optimizer.
    """

    kind: ClassVar[str] = "tro"
    uses_second_stream: ClassVar[bool] = True
    symmetry: ClassVar[str] = "orthogonal"

    def constraint_count(self):
        return self.n_filters**2

    def objective_on(self, x, stats, terms=None):
        return -(_power(x, stats.cov_v) / _power(x, stats.cov_y))

    def residuals_on(self, x, terms=None):
        gap = np.swapaxes(x, -1, -2) @ x - np.eye(self.n_filters)
        return np.abs(gap).reshape(x.shape[:-2] + (self.n_filters**2,))

    def random_feasible(self, dim, rng):
        if dim < self.n_filters:
            raise ValueError("dimension below filter count")
        q, _ = np.linalg.qr(rng.standard_normal((dim, self.n_filters)))
        return q


@dataclass(frozen=True)
class ScqpProblem(SfoProblem):
    """Quadratic objective on the unit sphere.

    minimize   0.5 E||x(t)||^2 + tr(X^T A)
    subject to tr(X^T X) = 1
    """

    linear_term: np.ndarray = None

    kind: ClassVar[str] = "scqp"

    def __post_init__(self):
        super().__post_init__()
        a = np.atleast_2d(np.asarray(self.linear_term, dtype=float))
        if a.shape[1] != self.n_filters:
            raise ValueError("linear_term columns must match n_filters")
        object.__setattr__(self, "linear_term", a)

    def b_term_matrices(self):
        return {"linear": self.linear_term}

    def constraint_count(self):
        return 1

    def objective_on(self, x, stats, terms=None):
        a = (terms or self.b_term_matrices())["linear"]
        return 0.5 * _power(x, stats.cov_y) + _trace(x, a)

    def residuals_on(self, x, terms=None):
        return np.abs(_trace(x, x) - 1.0)[..., None]

    def random_feasible(self, dim, rng):
        x = rng.standard_normal((dim, self.n_filters))
        return x / np.sqrt(np.sum(x * x))


# --------------------------------------------------------------------------
# instances and outcomes


@dataclass
class CompressedInstance:
    """Data for one solve: statistics, compressed terms, ridge, anchor.

    With the network-wide statistics and terms this is the centralized
    problem (``centralized_instance``); ``compressed`` maps it to the local
    coordinates of a transition matrix C with orthonormal columns.
    """

    problem: SfoProblem
    cov_y: np.ndarray                           # (dim, dim) primary-stream covariance
    cov_v: np.ndarray | None = None             # (dim, dim) second-stream covariance
    cross: np.ndarray | None = None             # (dim, S) cross-correlation with the targets
    target_power: float | None = None           # tr(R_ss), unchanged by compression
    b_terms: dict[str, np.ndarray] = field(default_factory=dict)
    load: float = 0.0                           # ridge the mmse solve adds to cov_y
    anchor: np.ndarray | None = None            # (dim, Q) tie-break reference

    @property
    def dim(self) -> int:
        return self.cov_y.shape[0]

    def compressed(self, c: np.ndarray, anchor: np.ndarray | None = None) -> CompressedInstance:
        """The same problem over local points X with network point C X, for C
        with orthonormal columns: C^T R C, C^T R_ys and C^T B; the ridge stays,
        as C^T (R + load I) C = C^T R C + load I."""
        return CompressedInstance(   # positional, in field order
            self.problem,
            _congruence(c, self.cov_y),
            None if self.cov_v is None else _congruence(c, self.cov_v),
            None if self.cross is None else c.T @ self.cross,
            self.target_power,
            {name: c.T @ b for name, b in self.b_terms.items()},
            self.load,
            anchor,
        )

    def term(self, name: str) -> np.ndarray:
        if name in self.b_terms:
            return self.b_terms[name]
        return self.problem.b_term_matrices()[name]

    def objective(self, x: np.ndarray) -> float:
        return float(self.problem.objective_on(x, self, terms=self.b_terms or None))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.problem.residuals_on(x, terms=self.b_terms or None)


def _congruence(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """C^T R C for symmetric R, symmetrized against rounding, in place."""
    t = c.T @ (r @ c)
    t += t.T   # numpy buffers the overlapping transpose
    t *= 0.5
    return t


@dataclass
class SolveOutcome:
    """Solver result: solution, feasibility, effort."""

    x: np.ndarray
    residuals: np.ndarray
    iterations: int
    history: tuple[float, ...] = ()   # inner objective/ratio trace when iterative


def _finalize(instance: CompressedInstance, x: np.ndarray, iterations: int,
              history=()) -> SolveOutcome:
    """Shared exit path: feasibility check on the instance's constraints."""
    res = instance.residuals(x)
    if res.size and not float(res.max()) <= FEASIBILITY_RTOL:     # NaN fails too
        raise SolverError(f"solution violates constraints (max residual {res.max():.3e})")
    return SolveOutcome(
        x=x,
        residuals=res,
        iterations=iterations,
        history=tuple(history),
    )


# --------------------------------------------------------------------------
# tie-break helpers


def align_signs(x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Flip columns of x so that ||x - anchor||_F is minimized over signs."""
    dots = np.sum(x * anchor, axis=0)
    flips = np.where(dots < 0, -1.0, 1.0)
    return x * flips


def align_orthogonal(x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Right-multiply x by the orthogonal matrix closest-mapping it to anchor."""
    u, _, vt = np.linalg.svd(x.T @ anchor)
    return x @ (u @ vt)


def align_to_anchor(x: np.ndarray, anchor: np.ndarray | None, symmetry: str) -> np.ndarray:
    if anchor is None or symmetry == "none":
        return x
    if symmetry == "orthogonal":
        return align_orthogonal(x, anchor)
    raise ValueError(f"unknown symmetry '{symmetry}'")


# --------------------------------------------------------------------------
# solvers


_NO_RESIDUALS = np.zeros(0)   # shared by every mmse outcome, so read-only
_NO_RESIDUALS.setflags(write=False)


def solve_mmse(instance: CompressedInstance) -> SolveOutcome:
    """Closed-form normal equations (R + load I) x = r.

    R is the batch covariance, r the batch cross-correlation with the target
    rows and load the instance's ridge (set by ``centralized_instance``). A
    non-finite, all-zero or singular R raises SolverError.

    The solve runs first, behind one screen: a finite sum of the totals of
    R and r proves every entry finite, and a zero dgesv info a nonzero R.
    Only when the screen or dgesv fails are the inputs checked one by one,
    in that order, to name the cause; finite totals whose sum overflows take
    that path too, and pass it. A ridge would hide an all-zero R, so a loaded
    instance is checked before its ridge is added.
    """
    cov, cross = instance.cov_y, instance.cross
    if cross is None:
        raise SolverError("mmse needs target rows on the instance")
    if cross.shape[1] != instance.problem.n_filters:
        raise SolverError("target row count must equal n_filters")
    if instance.load:
        _check_mmse_inputs(cov, cross)
        cov = cov + instance.load * np.eye(cov.shape[0])
    _, _, x, info = dgesv(cov, cross)
    if info or not math.isfinite(float(np.add.reduce(instance.cov_y, None))
                                 + float(np.add.reduce(cross, None))):
        _check_mmse_inputs(instance.cov_y, cross)
        if info:
            raise SolverError("mmse: covariance is singular")
    # unconstrained: no residuals to check
    return SolveOutcome(x, _NO_RESIDUALS, 1)


def _check_mmse_inputs(cov: np.ndarray, cross: np.ndarray) -> None:
    """Raise the SolverError naming the first non-finite or all-zero input."""
    for name, a in (("covariance", cov), ("cross-correlation", cross)):
        if not np.isfinite(a).all():
            raise SolverError(f"mmse: {name} has non-finite entries")
    if not cov.any():
        raise SolverError("mmse: covariance is all zero")


def _secular_root(lam: np.ndarray, b: np.ndarray, s2: float, family: str) -> tuple[float, int]:
    """The least mu >= 0 with g(mu) = sum_i ||b_i||^2 / (lam_i + mu)^2 <= s2,
    for lam >= 0: the root of g = s2 when g(0) > s2, and the steps taken.

    Newton's method on h(mu) = 1 / sqrt(g) - 1 / s, which is concave and
    increasing (Reinsch; More & Sorensen), from mu0 = max(0, max_i(||b_i|| /
    s - lam_i)), where g(mu0) >= s2, so the iterates rise monotonically to
    the root. Rows with b_i = 0 are left out, as they would give 0/0 at lam_i
    + mu = 0. It stops at a step of at most SECULAR_STEP_RTOL * mu or at h >=
    0; steps stay in the root's bracket [mu0, ||b|| / s - min lam], and a
    non-finite or non-increasing one is replaced by bisection of it. After
    SECULAR_MAX_ITER steps a SolverError names the family.
    """
    b2 = np.einsum("ij,ij->i", b, b)
    live = b2 > 0.0
    lam, b2 = lam[live], b2[live]
    s = math.sqrt(s2)
    mu = lo = max(0.0, float(np.max(np.sqrt(b2) / s - lam, initial=0.0)))
    hi = max(mu, math.sqrt(float(b2.sum())) / s - float(lam.min(initial=0.0)))
    newton = True
    for steps in range(SECULAR_MAX_ITER):
        w2 = b2 / (lam + mu) ** 2
        g = float(w2.sum())
        if g <= s2:
            if newton:             # h >= 0: at the root, up to rounding
                return mu, steps
            hi = mu                # a bisection point past the root
        else:
            lo = mu
            step = g * (math.sqrt(g / s2) - 1.0) / float(np.sum(w2 / (lam + mu)))
            if mu > 0.0 and step <= SECULAR_STEP_RTOL * mu:    # a step rounded to 0 too
                return mu + step, steps + 1
            newton = math.isfinite(step) and step > 0.0
            if newton:
                mu = min(mu + step, hi)    # the root is at most hi: a step past it is rounding
                continue
        mu = 0.5 * (lo + hi)
        if hi - lo <= SECULAR_STEP_RTOL * hi:
            return hi, steps + 1
    raise SolverError(f"{family}: secular equation did not converge "
                      f"in {SECULAR_MAX_ITER} steps")


def solve_qcqp(instance: CompressedInstance) -> SolveOutcome:
    """Ball-constrained quadratic program with a linear-response equality.

    Eliminates the equality X^T c = d via an orthonormal null-space basis Z
    of c^T (from one Householder reflector), writes X = X_p + Z U with X_p =
    c d^T / ||c||^2, the plane's minimum-norm point, and diagonalizes Z^T R
    Z, so that the stationarity system for any ball multiplier mu >= 0 is
    diagonal and, since Z is orthogonal to X_p, the ball value is ||X_p||^2
    + ||U(mu)||^2; the optimal mu is the root of that secular equation, and
    the iteration count its Newton steps. mu = 0 is returned immediately
    when the equality-only minimizer already sits inside the ball, and X_p
    (the mu -> inf limit) when the ball only touches the plane, unless the
    instance's anchor passes the residual check and has a lower objective:
    then the anchor is returned. A DASF anchor is feasible, and a local
    solve that does no worse than it keeps the run descending. The problem
    is convex, so the KKT point found is the global minimum and no
    tie-break is needed.
    """
    prob: QcqpProblem = instance.problem
    cov = instance.cov_y
    a = instance.term("linear")
    c = instance.term("gain").ravel()
    d = prob.target_response
    r2 = prob.radius**2

    cn2 = float(c @ c)
    if cn2 <= 0.0 or not np.isfinite(cn2):
        raise SolverError("gain vector is zero after compression")
    x_p = np.outer(c, d) / cn2
    min_ball = float(d @ d) / cn2
    if r2 < min_ball * (1.0 - 1e-9):
        raise InfeasibleProblemError(
            f"radius^2 {r2:.6g} below plane minimum {min_ball:.6g}"
        )
    if c.size == 1:     # the plane pins X (dim == 1)
        return _finalize(instance, x_p, iterations=0)
    if r2 <= min_ball * (1.0 + BALL_TIGHT_RTOL):
        # the ball only touches the plane: X_p, or the anchor where it is
        # feasible and lower
        anchor = instance.anchor
        if (anchor is not None and float(instance.residuals(anchor).max()) <= FEASIBILITY_RTOL
                and instance.objective(anchor) < instance.objective(x_p)):
            x_p = anchor
        return _finalize(instance, x_p, iterations=0)

    # H = I - 2 v v^T / v^T v maps c to -sign(c_0) ||c|| e_0; its other
    # columns span c's null space
    v = c.copy()
    v[0] += math.copysign(math.sqrt(cn2), c[0])
    z = np.outer(v, v[1:]) * (-2.0 / float(v @ v))
    z[1:] += np.eye(c.size - 1)
    lam, vec = np.linalg.eigh(z.T @ cov @ z)
    lam = np.maximum(lam, 0.0)            # covariance, clip roundoff
    b0 = vec.T @ (z.T @ (a - cov @ x_p))  # reduced rhs in the eigenbasis

    mu, iterations = 0.0, 0
    if not (lam.min() > 0.0
            and min_ball + float(np.sum((b0 / lam[:, None]) ** 2)) <= r2 + BALL_TOL):
        # the ball is active: the secular equation ||U(mu)||^2 = r^2 - ||X_p||^2
        mu, iterations = _secular_root(lam, b0, r2 - min_ball, "qcqp")
    return _finalize(instance, x_p + z @ (vec @ (b0 / (lam + mu)[:, None])), iterations=iterations)


def solve_tro(instance: CompressedInstance) -> SolveOutcome:
    """Trace-ratio maximization on the orthonormal manifold.

    Starts from the anchor's orthonormal basis (QR) and alternates between
    evaluating the current ratio rho and replacing the iterate with the
    n_filters principal eigenvectors of R_v - rho R_y. The produced rho
    sequence is non-decreasing; the fixed point is the global maximizer.
    Stops when the ratio moves by at most RATIO_TOL * max(1, |rho|), the
    rounding floor of a ratio that grows as the primary stream's noise
    shrinks, returning the previous iterate in that case so that a
    stationary anchor is returned unchanged (constant-ratio instances).
    Per-column signs are flipped toward the anchor. Where rho is so large
    (from about 1e9) that forming R_v - rho R_y rounds much of R_v away, the
    steps may stall above that floor; the SolverError then names rho's
    magnitude and the last step. A DASF run whose solves still settle there
    may see its objective -rho rise by that rounding, about 1e-8 of rho in
    one iteration at rho ~ 1e9.
    """
    prob: TroProblem = instance.problem
    cov_y = instance.cov_y
    cov_v = instance.cov_v
    n = prob.n_filters

    anchor = instance.anchor
    x, r = np.linalg.qr(anchor if anchor is not None else np.eye(instance.dim, n))
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-6 * max(1.0, diag.max()):
        raise SolverError("anchor is rank deficient")

    def ratio(xx: np.ndarray) -> float:
        den = float(np.trace(xx.T @ cov_y @ xx))
        if den <= 0.0:
            raise SolverError("primary-stream covariance not positive definite")
        return float(np.trace(xx.T @ cov_v @ xx)) / den

    rho = ratio(x)
    history = [rho]
    for iterations in range(1, RATIO_MAX_ITER + 1):
        _, vec = np.linalg.eigh(cov_v - rho * cov_y)
        x_new = vec[:, -n:][:, ::-1]         # principal columns, descending
        rho_new = ratio(x_new)
        history.append(rho_new)
        step = abs(rho_new - rho)
        if step <= RATIO_TOL * max(1.0, abs(rho)):
            break                             # keep x, the anchor-closest candidate
        x, rho = x_new, rho_new
    else:
        raise SolverError(f"trace ratio did not converge in {RATIO_MAX_ITER} iterations "
                          f"(rho ~ {rho:.1e}, last step {step:.1e})")
    if anchor is not None:
        x = align_signs(x, anchor)
    return _finalize(instance, x, iterations=iterations, history=history)


def solve_scqp(instance: CompressedInstance) -> SolveOutcome:
    """Quadratic minimization on the unit sphere via a secular equation.

    Stationarity reads (R + mu I) X = -A with a scalar multiplier mu; in the
    eigenbasis of R the sphere condition becomes
    sum_ij beta_ij^2 / (lambda_i + mu)^2 = 1, whose unique root on
    (-lambda_min, inf) is the global minimizer, found in a few Newton steps
    (the iteration count). When A has no component in the bottom eigenspace
    and the interior pseudo-solution sits inside the sphere (the hard case,
    covering A = 0), the solution is completed along the bottom eigenvector,
    with sign and mixing direction tie-broken toward the anchor.
    """
    prob: ScqpProblem = instance.problem
    cov = instance.cov_y
    a = instance.term("linear")
    n = prob.n_filters

    lam, u = np.linalg.eigh(cov)
    beta = u.T @ a
    lam_min = float(lam[0])
    scale = max(1.0, float(np.abs(lam).max()), float(np.abs(beta).max()))

    bottom = lam <= lam_min + 1e-10 * scale
    beta_norm = float(np.abs(beta).max(initial=0.0))
    hard = float(np.abs(beta[bottom]).max(initial=0.0)) <= 1e-12 * max(1.0, beta_norm)

    if hard:
        gap = lam - lam_min
        w0 = np.zeros_like(beta)
        w0[~bottom] = -beta[~bottom] / gap[~bottom][:, None]
        inside = 1.0 - float(np.sum(w0 * w0))
        if inside >= -1e-12:
            # boundary multiplier mu = -lam_min, complete along the bottom eigenvector
            tau = np.sqrt(max(inside, 0.0))
            u1 = u[:, int(np.argmax(bottom))]
            x0 = u @ w0
            direction = np.zeros(n)
            direction[0] = 1.0
            if instance.anchor is not None:
                g = (instance.anchor - x0).T @ u1
                gn = float(np.linalg.norm(g))
                if gn > 0:
                    direction = g / gn
            x = x0 + tau * np.outer(u1, direction)
            return _finalize(instance, x, iterations=0)
        # pseudo-solution overshoots the sphere: the root is interior after all

    # regular branch: the secular equation in nu = mu + lam_min > 0
    nu, iterations = _secular_root(lam - lam_min, beta, 1.0, "scqp")
    return _finalize(instance, u @ (-beta / (lam - lam_min + nu)[:, None]), iterations=iterations)


_SOLVERS: dict[str, Callable[[CompressedInstance], SolveOutcome]] = {
    "mmse": solve_mmse,
    "qcqp": solve_qcqp,
    "tro": solve_tro,
    "scqp": solve_scqp,
}


def solve_instance(instance: CompressedInstance) -> SolveOutcome:
    """Dispatch an instance to the solver of its problem family."""
    return _SOLVERS[instance.problem.kind](instance)


def centralized_instance(problem: SfoProblem, batch: SampleBatch,
                         anchor: np.ndarray | None = None) -> CompressedInstance:
    """The network-wide problem on the batch's cached statistics. An mmse
    instance carries the ridge DIAG_LOAD * trace(R) / M when cond(R) >
    COND_LIMIT in the 2-norm, and none otherwise. A batch without the
    stream the problem reads raises the batch's ValueError."""
    load = (DIAG_LOAD * float(np.trace(batch.cov_y)) / batch.cov_y.shape[0]
            if problem.uses_target and batch.cov_y_ill_conditioned else 0.0)
    return CompressedInstance(
        problem=problem,
        cov_y=batch.cov_y,
        cov_v=batch.cov_v if problem.uses_second_stream else None,
        cross=batch.cross if problem.uses_target else None,
        target_power=batch.target_power if problem.uses_target else None,
        b_terms=dict(problem.b_term_matrices()),
        load=load,
        anchor=anchor,
    )


def solve_centralized(problem: SfoProblem, batch: SampleBatch,
                      anchor: np.ndarray | None = None) -> SolveOutcome:
    return solve_instance(centralized_instance(problem, batch, anchor))


# --------------------------------------------------------------------------
# network-wide evaluation helpers


def evaluate_objective(problem: SfoProblem, x: np.ndarray, batch: SampleBatch):
    """Network-wide objective at x, from the batch's cached statistics: a
    float for one point, one value per point for a (T, M, Q) stack."""
    out = problem.objective_on(x, batch)
    return float(out) if np.ndim(out) == 0 else out


def constraint_residuals(problem: SfoProblem, x: np.ndarray) -> np.ndarray:
    """Network-wide constraint residuals at x, one row per point of a stack."""
    return problem.residuals_on(x)


@dataclass(frozen=True)
class BoundCheck:
    """Result of the constraint-count sanity check against network size."""

    applicable: bool
    count: int
    limit: float | None
    ok: bool | None


def check_constraint_bound(problem: SfoProblem, graph) -> BoundCheck:
    """Warn when the constraint count exceeds the network's update capacity.

    The per-iteration local problems can absorb roughly
    min(Q^2 / (K-1) * sum_k deg(k), (1 + min_k deg(k)) * Q^2) scalar
    constraints; more than that and convergence guarantees degrade. Advisory
    only: a RuntimeWarning is emitted, nothing fails. Single-node networks
    are reported as not applicable.
    """
    count = problem.constraint_count()
    k = graph.node_count
    if k < 2:
        return BoundCheck(applicable=False, count=count, limit=None, ok=None)
    degs = [graph.degree(node) for node in graph.nodes]
    q2 = problem.n_filters**2
    limit = min(q2 / (k - 1) * sum(degs), (1 + min(degs)) * q2)
    ok = count <= limit
    if not ok:
        warnings.warn(
            f"constraint count {count} exceeds the network capacity bound {limit:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return BoundCheck(applicable=True, count=count, limit=limit, ok=ok)
