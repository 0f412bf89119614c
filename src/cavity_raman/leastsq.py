"""Damped least squares (Levenberg-Marquardt) for a stack of problems.

:func:`minimize` solves K independent problems along a leading axis, so a
whole sweep's line fits cost one loop of numpy calls instead of one loop
each.  Every fit in the package runs through it, a single fit as a stack
of one, so convergence behaviour and error reporting are uniform.  The
stacked products, solves and inverses are bitwise equal to their 2-D
calls: a problem ends where it would alone, to the last bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stack
from .errors import NoConvergence

_DAMPING_START = 1e-3
_DAMPING_STEP = 10.0
_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-8
_STEP_FLOOR = 1e-13

# Why one problem of minimize stopped, after the info codes of MINPACK
# lmder: the scaled gradient fell below _GRADIENT_TOL times the cost, the
# cost reached zero, a step under the relative step floor was accepted or
# rejected (the fit stalled there), or the iteration cap was reached.
STOP_GRADIENT = "gradient-converged"
STOP_ZERO_COST = "zero-cost"
STOP_SMALL_STEP = "small-step-accepted"
STOP_STALLED = "small-step-rejected"
STOP_MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class Solution:
    """Solutions of K independent least-squares problems, problem k in row k.

    ``gram`` (J^T J) and ``cost`` (r @ r) are taken at ``x``;
    ``iterations`` and ``stops`` say when and why each problem stopped.
    """

    x: np.ndarray
    gram: np.ndarray
    cost: np.ndarray
    iterations: np.ndarray
    stops: tuple[str, ...]

    def error(self, k: int) -> NoConvergence | None:
        """The NoConvergence of problem k, or None when it converged."""
        if self.stops[k] != STOP_MAX_ITERATIONS:
            return None
        return NoConvergence(f"no convergence within {self.iterations[k]} iterations")


def _squares(r: np.ndarray) -> np.ndarray:
    """r[k] @ r[k] for every row k, as one stacked product."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _normal_equations(
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rows: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient J^T r and Gram matrix J^T J of the problems ``rows`` at ``x``;
    an entry that overflows is inf, whose step's trial is then rejected."""
    with np.errstate(over="ignore", invalid="ignore"):
        jac = np.asarray(jacobian(rows, x), dtype=float)
        jts = jac.transpose(0, 2, 1)
        return (jts @ r[:, :, None])[:, :, 0], jts @ jac


def minimize(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    step_floor: float = _STEP_FLOOR,
) -> Solution:
    """Damped least squares with multiplicative damping control, solving a
    stack of K independent problems at once.

    ``x0`` holds one start per row, shape (K, P).  ``residual(rows, x)``
    and ``jacobian(rows, x)`` evaluate the problems numbered ``rows`` at
    ``x``, one row each, with shapes (len(rows), M) and (len(rows), M, P).
    ``rows`` is a nonempty ascending subset of ``arange(K)`` without
    repeats, so a callback given K rows is given the whole stack in order.
    Each iteration makes one trial for each running problem whose damped
    system solves and accepts it where it lowers the cost; each problem
    keeps its own damping, decision and stop test, and the stacked products
    and solves are bitwise equal to their 2-D calls, so a problem takes the
    same path in any stack as alone.
    Convergence is a relative gradient test plus a floor on the step
    relative to max(|x|, 1), 1e-13 unless ``step_floor`` says otherwise; a
    caller whose residuals carry noise passes a floor at that noise.  The
    returned ``stops`` name the test that ended each problem.  A problem
    still running at the iteration cap stops with STOP_MAX_ITERATIONS,
    which ``Solution.error`` turns into NoConvergence.  As in MINPACK
    lmder, the Jacobian is taken once per accepted point: a rejected step
    leaves x unchanged, so the gradient and Gram matrix are kept instead.
    """
    x = np.array(x0, dtype=float)
    count = x.shape[0]
    ids = np.arange(count)
    r = np.asarray(residual(ids, x), dtype=float)
    cost = _squares(r)
    grad, gram = _normal_equations(jacobian, ids, x, r)
    damping = np.full(count, _DAMPING_START)
    iterations = np.full(count, _MAX_ITERATIONS)
    stops = [STOP_MAX_ITERATIONS] * count
    # The state arrays hold the running problems only, in ``ids`` order; a
    # problem that stops is copied into ``solution`` with its stop reason
    # and dropped from them, by ``retire``.
    solution = (np.empty_like(x), np.empty_like(gram), np.empty_like(cost))
    diagonal = np.arange(x.shape[1])

    def retire(mask: np.ndarray, reasons: list[str], iteration: int) -> None:
        nonlocal ids, x, cost, grad, gram, damping
        done = ids[mask]
        for out, values in zip(solution, (x, gram, cost)):
            out[done] = values[mask]
        iterations[done] = iteration
        for k, reason in zip(done.tolist(), reasons):
            stops[k] = reason
        keep = ~mask
        ids, x, cost, grad, gram, damping = (a[keep] for a in (ids, x, cost, grad, gram, damping))

    for iteration in range(1, _MAX_ITERATIONS + 1):
        if ids.size == 0:
            break
        zero = cost <= 1e-300
        flat = (np.abs(grad) * np.maximum(np.abs(x), 1.0)).max(axis=1) <= _GRADIENT_TOL * cost
        halted = zero | flat
        if halted.any():
            reasons = np.where(zero, STOP_ZERO_COST, STOP_GRADIENT)[halted].tolist()
            retire(halted, reasons, iteration)
            if ids.size == 0:
                break

        scale = gram[:, diagonal, diagonal]
        scale[scale <= 0.0] = 1.0
        scaled = np.zeros_like(gram)
        scaled[:, diagonal, diagonal] = scale
        system = gram + damping[:, None, None] * scaled
        (step,), errors = stack.linalg(np.linalg.solve, system, -grad[:, :, None])
        step = step[:, :, 0]
        # A singular problem makes no trial and counts as rejected.
        solved = np.array([error is None for error in errors])
        step[~solved] = 0.0

        trial = x + step
        cost_trial = np.full(ids.size, np.nan)
        if solved.any():
            with np.errstate(over="ignore", invalid="ignore"):
                r_trial = np.asarray(residual(ids[solved], trial[solved]), dtype=float)
                cost_trial[solved] = _squares(r_trial)
        small_step = (np.abs(step) / np.maximum(np.abs(x), 1.0)).max(axis=1) < step_floor
        small_step &= solved
        better = np.isfinite(cost_trial) & (cost_trial < cost)
        x = np.where(better[:, None], trial, x)
        cost = np.where(better, cost_trial, cost)
        damping = np.where(
            better,
            np.maximum(damping / _DAMPING_STEP, 1e-14),
            np.minimum(damping * _DAMPING_STEP, 1e12),
        )
        if better.any():  # so solved.any(), and r_trial holds the solved rows
            grad[better], gram[better] = _normal_equations(
                jacobian, ids[better], x[better], r_trial[better[solved]]
            )
        if small_step.any():
            # At the step floor: converged if accepted, stalled if rejected.
            reasons = np.where(better, STOP_SMALL_STEP, STOP_STALLED)[small_step].tolist()
            retire(small_step, reasons, iteration)
    retire(np.ones(ids.size, dtype=bool), [STOP_MAX_ITERATIONS] * ids.size, _MAX_ITERATIONS)
    return Solution(*solution, iterations, tuple(stops))


def single(func: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """``func(x)`` of one problem as the callback of a stack of one."""
    return lambda rows, x: func(x[0])[None]


def covariance(gram: np.ndarray, cost: np.ndarray, size: int, n_params: int) -> np.ndarray:
    """Parameter covariances scaled by the reduced chi square, one per row
    of the stacked Gram matrices and costs of ``size`` residuals each.  A
    singular Gram matrix takes its pseudo-inverse; the others are inverted
    as one stack.  So does one whose inverse is not finite: a column that
    underflows leaves a subnormal on the diagonal, which LAPACK inverts to
    inf without raising, and inf times a zero cost is NaN."""
    dof = max(size - n_params, 1)
    (inverse,), errors = stack.linalg(np.linalg.inv, gram)
    finite = np.isfinite(inverse).all(axis=(1, 2)).tolist()
    for k, error in enumerate(errors):
        if error is not None or not finite[k]:
            inverse[k] = np.linalg.pinv(gram[k])
    return inverse * (cost / dof)[:, None, None]
