"""Conventions shared by the stacked solves.

A stacked call takes a sequence of operating points, or arrays holding one
problem per leading index, and gives each problem what it gets alone: its
result, or the exception it raises alone.  A single-point call is the
stack of one.  The stacked LAPACK calls used here (``eigh``, ``svd``,
``eig``, ``solve``, ``inv``) loop over the leading axis with the routine of
the 2-D call, so each problem's result is bitwise its 2-D result.

A stage of a stacked solve computes on every point it is given, and
raises :class:`Failed` through :func:`fail` for the points that fail in
it.  :func:`per_point` keeps their exceptions and solves the rest again
without them, so each point meets its first error in the order of a call
of its own, and the others get bitwise what they get alone.
"""
from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

#: Operating points solved as one stack: enough to spread the fixed cost of
#: a stacked call, few enough that its arrays (tens of kB a point) stay
#: small beside the rest of a run, however long the sweep.
POINTS = 48


class Failed(Exception):
    """The points of a stack that fail in one stage of its solve, as
    ``errors``, {position in the stack: the exception it raises alone}.
    Raised by :func:`fail` only, so never empty."""

    def __init__(self, errors: dict[int, Exception]):
        super().__init__(errors)
        self.errors = errors


def fail(outcomes: Sequence | dict) -> None:
    """Raise Failed for the positions whose outcome is an exception, if
    any; ``outcomes`` holds one per position, or maps positions to them."""
    items = outcomes.items() if isinstance(outcomes, dict) else enumerate(outcomes)
    failed = {k: outcome for k, outcome in items if isinstance(outcome, Exception)}
    if failed:
        raise Failed(failed)


def unwrap(outcome):
    """``outcome``, or raise it when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def alone(solve: Callable, *items):
    """The stacked ``solve`` of one problem, each of ``items`` (a point, or
    an array holding the problem) made a stack of one: the problem's slice
    of each output, or its exception raised."""
    try:
        outputs = solve(*(item[None] if isinstance(item, np.ndarray) else [item] for item in items))
    except Failed as failed:
        error = failed.errors[0]
    else:
        return tuple(output[0] for output in outputs) if isinstance(outputs, tuple) else outputs[0]
    raise error


def per_point(solve: Callable) -> Callable:
    """The public function of ``solve``, a function of a list of at most
    ``POINTS`` operating points (and any further arguments) that returns
    their results, or raises Failed.

    Given one ``ModelParams``, the public function returns that point's
    result or raises its exception.  Given a sequence, it solves ``POINTS``
    points at a time and returns every point's outcome in order: its
    result, or the exception that a Failed named it with.
    """
    # Imported here: model imports this module at its top.
    from .model import ModelParams

    def outcomes(points: list, args, kwargs) -> list:
        # Solved again without the points each Failed names, until none fails.
        errors: dict[int, Exception] = {}
        while True:
            live = [k for k in range(len(points)) if k not in errors]
            try:
                results = iter(solve([points[k] for k in live], *args, **kwargs) if live else ())
            except Failed as failed:
                errors.update({live[j]: error for j, error in failed.errors.items()})
            else:
                return [errors[k] if k in errors else next(results) for k in range(len(points))]

    @functools.wraps(solve)
    def public(params, *args, **kwargs):
        if isinstance(params, ModelParams):
            return unwrap(outcomes([params], args, kwargs)[0])
        points = list(params)
        return [
            outcome
            for start in range(0, len(points), POINTS)
            for outcome in outcomes(points[start : start + POINTS], args, kwargs)
        ]

    return public


def linalg(func: Callable, matrices: np.ndarray, *rest: np.ndarray) -> tuple[tuple, list]:
    """``func(matrices, *rest)`` over problems numbered by the leading axis,
    in one call, and the LinAlgError of each problem (None where it solved).

    Returns ``func``'s outputs as a tuple of stacked arrays.  When the
    stacked call raises LinAlgError, each problem is tried alone; the stack
    is then solved again with each failed problem's matrix replaced by the
    identity, which every routine here solves, so its slices of the outputs
    are placeholders.  Every stacked LAPACK call of the package that can
    fail is retried here, and nowhere else.
    """
    try:
        return _parts(func(matrices, *rest)), [None] * len(matrices)
    except np.linalg.LinAlgError:
        pass
    errors: list[Exception | None] = []
    for k in range(len(matrices)):
        try:
            func(matrices[k], *(array[k] for array in rest))
        except np.linalg.LinAlgError as exc:
            errors.append(exc)
        else:
            errors.append(None)
    healthy = matrices.copy()
    healthy[[error is not None for error in errors]] = np.eye(matrices.shape[-1])
    return _parts(func(healthy, *rest)), errors


def _parts(outputs) -> tuple:
    return tuple(outputs) if isinstance(outputs, tuple) else (outputs,)
