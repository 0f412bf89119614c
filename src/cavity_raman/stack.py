"""Conventions shared by the stacked solves.

A stacked call takes a sequence of operating points, or arrays holding one
problem per leading index, and gives each problem what it gets alone: its
result, or the exception it raises alone.  A single-point call is the
stack of one.  The stacked LAPACK calls used here (``eigh``, ``svd``,
``eig``, ``solve``, ``inv``) loop over the leading axis with the routine of
the 2-D call, so each problem's result is bitwise its 2-D result.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

#: Operating points solved as one stack: enough to spread the fixed cost of
#: a stacked call, few enough that its arrays (tens of kB a point) stay
#: small beside the rest of a run, however long the sweep.
POINTS = 48


def unwrap(outcome):
    """``outcome``, or raise it when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def per_point(solve: Callable) -> Callable:
    """The public function of ``solve``, which takes a list of at most
    ``POINTS`` operating points (and any further arguments) and returns
    each point's outcome: its result, or the exception it raises alone.

    Given one ``ModelParams``, the public function returns that point's
    result or raises its exception.  Given a sequence, it solves ``POINTS``
    points at a time and returns every outcome in order.
    """
    # Imported here: model imports this module, and decorates with it only
    # once ModelParams is defined.
    from .model import ModelParams

    @functools.wraps(solve)
    def public(params, *args, **kwargs):
        if isinstance(params, ModelParams):
            return unwrap(solve([params], *args, **kwargs)[0])
        points = list(params)
        outcomes = []
        for start in range(0, len(points), POINTS):
            outcomes += solve(points[start : start + POINTS], *args, **kwargs)
        return outcomes

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
