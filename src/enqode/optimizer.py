"""Minimization of an analytic (loss, gradient) callback with scipy's L-BFGS-B.

The callback is expected to be analytic, deterministic, and cheap. Every
run is one unbounded `scipy.optimize.minimize(method="L-BFGS-B")` call that
keeps the last `_HISTORY_SIZE` curvature pairs and receives the loss and
gradient from one callback call per trial point.

scipy stops a run on the first of three tests, which give `stop_reason`:

- `grad_tolerance`: the gradient's infinity norm is at most
  `_GRAD_TOLERANCE`.
- `loss_tolerance`: an accepted step lowered the loss by at most
  `_LOSS_TOLERANCE * max(|f_k|, |f_k+1|, 1)`. scipy's test is relative, but
  every loss in this package lies in [0, 1], so it is an absolute decrease.
- `max_iters`: `OptimizerOptions.max_iters` accepted steps.

Any other stop is `line_search_failed`; scipy then returns the last
accepted iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np
import scipy.optimize

__all__ = ["ObjectiveError", "OptimizerOptions", "OptimizeResult", "minimize"]

_GRAD_TOLERANCE = 1e-7  # on the infinity norm of the gradient
_LOSS_TOLERANCE = 1e-10  # on the accepted per-step loss decrease
_HISTORY_SIZE = 10
# loss above which the optional seeded restart kicks in, and its seed
_RESTART_LOSS = 0.2
_RESTART_SEED = 0

Objective = Callable[[np.ndarray], Tuple[float, np.ndarray]]


class ObjectiveError(RuntimeError):
    """Callback returned a non-finite loss or gradient; carries the offending point."""

    def __init__(self, message: str, theta: np.ndarray):
        super().__init__(message)
        self.theta = np.array(theta, dtype=float, copy=True)


@dataclass(frozen=True)
class OptimizerOptions:
    max_iters: int = 500
    random_restart: bool = False  # one seeded retry when the first run stalls high

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class OptimizeResult:
    theta_star: np.ndarray
    loss_star: float
    iterations: int
    gradient_evals: int
    converged: bool
    stop_reason: str


def _checked_call(objective: Objective, theta: np.ndarray) -> Tuple[float, np.ndarray]:
    loss, grad = objective(theta)
    loss = float(loss)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match theta {theta.shape}")
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise ObjectiveError("objective returned non-finite loss or gradient", theta)
    return loss, grad


def _run(objective: Objective, theta0: np.ndarray, opts: OptimizerOptions) -> OptimizeResult:
    evals = [0]

    def checked(theta: np.ndarray) -> Tuple[float, np.ndarray]:
        evals[0] += 1
        return _checked_call(objective, theta)

    res = scipy.optimize.minimize(
        checked, theta0, jac=True, method="L-BFGS-B",
        options={"maxiter": opts.max_iters, "gtol": _GRAD_TOLERANCE,
                 "ftol": _LOSS_TOLERANCE, "maxcor": _HISTORY_SIZE},
    )
    loss = float(res.fun)
    if res.status > 1:  # scipy keeps the last accepted x but may return a rejected trial's loss
        loss = checked(res.x)[0]
    if res.status == 0:
        grad_small = np.max(np.abs(res.jac)) <= _GRAD_TOLERANCE
        reason = "grad_tolerance" if grad_small else "loss_tolerance"
    else:
        reason = "max_iters" if res.status == 1 else "line_search_failed"
    return OptimizeResult(res.x, loss, res.nit, evals[0], res.status == 0, reason)


def minimize(objective: Objective, theta0, opts: OptimizerOptions = OptimizerOptions()) -> OptimizeResult:
    """Minimize a smooth loss given an analytic (loss, gradient) callback.

    Accepted-iterate losses are non-increasing; `converged` is true only
    when a tolerance fired before the iteration cap. A non-finite callback
    value aborts with :class:`ObjectiveError` carrying the offending theta.
    """
    theta0 = np.asarray(theta0, dtype=float)
    result = _run(objective, theta0, opts)
    if not (opts.random_restart and result.loss_star > _RESTART_LOSS):
        return result

    rng = np.random.default_rng(_RESTART_SEED)
    alt = _run(objective, rng.uniform(-np.pi, np.pi, size=theta0.shape), opts)
    best = alt if alt.loss_star < result.loss_star else result
    return replace(
        best,
        iterations=result.iterations + alt.iterations,
        gradient_evals=result.gradient_evals + alt.gradient_evals,
    )
