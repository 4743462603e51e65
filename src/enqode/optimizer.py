"""Limited-memory BFGS with a strong-Wolfe line search.

The loss/gradient callback is expected to be analytic, deterministic, and
cheap. The minimizer keeps a short history of curvature pairs, asks scipy's
Wolfe search for a step length, and falls back to plain backtracking when
the Wolfe search fails to bracket one.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np
from scipy.optimize import line_search as _wolfe_line_search

__all__ = ["ObjectiveError", "OptimizerOptions", "OptimizeResult", "minimize"]

_GRAD_TOLERANCE = 1e-7  # on the infinity norm of the gradient
_LOSS_TOLERANCE = 1e-10  # on the accepted per-step loss decrease
_HISTORY_SIZE = 10
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
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


def _two_loop_direction(grad, s_hist, y_hist, rho_hist):
    """Standard two-loop recursion for the L-BFGS descent direction."""
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if y_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= (s @ y) / (y @ y)  # Barzilai-Borwein style initial scaling
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def _run(objective: Objective, theta0: np.ndarray, opts: OptimizerOptions) -> OptimizeResult:
    theta = np.array(theta0, dtype=float, copy=True)
    evals = [0]

    # Shared evaluation cache so scipy's separate f/fprime callbacks cost one
    # objective call per trial point.
    cache: dict = {}

    def evaluate(x: np.ndarray) -> Tuple[float, np.ndarray]:
        key = x.tobytes()
        if key not in cache:
            cache[key] = _checked_call(objective, x)
            evals[0] += 1
        return cache[key]

    loss, grad = evaluate(theta)
    s_hist: deque = deque(maxlen=_HISTORY_SIZE)
    y_hist: deque = deque(maxlen=_HISTORY_SIZE)
    rho_hist: deque = deque(maxlen=_HISTORY_SIZE)

    iterations = 0
    converged = False
    reason = "max_iters"
    for _ in range(opts.max_iters):
        if np.max(np.abs(grad)) <= _GRAD_TOLERANCE:
            converged = True
            reason = "grad_tolerance"
            break

        direction = _two_loop_direction(grad, s_hist, y_hist, rho_hist)
        slope = direction @ grad
        if slope >= 0.0:  # history gave a non-descent direction, reset
            direction = -grad
            slope = direction @ grad
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alpha = _wolfe_line_search(
                lambda x: evaluate(x)[0],
                lambda x: evaluate(x)[1],
                theta,
                direction,
                gfk=grad,
                old_fval=loss,
                c1=_WOLFE_C1,
                c2=_WOLFE_C2,
            )[0]
        if alpha is None:
            alpha = _backtrack(evaluate, theta, direction, loss, slope)
        if alpha is None:
            reason = "line_search_failed"
            break

        theta_new = theta + alpha * direction
        loss_new, grad_new = evaluate(theta_new)
        iterations += 1

        s = theta_new - theta
        y = grad_new - grad
        curvature = s @ y
        if curvature > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / curvature)

        decrease = loss - loss_new
        theta, loss, grad = theta_new, loss_new, grad_new
        cache.clear()
        cache[theta.tobytes()] = (loss, grad)
        if decrease <= _LOSS_TOLERANCE:
            converged = True
            reason = "loss_tolerance"
            break

    return OptimizeResult(theta, loss, iterations, evals[0], converged, reason)


def _backtrack(evaluate, theta, direction, loss, slope):
    """Armijo backtracking; returns None when no decrease is achievable."""
    alpha = 1.0
    for _ in range(60):
        trial_loss = evaluate(theta + alpha * direction)[0]
        if trial_loss <= loss + _WOLFE_C1 * alpha * slope:
            return alpha
        alpha *= 0.5
    return None


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
