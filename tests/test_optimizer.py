import numpy as np
import pytest

from enqode.ansatz import AnsatzConfig, build, invert_epilogue
from enqode.optimizer import ObjectiveError, OptimizerOptions, minimize
from enqode.symbolic import OverlapModel


def _bowl(center):
    def objective(theta):
        d = theta - center
        return float(d @ d), 2.0 * d
    return objective


def test_quadratic_bowl_converges_fast():
    center = np.array([1.5, -2.0, 0.25])
    result = minimize(_bowl(center), np.array([40.0, -30.0, 12.0]))
    assert result.converged
    assert result.iterations <= 30
    assert np.max(np.abs(result.theta_star - center)) <= 1e-8


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(max_iters=0)


def test_reachable_ansatz_target_reaches_zero_loss():
    rng = np.random.default_rng(2)
    bundle = build(AnsatzConfig(2, 2))
    theta_true = rng.uniform(-np.pi, np.pi, size=bundle.num_params)
    model = OverlapModel(bundle.symbolic, bundle.symbolic.evaluate(theta_true))
    result = minimize(model.loss_and_grad, np.zeros(bundle.num_params))
    assert result.loss_star <= 1e-8


def test_warm_start_beats_cold_start():
    bundle = build(AnsatzConfig(2, 2))
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        theta_true = rng.uniform(-np.pi, np.pi, size=bundle.num_params)
        model = OverlapModel(bundle.symbolic, bundle.symbolic.evaluate(theta_true))
        eps = rng.uniform(-1.0, 1.0, size=bundle.num_params)
        eps *= 0.01 / np.max(np.abs(eps))
        cold = minimize(model.loss_and_grad, np.zeros(bundle.num_params))
        warm = minimize(model.loss_and_grad, theta_true + eps)
        if warm.iterations < cold.iterations:
            wins += 1
    assert wins >= 45  # strictly fewer iterations on >= 90% of 50 trials


def test_accepted_loss_history_is_monotone():
    rng = np.random.default_rng(9)
    bundle = build(AnsatzConfig(3, 2))
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, target))
    theta0 = np.zeros(bundle.num_params)
    result = minimize(model.loss_and_grad, theta0)
    assert result.iterations >= 1
    # The run is deterministic, so capping it at k iterations replays the
    # first k accepted steps: these losses are the accepted-loss history.
    history = np.array([model.loss(theta0)] + [
        minimize(model.loss_and_grad, theta0, OptimizerOptions(max_iters=k)).loss_star
        for k in range(1, result.iterations + 1)
    ])
    assert np.all(np.diff(history) <= 1e-15)
    assert history[-1] == result.loss_star


def test_deterministic_across_runs():
    rng = np.random.default_rng(4)
    bundle = build(AnsatzConfig(2, 3))
    target = rng.normal(size=4)
    target /= np.linalg.norm(target)
    model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, target))
    theta0 = rng.uniform(-0.5, 0.5, size=bundle.num_params)
    a = minimize(model.loss_and_grad, theta0)
    b = minimize(model.loss_and_grad, theta0)
    assert np.max(np.abs(a.theta_star - b.theta_star)) <= 1e-12
    assert abs(a.loss_star - b.loss_star) <= 1e-12
    assert a.iterations == b.iterations


def test_scale_invariant_argmin():
    center = np.array([0.3, -1.2])
    theta0 = np.array([5.0, 5.0])
    single = minimize(_bowl(center), theta0)

    def doubled(theta):
        loss, grad = _bowl(center)(theta)
        return 2.0 * loss, 2.0 * grad

    twice = minimize(doubled, theta0)
    assert np.max(np.abs(single.theta_star - twice.theta_star)) <= 1e-6


def test_non_finite_objective_aborts_with_theta():
    def bad(theta):
        return float("nan"), np.zeros_like(theta)

    theta0 = np.array([0.5, -0.25])
    with pytest.raises(ObjectiveError) as err:
        minimize(bad, theta0)
    assert np.array_equal(err.value.theta, theta0)


def test_non_finite_gradient_aborts():
    def bad(theta):
        grad = np.zeros_like(theta)
        grad[0] = np.inf
        return 1.0, grad

    with pytest.raises(ObjectiveError):
        minimize(bad, np.ones(3))


def _rosenbrock(theta):
    x, y = theta
    loss = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    grad = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
    return float(loss), grad


def test_converged_false_at_iteration_cap():
    # Rosenbrock is slow enough that 3 iterations cannot finish it
    result = minimize(_rosenbrock, np.array([-1.2, 1.0]),
                      OptimizerOptions(max_iters=3))
    assert not result.converged
    assert result.iterations == 3
    assert result.stop_reason == "max_iters"

    full = minimize(_rosenbrock, np.array([-1.2, 1.0]),
                    OptimizerOptions(max_iters=500))
    assert full.converged
    assert np.max(np.abs(full.theta_star - 1.0)) <= 1e-5


def test_restart_only_improves():
    # a deliberately poor landscape start; the seeded restart may relocate
    # the solution but must never return something worse
    rng = np.random.default_rng(13)
    bundle = build(AnsatzConfig(2, 1))
    target = rng.normal(size=4)
    target /= np.linalg.norm(target)
    model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, target))
    theta0 = np.zeros(bundle.num_params)
    plain = minimize(model.loss_and_grad, theta0)
    restarted = minimize(model.loss_and_grad, theta0,
                         OptimizerOptions(random_restart=True))
    assert restarted.loss_star <= plain.loss_star + 1e-12


def test_wall_time_and_eval_counts_populated():
    result = minimize(_bowl(np.zeros(2)), np.array([3.0, -4.0]))
    assert result.gradient_evals >= result.iterations


def _flipped_gradient(theta):
    # the gradient points uphill, so no step along -grad lowers the loss
    return float(theta @ theta), -2.0 * theta


def _ansatz_objective():
    rng = np.random.default_rng(1)
    bundle = build(AnsatzConfig(3, 3))
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, target))
    return model.loss_and_grad, np.zeros(bundle.num_params)


@pytest.mark.parametrize("case, reason, converged", [
    ("bowl_minimum", "grad_tolerance", True),
    ("ansatz", "loss_tolerance", True),
    ("rosenbrock_cap", "max_iters", False),
    ("flipped_gradient", "line_search_failed", False),
])
def test_each_stop_reason_returns_the_loss_at_theta_star(case, reason, converged):
    opts = OptimizerOptions()
    if case == "bowl_minimum":
        center = np.array([0.5, -1.0, 2.0])
        objective, theta0 = _bowl(center), center.copy()
    elif case == "ansatz":
        objective, theta0 = _ansatz_objective()
    elif case == "rosenbrock_cap":
        objective, theta0 = _rosenbrock, np.array([-1.2, 1.0])
        opts = OptimizerOptions(max_iters=3)
    else:
        objective, theta0 = _flipped_gradient, np.array([1.0, 2.0])
    result = minimize(objective, theta0, opts)
    assert result.stop_reason == reason
    assert result.converged is converged
    assert result.loss_star == objective(result.theta_star)[0]
    assert result.loss_star <= objective(theta0)[0]
