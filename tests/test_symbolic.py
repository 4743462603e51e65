
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enqode
import oracles
from enqode.ansatz import AnsatzConfig, build
from enqode.circuit import Circuit
from enqode.symbolic import OverlapModel, init_plus_i

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_init_single_qubit():
    amps = init_plus_i(1).evaluate(np.zeros(0))
    assert np.allclose(amps, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15)


def test_init_two_qubits():
    amps = init_plus_i(2).evaluate(np.zeros(0))
    assert np.allclose(amps, 0.5 * np.array([1, 1j, 1j, -1]), atol=1e-15)


def test_init_popcount_rule():
    state = init_plus_i(3)
    assert state.root_exp[7] == 3  # i^3 = -i


def test_init_rejects_zero_qubits():
    with pytest.raises(ValueError):
        init_plus_i(0)


def test_rz_at_pi_single_qubit():
    state = init_plus_i(1).apply_rz(0, 0)
    amps = state.evaluate(np.array([np.pi]))
    assert np.allclose(amps, [-1j * INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_rz_column_sign_pattern():
    state = init_plus_i(2).apply_rz(1, 0)
    assert state.coeff[:, 0].tolist() == [-1, -1, 1, 1]


def test_rz_rejects_reused_slot():
    state = init_plus_i(2).apply_rz(0, 0)
    with pytest.raises(ValueError):
        state.apply_rz(1, 0)


def test_cy_on_init_matches_dense_oracle():
    # |+i> is the +1 eigenvector of Y, so CY leaves the init state fixed
    state = init_plus_i(2).apply_cy(1, 0)
    amps = state.evaluate(np.zeros(0))
    circuit = Circuit(2).cy(1, 0)
    expected = oracles.circuit_unitary(circuit, None) @ oracles.plus_i_state(2)
    assert np.allclose(amps, expected, atol=1e-12)
    assert np.allclose(amps, 0.5 * np.array([1, 1j, 1j, -1]), atol=1e-12)


def test_cy_is_involution_on_the_table():
    state = init_plus_i(3).apply_rz(0, 0).apply_rz(2, 1)
    twice = state.apply_cy(0, 2).apply_cy(0, 2)
    assert np.array_equal(twice.root_exp, state.root_exp)
    assert np.array_equal(twice.coeff, state.coeff)


def test_cy_rejects_equal_control_target():
    with pytest.raises(ValueError):
        init_plus_i(2).apply_cy(1, 1)


def test_evaluate_at_zero_is_scaled_roots():
    state = init_plus_i(3).apply_rz(0, 0).apply_cy(0, 1)
    amps = state.evaluate(np.zeros(1))
    roots = np.array([1, 1j, -1, -1j])[state.root_exp]
    assert np.allclose(amps, roots / np.sqrt(8), atol=1e-15)


def test_evaluate_period_four_pi():
    state = init_plus_i(1).apply_rz(0, 0)
    assert np.allclose(state.evaluate(np.array([0.0])),
                       state.evaluate(np.array([4 * np.pi])), atol=1e-12)


def test_evaluate_rejects_length_mismatch():
    state = init_plus_i(2).apply_rz(0, 0)
    with pytest.raises(ValueError):
        state.evaluate(np.zeros(3))


def _random_table_circuit(rng, num_qubits, length):
    """Random RZ/CY sequence applied to both representations."""
    state = init_plus_i(num_qubits)
    circuit = Circuit(num_qubits)
    slot = 0
    for _ in range(length):
        if rng.random() < 0.5:
            q = int(rng.integers(num_qubits))
            state = state.apply_rz(q, slot)
            circuit.rz(q, slot=slot)
            slot += 1
        else:
            c, t = rng.choice(num_qubits, size=2, replace=False)
            state = state.apply_cy(int(c), int(t))
            circuit.cy(int(c), int(t))
    return state, circuit


def _assert_table_invariants(state):
    """Shapes agree, i-exponents stay in {0..3} and coefficients in {-1, 0, +1}."""
    assert state.root_exp.shape == (state.dim,) and state.coeff.shape[0] == state.dim
    assert np.all((state.root_exp >= 0) & (state.root_exp < 4))
    assert np.all(np.isin(state.coeff, (-1, 0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_random_sequences_match_dense_oracle(num_qubits, length, seed):
    rng = np.random.default_rng(seed)
    state, circuit = _random_table_circuit(rng, num_qubits, length)
    _assert_table_invariants(state)
    theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
    expected = oracles.circuit_unitary(circuit, theta) @ oracles.plus_i_state(num_qubits)
    got = state.evaluate(theta)
    assert np.max(np.abs(got - expected)) <= 1e-10
    assert np.allclose(np.abs(got), 2.0 ** (-num_qubits / 2), atol=1e-12)
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12


def test_loss_zero_at_exact_target():
    rng = np.random.default_rng(5)
    state, _ = _random_table_circuit(rng, 3, 12)
    theta0 = rng.uniform(-np.pi, np.pi, size=state.num_params)
    model = OverlapModel(state, state.evaluate(theta0))
    loss, grad = model.loss_and_grad(theta0)
    assert loss <= 1e-14
    assert np.max(np.abs(grad)) <= 1e-12


def test_single_parameter_loss_is_shifted_cosine():
    # n=1: psi(t) = (e^{-it/2}, i e^{it/2})/sqrt(2); against target (1,0)
    # the overlap is e^{-it/2}/sqrt(2), so loss(t) = 1/2 exactly, grad 0.
    # Against target psi(t0), loss(t) = (1 - cos((t - t0)/1))/2 scaled:
    state = init_plus_i(1).apply_rz(0, 0)
    t0 = 0.7
    model = OverlapModel(state, state.evaluate(np.array([t0])))
    for t in np.linspace(-3, 3, 13):
        loss, grad = model.loss_and_grad(np.array([t]))
        # |<psi(t0)|psi(t)>|^2 = cos^2((t - t0)/2)
        expected_loss = 1 - np.cos((t - t0) / 2) ** 2
        expected_grad = np.cos((t - t0) / 2) * np.sin((t - t0) / 2)
        assert abs(loss - expected_loss) <= 1e-12
        assert abs(grad[0] - expected_grad) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences(num_qubits, length, seed):
    rng = np.random.default_rng(seed)
    state, _ = _random_table_circuit(rng, num_qubits, length)
    if state.num_params == 0:
        return
    target = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    target /= np.linalg.norm(target)
    model = OverlapModel(state, target)
    theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
    _, grad = model.loss_and_grad(theta)
    numeric = oracles.finite_difference_grad(lambda t: model.loss(t), theta)
    scale = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(grad - numeric) / scale) <= 1e-5


def test_cached_float_table_is_bit_for_bit_the_per_call_cast():
    rng = np.random.default_rng(606)
    state, _ = _random_table_circuit(rng, 6, 60)
    target = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    model = OverlapModel(state, target / np.linalg.norm(target))
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
        loss, grad = model.loss_and_grad(theta)
        # the formula with the int8 table cast on every call, as it was written before
        coeff = state.coeff.astype(float)
        psi = (2.0 ** (-3.0) * np.array([1.0, 1.0j, -1.0, -1.0j])[state.root_exp]
               * np.exp(1j * (0.5 * (coeff @ theta))))
        weighted = np.conj(model.target) * psi
        overlap = weighted.sum()
        expected_loss = min(max(1.0 - (overlap.real**2 + overlap.imag**2), 0.0), 1.0)
        expected_grad = -2.0 * np.real(np.conj(overlap) * 0.5j * (weighted @ coeff))
        assert np.array_equal(state.evaluate(theta), psi)
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad)
    assert state.coeff_float is state.coeff_float
    assert not state.coeff_float.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10), st.integers(0, 2**32 - 1),
       st.floats(-np.pi, np.pi))
def test_loss_bounded_and_phase_invariant(num_qubits, length, seed, phase):
    rng = np.random.default_rng(seed)
    state, _ = _random_table_circuit(rng, num_qubits, length)
    target = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    target /= np.linalg.norm(target)
    theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
    base = OverlapModel(state, target).loss(theta)
    rotated = OverlapModel(state, np.exp(1j * phase) * target).loss(theta)
    assert 0.0 <= base <= 1.0
    assert abs(base - rotated) <= 1e-12


def test_loss_rejects_length_mismatch():
    state = init_plus_i(2).apply_rz(0, 0)
    model = OverlapModel(state, state.evaluate(np.zeros(1)))
    with pytest.raises(ValueError):
        model.loss_and_grad(np.zeros(4))


def test_overlap_model_rejects_unnormalized_target():
    state = init_plus_i(2)
    with pytest.raises(ValueError, match="normalized"):
        OverlapModel(state, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        OverlapModel(state, np.array([1.0, np.nan, 0.0, 0.0]))


def test_overlap_model_target_is_fixed_at_construction():
    """The model keeps its own conjugated target, so neither the caller's
    array nor the model's fields can change what it computes."""
    state = init_plus_i(2).apply_rz(0, 0).apply_cy(0, 1).apply_rz(1, 1)
    target = state.evaluate(np.array([0.4, -1.1]))
    model = OverlapModel(state, target)
    theta = np.array([0.1, 0.2])
    loss, grad = model.loss_and_grad(theta)
    target[:] = target[::-1]
    with pytest.raises(ValueError, match="read-only"):
        model.target[0] = 0.0
    with pytest.raises(AttributeError):
        model.target = target
    again = model.loss_and_grad(theta)
    assert again[0] == loss
    assert np.array_equal(again[1], grad)


def _gradients_and_complex_products():
    """(loss_and_grad's gradient, the same gradient from the complex product
    `weighted @ table`) on seeded ansatz models at n = 4..10."""
    for num_qubits in range(4, 11):
        for layers in (1, 2, 8):
            state = build(AnsatzConfig(num_qubits, layers)).symbolic
            rng = np.random.default_rng([num_qubits, layers, 607])
            for _ in range(4):
                target = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
                model = OverlapModel(state, target / np.linalg.norm(target))
                theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
                weighted = np.conj(model.target) * state.evaluate(theta)
                overlap = weighted.sum()
                expected = -2.0 * np.real(np.conj(overlap) * 0.5j * (weighted @ state.coeff_float))
                yield model.loss_and_grad(theta)[1], expected


def count_gradients_not_bit_for_bit() -> int:
    return sum(not np.array_equal(got, expected)
               for got, expected in _gradients_and_complex_products())


def test_split_real_products_match_the_complex_product():
    # The complex product's last bits depend on the BLAS thread count (two
    # OpenBLAS threads split it differently at n = 9-10 with few layers), so
    # in-process the two agree to rounding only.
    for got, expected in _gradients_and_complex_products():
        assert np.max(np.abs(got - expected)) <= 1e-15


def test_split_real_products_are_bit_for_bit_on_one_blas_thread():
    src = os.path.dirname(os.path.dirname(os.path.abspath(enqode.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, tests]))
    script = "import test_symbolic as t; print(t.count_gradients_not_bit_for_bit())"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
