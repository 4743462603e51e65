"""Exact-synthesis reference: tree angles, lowering rules, chain routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from enqode.baseline import (
    BasisConfig,
    compile_exact,
    lower_to_basis,
    permute_state,
    route_linear,
    synthesize_exact,
)
from enqode.circuit import Circuit, Gate, GateKind, metrics


def _unitaries_match(u, v, atol=1e-12):
    """Equal up to a global phase, anchored at the largest entry of v."""
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[idx] / v[idx]
    assert abs(abs(phase) - 1.0) <= atol
    assert np.max(np.abs(u - phase * v)) <= atol


def _states_match_phase(a, b, atol):
    idx = int(np.argmax(np.abs(b)))
    phase = a[idx] / b[idx]
    assert abs(abs(phase) - 1.0) <= atol
    assert np.max(np.abs(a - phase * b)) <= atol


def _random_unit(rng, dims):
    x = rng.normal(size=dims)
    return x / np.linalg.norm(x)


# -- synthesis ---------------------------------------------------------------


def test_synthesize_uniform_pair_is_single_ry():
    circuit = synthesize_exact(np.array([1.0, 1.0]) / np.sqrt(2))
    assert len(circuit.gates) == 1
    gate = circuit.gates[0]
    assert gate.kind is GateKind.RY
    assert gate.qubits == (0,)
    assert abs(gate.angle - np.pi / 2) <= 1e-15


def test_synthesize_basis_state_prunes_to_empty():
    e0 = np.zeros(8)
    e0[0] = 1.0
    circuit = synthesize_exact(e0)
    assert circuit.gates == []
    assert oracles.states_match(oracles.simulate(circuit, None), e0, 1e-15)


def test_synthesize_handles_signed_amplitudes():
    x = np.array([-1.0, 0.0])
    state = oracles.simulate(synthesize_exact(x), None)
    assert np.max(np.abs(state - x)) <= 1e-12

    x = np.array([0.5, -0.5, -0.5, 0.5])
    state = oracles.simulate(synthesize_exact(x), None)
    assert oracles.states_match(state, x, 1e-12)


def test_synthesize_three_qubits_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = _random_unit(rng, 8)
        state = oracles.simulate(synthesize_exact(x), None)
        assert oracles.states_match(state, x, 1e-10)


def test_synthesize_rejects_bad_targets():
    with pytest.raises(ValueError):
        synthesize_exact(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(ValueError):
        synthesize_exact(np.array([1.0]))  # scalar state
    with pytest.raises(ValueError):
        synthesize_exact(np.array([0.8, 0.8]))  # unnormalized
    with pytest.raises(ValueError, match="normalized"):
        synthesize_exact(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        synthesize_exact(np.array([1.0 + 0.0j, 0.0]))  # complex dtype


# -- lowering ----------------------------------------------------------------


def test_lower_ry_is_zxzxz_and_exact():
    theta = 0.77
    lowered = lower_to_basis(Circuit(1).ry(0, theta))
    kinds = [g.kind for g in lowered.gates]
    assert kinds == [GateKind.RZ, GateKind.SX, GateKind.RZ, GateKind.SX, GateKind.RZ]
    _unitaries_match(oracles.circuit_unitary(lowered, None), oracles.ry(theta))


def test_lower_rx_is_exact():
    theta = -1.3
    lowered = lower_to_basis(Circuit(1).rx(0, theta))
    assert len(lowered.gates) == 5
    _unitaries_match(oracles.circuit_unitary(lowered, None), oracles.rx(theta))


def test_lower_passes_through_basis_gates():
    circuit = Circuit(2).rz(0, slot=0).sx(1).x(0).cx(0, 1)
    lowered = lower_to_basis(circuit)
    assert lowered.gates == circuit.gates
    assert lowered.num_params == 1


def test_lower_cy_wraps_cx_in_rz():
    lowered = lower_to_basis(Circuit(2).cy(0, 1))
    kinds = [g.kind for g in lowered.gates]
    assert kinds == [GateKind.RZ, GateKind.CX, GateKind.RZ]
    cy = oracles.embed_controlled(oracles.Y, 0, 1, 2)
    _unitaries_match(oracles.circuit_unitary(lowered, None), cy)


def test_lower_swap_is_three_cx():
    lowered = lower_to_basis(Circuit(2).swap(0, 1))
    assert [g.kind for g in lowered.gates] == [GateKind.CX] * 3
    _unitaries_match(oracles.circuit_unitary(lowered, None), oracles.SWAP4)


def test_lower_cx_into_ecr_basis():
    basis = BasisConfig(two_qubit_kind=GateKind.ECR)
    for control, target in ((0, 1), (1, 0)):
        lowered = lower_to_basis(Circuit(2).cx(control, target), basis)
        assert [g.kind for g in lowered.gates] == [
            GateKind.RZ,
            GateKind.X,
            GateKind.SX,
            GateKind.ECR,
        ]
        cx = oracles.embed_controlled(oracles.X, control, target, 2)
        _unitaries_match(oracles.circuit_unitary(lowered, None), cx, atol=1e-10)


def test_lower_rejects_parametric_rotation():
    circuit = Circuit(1)
    circuit.append(Gate(GateKind.RY, (0,), slot=0))
    with pytest.raises(ValueError):
        lower_to_basis(circuit)


def test_lower_rejects_ecr_into_cx_basis():
    with pytest.raises(ValueError):
        lower_to_basis(Circuit(2).ecr(0, 1))


def test_lower_random_circuit_preserves_unitary():
    rng = np.random.default_rng(23)
    for trial in range(10):
        circuit = Circuit(3)
        for _ in range(12):
            pick = rng.integers(5)
            q = int(rng.integers(3))
            if pick == 0:
                circuit.ry(q, float(rng.uniform(-np.pi, np.pi)))
            elif pick == 1:
                circuit.rx(q, float(rng.uniform(-np.pi, np.pi)))
            elif pick == 2:
                circuit.rz(q, angle=float(rng.uniform(-np.pi, np.pi)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                if pick == 3:
                    circuit.cx(int(a), int(b))
                else:
                    circuit.cy(int(a), int(b))
        basis = BasisConfig() if trial % 2 == 0 else BasisConfig(two_qubit_kind=GateKind.ECR)
        lowered = lower_to_basis(circuit, basis)
        _unitaries_match(
            oracles.circuit_unitary(lowered, None),
            oracles.circuit_unitary(circuit, None),
            atol=1e-9,
        )


def _random_logical_circuit(rng, num_qubits, length):
    """Every kind `lower_to_basis` accepts in the CX basis, on random qubits;
    a third of the RZs take a parameter slot."""
    kinds = (GateKind.RY, GateKind.RX, GateKind.RZ, GateKind.SX, GateKind.X,
             GateKind.CX, GateKind.CY, GateKind.SWAP)
    circuit = Circuit(num_qubits)
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in (GateKind.CX, GateKind.CY, GateKind.SWAP):
            circuit.append(Gate(kind, tuple(int(v) for v in rng.choice(num_qubits, 2, replace=False))))
        elif kind is GateKind.RZ and rng.random() < 1 / 3:
            circuit.rz(int(rng.integers(num_qubits)), slot=int(rng.integers(3)))
        elif kind in (GateKind.RY, GateKind.RX, GateKind.RZ):
            angle = float(rng.uniform(-np.pi, np.pi))
            circuit.append(Gate(kind, (int(rng.integers(num_qubits)),), angle=angle))
        else:
            circuit.append(Gate(kind, (int(rng.integers(num_qubits)),)))
    return circuit


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
def test_lower_is_idempotent_on_lowered_circuits(two_qubit):
    basis = BasisConfig(two_qubit_kind=two_qubit)
    rng = np.random.default_rng([25, 0 if two_qubit is GateKind.CX else 1])
    for num_qubits in (2, 3, 5):
        lowered = lower_to_basis(_random_logical_circuit(rng, num_qubits, 40), basis)
        again = lower_to_basis(lowered, basis)
        assert again.gates == lowered.gates
        assert again.num_params == lowered.num_params
    for num_qubits in range(2, 7):
        physical = compile_exact(_random_unit(rng, 1 << num_qubits), basis).physical_circuit
        assert lower_to_basis(physical, basis).gates == physical.gates


# -- routing -----------------------------------------------------------------


def test_route_adjacent_circuit_is_untouched():
    circuit = Circuit(3).cx(0, 1).sx(2).cx(2, 1)
    routed = route_linear(circuit)
    assert routed.circuit.gates == circuit.gates
    assert routed.layout == (0, 1, 2)


def test_route_inserts_one_swap_for_distance_two():
    routed = route_linear(Circuit(3).cx(0, 2))
    kinds = [g.kind for g in routed.circuit.gates]
    assert kinds == [GateKind.SWAP, GateKind.CX]
    assert routed.circuit.gates[0].qubits == (0, 1)
    assert routed.circuit.gates[1].qubits == (1, 2)
    assert routed.layout == (1, 0, 2)


def test_route_moves_single_qubit_gates_with_layout():
    circuit = Circuit(3).cx(0, 2).rz(0, angle=0.4)
    routed = route_linear(circuit)
    # qubit 0 lives on wire 1 after the inserted swap
    assert routed.circuit.gates[-1] == Gate(GateKind.RZ, (1,), angle=0.4)


def test_permute_state_swaps_bits():
    state = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(permute_state(state, (1, 0)), np.array([0.1, 0.3, 0.2, 0.4]))
    assert np.array_equal(permute_state(state, (0, 1)), state)
    with pytest.raises(ValueError):
        permute_state(state, (0, 1, 2))


def test_route_preserves_state_up_to_layout():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = _random_unit(rng, 16)
        lowered = lower_to_basis(synthesize_exact(x))
        routed = route_linear(lowered)
        state = oracles.simulate(routed.circuit, None)
        _states_match_phase(state, permute_state(x, routed.layout), 1e-9)


def test_route_never_decreases_two_qubit_count():
    rng = np.random.default_rng(9)
    for _ in range(10):
        circuit = Circuit(5)
        for _ in range(15):
            a, b = rng.choice(5, size=2, replace=False)
            circuit.cx(int(a), int(b))
        before = metrics(circuit).two_qubit_physical
        after = metrics(route_linear(circuit).circuit).two_qubit_physical
        assert after >= before


# -- full pipeline -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_compile_exact_fidelity(seed, num_qubits):
    rng = np.random.default_rng(seed)
    x = _random_unit(rng, 1 << num_qubits)
    result = compile_exact(x)
    state = oracles.simulate(result.physical_circuit, None)
    target = permute_state(x, result.layout)
    fidelity = abs(np.vdot(target, state)) ** 2
    assert fidelity >= 1.0 - 1e-8


def test_compile_exact_physical_circuit_is_basis_legal():
    rng = np.random.default_rng(41)
    x = _random_unit(rng, 16)
    for basis in (BasisConfig(), BasisConfig(two_qubit_kind=GateKind.ECR)):
        result = compile_exact(x, basis)
        allowed = {GateKind.RZ, GateKind.SX, GateKind.X, basis.two_qubit_kind}
        assert {g.kind for g in result.physical_circuit.gates} <= allowed
        for gate in result.physical_circuit.gates:
            if len(gate.qubits) == 2:
                assert abs(gate.qubits[0] - gate.qubits[1]) == 1
        assert result.metrics == metrics(result.physical_circuit)
        assert result.synth_time >= 0.0


def test_compile_exact_counts_are_data_dependent():
    rng = np.random.default_rng(77)
    totals = set()
    depths = set()
    for support in (1, 2, 16):
        x = np.zeros(16)
        x[rng.choice(16, size=support, replace=False)] = rng.normal(size=support)
        x /= np.linalg.norm(x)
        counts = compile_exact(x).metrics
        totals.add(counts.total_physical)
        depths.add(counts.depth_physical)
    assert len(totals) > 1
    assert len(depths) > 1
