"""Exact-synthesis reference: tree angles, lowering rules, chain routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from enqode.ansatz import AnsatzConfig, cached_build
from enqode.baseline import (
    _multiplexed_ry,
    _walk,
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
        x = datasets.random_unit_vector(8, rng)
        state = oracles.simulate(synthesize_exact(x), None)
        assert oracles.states_match(state, x, 1e-10)


def test_synthesize_dense_gate_counts_follow_the_chain_walk():
    # an m-control multiplexor takes the closed walk's CX and 2^m RZ between
    # two RX; the m = 0 stage is one RY
    rng = np.random.default_rng(13)
    cx_counts = []
    for n in range(1, 8):
        kinds = [g.kind for g in synthesize_exact(datasets.random_unit_vector(1 << n, rng)).gates]
        assert kinds.count(GateKind.CX) == sum([2, 8, 16, 32, 68, 140][:n - 1])
        assert kinds.count(GateKind.RZ) == 2**n - 2
        assert kinds.count(GateKind.RX) == 2 * (n - 1)
        assert kinds.count(GateKind.RY) == 1
        assert len(kinds) == sum(kinds.count(k) for k in
                                 (GateKind.CX, GateKind.RZ, GateKind.RX, GateKind.RY))
        cx_counts.append(kinds.count(GateKind.CX))
    assert cx_counts == [0, 2, 10, 26, 58, 126, 266]


@pytest.mark.parametrize("m", range(7))
def test_gray_multiplexor_matches_the_uniformly_controlled_ry(m):
    rng = np.random.default_rng([31, m])
    n = m + 1
    order = [int(q) for q in rng.permutation(n)]
    target, controls = order[0], order[1:]
    angles = rng.uniform(-np.pi, np.pi, size=1 << m)
    circuit = Circuit(n)
    for gate in _multiplexed_ry(target, controls, angles):
        circuit.append(gate)
    kinds = [g.kind for g in circuit.gates]
    if m:
        assert kinds.count(GateKind.RZ) == 1 << m
        assert kinds.count(GateKind.RX) == 2
        assert kinds.count(GateKind.RY) == 0
    else:
        assert kinds == [GateKind.RY]
    assert kinds.count(GateKind.CX) == [0, 2, 8, 16, 32, 68, 140][m]
    expected = oracles.uniformly_controlled_ry(target, controls, angles, n)
    assert np.max(np.abs(oracles.circuit_unitary(circuit, None) - expected)) <= 1e-10


@pytest.mark.parametrize("m", range(1, 10))
def test_walk_visits_every_parity_between_neighbours_and_restores_the_wires(m):
    # GF(2) replay: wire w holds a bitmask over (target, control 1..m); the
    # walker is the wire holding the target bit
    wires = [1 << w for w in range(m + 1)]
    here, cx = 0, 0
    visited = {wires[0]}
    for step, b in _walk(m):
        if step == "T":
            control = wires.index(1 << b)
            assert abs(control - here) == 1
            wires[here] ^= wires[control]
            cx += 1
        else:
            there = here + (1 if step == "R" else -1)
            assert step in ("R", "L") and 0 <= there <= m and wires[there] == 1 << b
            wires[there] ^= wires[here]
            wires[here] ^= wires[there]
            here = there
            cx += 2
        assert wires[here] & 1
        visited.add(wires[here])
    assert visited == set(range(1, 1 << (m + 1), 2))
    assert here == 0 and wires == [1 << w for w in range(m + 1)]
    assert cx == [2, 8, 16, 32, 68, 140, 284, 572, 1148][m - 1]


def test_synthesized_circuits_need_no_routing():
    for num_qubits in range(1, 11):
        x = datasets.random_unit_vector(1 << num_qubits, np.random.default_rng(num_qubits))
        circuit = synthesize_exact(x)
        routed = route_linear(circuit)
        assert routed.circuit.gates == circuit.gates
        assert routed.layout == tuple(range(num_qubits))
        for gate in circuit.gates:
            if len(gate.qubits) == 2:
                assert abs(gate.qubits[0] - gate.qubits[1]) == 1


def test_gray_multiplexor_prunes_zero_and_uniform_blocks():
    for m in range(5):
        controls = list(range(1, m + 1))
        assert _multiplexed_ry(0, controls, np.zeros(1 << m)) == []
        assert _multiplexed_ry(0, controls, np.full(1 << m, 0.3)) == [
            Gate(GateKind.RY, (0,), angle=0.3)
        ]


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
    for control, target in ((0, 1), (1, 0)):
        lowered = lower_to_basis(Circuit(2).cx(control, target), GateKind.ECR)
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


def test_lower_rejects_a_two_qubit_basis_other_than_cx_or_ecr():
    with pytest.raises(ValueError, match="unsupported two-qubit basis"):
        lower_to_basis(Circuit(2).cx(0, 1), GateKind.SWAP)


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
        basis = GateKind.CX if trial % 2 == 0 else GateKind.ECR
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
    rng = np.random.default_rng([25, 0 if two_qubit is GateKind.CX else 1])
    for num_qubits in (2, 3, 5):
        lowered = lower_to_basis(_random_logical_circuit(rng, num_qubits, 40), two_qubit)
        again = lower_to_basis(lowered, two_qubit)
        assert again.gates == lowered.gates
        assert again.num_params == lowered.num_params
    for num_qubits in range(2, 7):
        x = datasets.random_unit_vector(1 << num_qubits, rng)
        physical = compile_exact(x, two_qubit).physical_circuit
        assert lower_to_basis(physical, two_qubit).gates == physical.gates


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
        x = datasets.random_unit_vector(16, rng)
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


def test_route_makes_every_two_qubit_gate_chain_adjacent():
    rng = np.random.default_rng(19)
    for num_qubits in range(2, 9):
        circuit = Circuit(num_qubits)
        for _ in range(30):
            if rng.random() < 0.5:
                circuit.rz(int(rng.integers(num_qubits)), angle=float(rng.uniform(-np.pi, np.pi)))
                circuit.sx(int(rng.integers(num_qubits)))
            else:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                circuit.cx(int(a), int(b))
        routed = route_linear(circuit)
        for gate in routed.circuit.gates:
            if len(gate.qubits) == 2:
                assert abs(gate.qubits[0] - gate.qubits[1]) == 1
        assert sorted(routed.layout) == list(range(num_qubits))
        if num_qubits <= 6:
            state = oracles.reference_state(lower_to_basis(routed.circuit))
            target = permute_state(oracles.reference_state(circuit), routed.layout)
            assert np.max(np.abs(state - target)) <= 1e-10


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
def test_ansatz_routes_with_zero_swaps(two_qubit):
    for num_qubits in range(2, 11):
        logical = cached_build(AnsatzConfig(num_qubits, 8)).logical_circuit
        routed = route_linear(lower_to_basis(logical, two_qubit))
        assert all(g.kind is not GateKind.SWAP for g in routed.circuit.gates)
        assert routed.layout == tuple(range(num_qubits))


@pytest.mark.parametrize(
    "num_qubits, cx, swaps, depth", [(7, 266, 0, 280), (8, 550, 0, 566)]
)
def test_route_counts_of_a_seeded_dense_target_are_pinned(num_qubits, cx, swaps, depth):
    # a router regression shows here first; dense targets share one structure
    x = datasets.random_unit_vector(1 << num_qubits, np.random.default_rng(num_qubits))
    routed = route_linear(lower_to_basis(synthesize_exact(x)))
    assert sum(g.kind is GateKind.SWAP for g in routed.circuit.gates) == swaps
    counts = compile_exact(x).metrics
    assert counts.two_qubit_physical == cx
    assert counts.depth_physical == depth


# -- full pipeline -----------------------------------------------------------


def test_dense_one_qubit_count_is_four_sx_per_multiplexor():
    # the X frame costs each multiplexor two RX (four SX), whatever its
    # angle count; the m = 0 stage is one RY (two SX)
    rng = np.random.default_rng(47)
    for num_qubits in range(1, 9):
        counts = compile_exact(datasets.random_unit_vector(1 << num_qubits, rng)).metrics
        assert counts.one_qubit_physical == 2 + 4 * (num_qubits - 1)


@st.composite
def _structured_targets(draw):
    """Real unit vectors at n = 1..6 that exercise every prune and sign path:
    a dense signed head over the high qubits, a product tail over the low
    ones (uniform angle blocks; small integers keep them exactly uniform), an
    optional tiny perturbation (near-product, angle differences just above
    zero), qubits pinned to |0> and aligned blocks zeroed (exact-zero angle
    blocks)."""
    n = draw(st.integers(min_value=1, max_value=6))
    tail = draw(st.integers(min_value=0, max_value=n))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = 1 << (n - tail)
    x = rng.choice([-1.0, 1.0], size=size) if integral else rng.normal(size=size)
    for _ in range(tail):
        if integral:
            factor = rng.integers(-2, 3, size=2)
        else:
            half = rng.uniform(-np.pi / 2, np.pi / 2)
            factor = [np.cos(half), np.sin(half)]
        x = np.kron(x, factor)
    x = x + draw(st.sampled_from([0.0, 1e-9, 1e-5])) * rng.normal(size=x.size)
    index = np.arange(x.size)
    for q in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)):
        x[(index >> q) & 1 == 1] = 0.0
    width = 1 << draw(st.integers(min_value=0, max_value=n - 1))
    blocks = x.reshape(-1, width)
    blocks[rng.random(blocks.shape[0]) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if not np.any(x):
        x[int(rng.integers(x.size))] = -1.0
    return x / np.linalg.norm(x)


@settings(max_examples=40, deadline=None)
@given(_structured_targets())
def test_compile_chain_invariants_on_structured_targets(x):
    logical = synthesize_exact(x)
    state = oracles.simulate(logical, None)
    assert np.max(np.abs(state - x)) <= 1e-8  # the logical circuit keeps the phase
    routed = route_linear(logical)
    assert routed.circuit.gates == logical.gates
    assert routed.layout == tuple(range(len(routed.layout)))
    for two_qubit in (GateKind.CX, GateKind.ECR):
        result = compile_exact(x, two_qubit)
        physical = result.physical_circuit
        # lowering's ZXZXZ rule leaves one global phase; every amplitude is checked
        _states_match_phase(oracles.reference_state(physical), permute_state(x, result.layout), 1e-8)
        assert lower_to_basis(physical, two_qubit).gates == physical.gates
        for gate in physical.gates:
            if len(gate.qubits) == 2:
                assert abs(gate.qubits[0] - gate.qubits[1]) == 1


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
@pytest.mark.parametrize("num_qubits", [5, 6, 7, 8])
def test_compile_exact_is_exact_at_larger_n(num_qubits, two_qubit):
    rng = np.random.default_rng([43, num_qubits])
    dense = datasets.random_unit_vector(1 << num_qubits, rng)
    sparse = dense * (rng.random(1 << num_qubits) < 0.3)
    sparse[0] = 0.5
    for x in (dense, sparse / np.linalg.norm(sparse)):
        result = compile_exact(x, two_qubit)
        state = oracles.reference_state(result.physical_circuit)
        _states_match_phase(state, permute_state(x, result.layout), 1e-8)


def test_compile_exact_physical_circuit_is_basis_legal():
    rng = np.random.default_rng(41)
    x = datasets.random_unit_vector(16, rng)
    for basis in (GateKind.CX, GateKind.ECR):
        result = compile_exact(x, basis)
        allowed = {GateKind.RZ, GateKind.SX, GateKind.X, basis}
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
