import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from enqode import simulator
from enqode.ansatz import AnsatzConfig, build
from enqode.baseline import compile_exact
from enqode.circuit import Circuit, Gate, GateKind
from enqode.simulator import (
    DensityMatrix,
    NoiseModel,
    apply_unitary,
    fidelity_to_pure,
    gate_matrix,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    simulate_ideal,
    simulate_noisy,
)


def test_rotation_matrices_match_oracle():
    for theta in (-2.5, -0.3, 0.0, 0.7, np.pi):
        assert np.allclose(rz_matrix(theta), oracles.rz(theta), atol=1e-15)
        assert np.allclose(rx_matrix(theta), oracles.rx(theta), atol=1e-15)
        assert np.allclose(ry_matrix(theta), oracles.ry(theta), atol=1e-15)


def test_fixed_gate_matrices_match_oracle():
    assert np.allclose(gate_matrix(Gate(GateKind.SX, (0,))), oracles.SX, atol=1e-15)
    assert np.allclose(gate_matrix(Gate(GateKind.X, (0,))), oracles.X, atol=1e-15)
    assert np.allclose(gate_matrix(Gate(GateKind.ECR, (0, 1))), oracles.ECR, atol=1e-15)
    assert np.allclose(gate_matrix(Gate(GateKind.SWAP, (0, 1))), oracles.SWAP4, atol=1e-15)


def test_ideal_empty_circuit_is_e0():
    state = simulate_ideal(Circuit(2))
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(state, expected, atol=1e-15)


def test_ideal_x_flips_to_e1():
    state = simulate_ideal(Circuit(1).x(0))
    assert np.allclose(state, [0.0, 1.0], atol=1e-15)


def test_ideal_requires_theta_for_slots():
    circuit = Circuit(1).rz(0, slot=0)
    with pytest.raises(ValueError):
        simulate_ideal(circuit)


def _random_lowered_circuit(rng, num_qubits, length):
    c = Circuit(num_qubits)
    for _ in range(length):
        q = int(rng.integers(num_qubits))
        choice = rng.integers(4 if num_qubits >= 2 else 3)
        if choice == 0:
            c.rz(q, angle=float(rng.uniform(-np.pi, np.pi)))
        elif choice == 1:
            c.sx(q)
        elif choice == 2:
            c.x(q)
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            c.cx(int(a), int(b))
    return c


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 25), st.integers(0, 2**32 - 1))
def test_ideal_matches_oracle_on_random_circuits(num_qubits, length, seed):
    rng = np.random.default_rng(seed)
    circuit = _random_lowered_circuit(rng, num_qubits, length)
    got = simulate_ideal(circuit)
    expected = oracles.simulate(circuit, None)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_ideal_ansatz_equals_epilogue_of_symbolic(num_qubits, layers, seed):
    rng = np.random.default_rng(seed)
    bundle = build(AnsatzConfig(num_qubits, layers))
    theta = rng.uniform(-np.pi, np.pi, size=bundle.num_params)
    dense = simulate_ideal(bundle.logical_circuit, theta)
    via_table = bundle.symbolic.evaluate(theta)
    for q, factor in enumerate(bundle.epilogue_factors):
        via_table = oracles.embed_one(factor, q, num_qubits) @ via_table
    assert np.max(np.abs(dense - via_table)) <= 1e-10


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1, p2=0.0)
    with pytest.raises(ValueError):
        NoiseModel(p1=0.0, p2=1.5)
    default = NoiseModel()
    assert default.p1 == 2e-4
    assert default.p2 == 7e-3


def test_noiseless_sx_is_pure_and_exact():
    circuit = Circuit(1).sx(0)
    rho = simulate_noisy(circuit, None, NoiseModel(p1=0.0, p2=0.0))
    ideal = simulate_ideal(circuit)
    assert abs(fidelity_to_pure(rho, ideal) - 1.0) <= 1e-12
    assert abs(np.trace(rho.data @ rho.data) - 1.0) <= 1e-10  # purity


def test_single_gate_depolarizing_closed_form():
    for p in (0.001, 0.02, 0.3):
        circuit = Circuit(1).sx(0)
        rho = simulate_noisy(circuit, None, NoiseModel(p1=p, p2=0.0))
        ideal = simulate_ideal(circuit)
        assert abs(fidelity_to_pure(rho, ideal) - (1.0 - p / 2.0)) <= 1e-12


def test_rz_is_noiseless_in_the_channel():
    circuit = Circuit(1).rz(0, angle=1.3)
    rho = simulate_noisy(circuit, None, NoiseModel(p1=0.5, p2=0.5))
    assert abs(fidelity_to_pure(rho, simulate_ideal(circuit)) - 1.0) <= 1e-12


def test_noisy_rejects_unlowered_kinds():
    with pytest.raises(ValueError, match="lower"):
        simulate_noisy(Circuit(2).cy(0, 1), None, NoiseModel())


def test_noisy_rejects_oversized_register():
    with pytest.raises(ValueError, match="capped"):
        simulate_noisy(Circuit(11).sx(0), None, NoiseModel())


def test_fidelity_contracts_along_prefixes():
    rng = np.random.default_rng(0)
    noise = NoiseModel(p1=0.01, p2=0.01)
    for _ in range(20):
        circuit = _random_lowered_circuit(rng, 3, 20)
        previous = 1.0
        for cut in range(1, len(circuit.gates) + 1):
            prefix = Circuit(3)
            for gate in circuit.gates[:cut]:
                prefix.append(gate)
            rho = simulate_noisy(prefix, None, noise)
            fid = fidelity_to_pure(rho, simulate_ideal(prefix))
            assert fid <= previous + 1e-12
            previous = fid


def test_zero_noise_equals_ideal_outer_product():
    rng = np.random.default_rng(21)
    for _ in range(5):
        circuit = _random_lowered_circuit(rng, 3, 15)
        rho = simulate_noisy(circuit, None, NoiseModel(p1=0.0, p2=0.0))
        psi = simulate_ideal(circuit)
        assert np.max(np.abs(rho.data - np.outer(psi, psi.conj()))) <= 1e-10


def test_noisy_preserves_trace_hermiticity_psd():
    rng = np.random.default_rng(30)
    circuit = _random_lowered_circuit(rng, 3, 25)
    rho = simulate_noisy(circuit, None, NoiseModel(p1=0.03, p2=0.05)).data
    assert abs(np.trace(rho).real - 1.0) <= 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2, dtype=complex))  # trace 2
    skew = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, skew)  # not Hermitian


# ------------------------------------ equivalence with the reference paths


def _random_physical_circuit(rng, num_qubits, length, two_qubit, slots=0):
    """Basis-lowered gates with runs of 0-3 RZ in front of every physical
    gate, on either qubit of two-qubit gates, and a trailing RZ run. With
    `slots`, RZs draw a parameter slot instead of an angle half the time."""
    c = Circuit(num_qubits)

    def rz_run(qubits):
        for _ in range(int(rng.integers(4))):
            q = int(rng.choice(qubits))
            if slots and rng.random() < 0.5:
                c.rz(q, slot=int(rng.integers(slots)))
            else:
                c.rz(q, angle=float(rng.uniform(-np.pi, np.pi)))

    for _ in range(length):
        if num_qubits >= 2 and rng.random() < 0.5:
            a, b = (int(v) for v in rng.choice(num_qubits, size=2, replace=False))
            rz_run([a, b])
            c.append(Gate(two_qubit, (a, b)))
        else:
            q = int(rng.integers(num_qubits))
            rz_run([q])
            c.append(Gate(GateKind.SX if rng.random() < 0.7 else GateKind.X, (q,)))
    rz_run(list(range(num_qubits)))
    if slots:
        c.num_params = slots
    return c


def _max_diff_to_reference(circuit, noise, theta=None):
    got = simulate_noisy(circuit, theta, noise).data
    assert np.linalg.eigvalsh(got).min() >= -1e-9  # validate() leaves positivity to tests
    expected = oracles.reference_noisy_density(
        circuit.num_qubits, circuit.gates, noise.p1, noise.p2, theta)
    return float(np.max(np.abs(got - expected)))


_NOISES = (NoiseModel(0.0, 0.0), NoiseModel(), NoiseModel(0.03, 0.08))


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_noisy_matches_reference_on_random_lowered_circuits(num_qubits, two_qubit):
    rng = np.random.default_rng([num_qubits, 2 if two_qubit is GateKind.CX else 3])
    for noise in _NOISES:
        for _ in range(3):
            circuit = _random_physical_circuit(rng, num_qubits, 30, two_qubit)
            assert _max_diff_to_reference(circuit, noise) <= 1e-12


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
def test_noisy_matches_reference_with_parameter_slots(two_qubit):
    rng = np.random.default_rng(44)
    for num_qubits in (1, 3, 5):
        circuit = _random_physical_circuit(rng, num_qubits, 25, two_qubit, slots=6)
        theta = rng.uniform(-np.pi, np.pi, size=6)
        for noise in _NOISES:
            assert _max_diff_to_reference(circuit, noise, theta) <= 1e-12


def test_noisy_matches_reference_on_rz_only_circuits():
    rng = np.random.default_rng(45)
    for num_qubits in (1, 2, 4, 6):
        c = Circuit(num_qubits)
        for _ in range(4):  # superpose first, so the phases are visible in rho
            for q in range(num_qubits):
                c.sx(q)
        for _ in range(12):
            c.rz(int(rng.integers(num_qubits)), angle=float(rng.uniform(-np.pi, np.pi)))
        for noise in _NOISES:
            assert _max_diff_to_reference(c, noise) <= 1e-12
            bare = Circuit(num_qubits, [g for g in c.gates if g.is_virtual])
            assert _max_diff_to_reference(bare, noise) <= 1e-12


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
def test_noisy_matches_reference_on_compiled_baselines(two_qubit):
    rng = np.random.default_rng(46)
    for num_qubits in (2, 4, 5):
        x = rng.normal(size=1 << num_qubits)
        x /= np.linalg.norm(x)
        circuit = compile_exact(x, two_qubit).physical_circuit
        assert _max_diff_to_reference(circuit, NoiseModel()) <= 1e-12


def _few_pair_circuit(rng, num_qubits, length, two_qubit, slots=0):
    """Two-qubit gates drawn from only two or three pairs, in either
    orientation, so that runs on one pair, one-qubit gates and RZs landing
    inside an open pair, and interleaved disjoint pairs are all common.
    With `slots`, RZs draw a parameter slot instead of an angle half the time."""
    c = Circuit(num_qubits)
    pairs = [tuple(int(v) for v in rng.choice(num_qubits, size=2, replace=False))
             for _ in range(int(rng.integers(2, 4)))]
    on_pairs = sorted({q for pair in pairs for q in pair})
    for _ in range(length):
        draw = rng.random()
        q = int(rng.choice(on_pairs) if rng.random() < 0.8 else rng.integers(num_qubits))
        if draw < 0.45:
            a, b = pairs[int(rng.integers(len(pairs)))]
            c.append(Gate(two_qubit, (a, b) if rng.random() < 0.5 else (b, a)))
        elif draw < 0.75:
            c.append(Gate(GateKind.SX if rng.random() < 0.7 else GateKind.X, (q,)))
        elif slots and rng.random() < 0.5:
            c.rz(q, slot=int(rng.integers(slots)))
        else:
            c.rz(q, angle=float(rng.uniform(-np.pi, np.pi)))
    if slots:
        c.num_params = slots
    return c


def _fusion_cases(gates):
    """How often a two-qubit gate follows one on the reversed pair with no
    other two-qubit gate on either qubit in between, and how many one-qubit
    gates sit between two two-qubit gates on one pair."""
    last: dict[int, tuple] = {}  # qubit -> (index, qubits) of its latest two-qubit gate
    reversed_runs = inside = 0
    for i, gate in enumerate(gates):
        if len(gate.qubits) != 2:
            continue
        a, b = gate.qubits
        prev = last.get(a)
        if prev is not None and prev == last.get(b):
            reversed_runs += prev[1] == (b, a)
            inside += sum(1 for g in gates[prev[0] + 1:i] if g.qubits in ((a,), (b,)))
        last[a] = last[b] = (i, gate.qubits)
    return reversed_runs, inside


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
def test_noisy_matches_reference_on_repeated_pairs(num_qubits, two_qubit):
    rng = np.random.default_rng([num_qubits, 7 if two_qubit is GateKind.CX else 8])
    reversed_runs = inside = 0
    for noise in _NOISES:
        for slots in (0, 5):
            circuit = _few_pair_circuit(rng, num_qubits, 40, two_qubit, slots)
            theta = rng.uniform(-np.pi, np.pi, size=slots) if slots else None
            assert _max_diff_to_reference(circuit, noise, theta) <= 1e-12
            counts = _fusion_cases(circuit.gates)
            reversed_runs += counts[0]
            inside += counts[1]
    assert reversed_runs > 0 and inside > 0  # the generator reaches both cases


def test_noisy_fuses_gates_on_one_pair_into_fewer_passes(monkeypatch):
    rng = np.random.default_rng(49)
    x = rng.normal(size=32)
    circuit = compile_exact(x / np.linalg.norm(x), GateKind.CX).physical_circuit
    passes = []
    real = simulator._apply

    def counted(*args):
        passes.append(args[3])
        return real(*args)

    monkeypatch.setattr(simulator, "_apply", counted)
    simulate_noisy(circuit, None, NoiseModel())
    two_qubit = sum(1 for gate in circuit.gates if len(gate.qubits) == 2)
    assert passes and set(passes) == {10}  # every pass is on the rank-2n density tensor
    assert len(passes) < two_qubit


def _moveaxis_statevector(circuit, theta=None):
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = oracles.reference_apply_unitary(
            state, gate_matrix(gate, theta), gate.qubits, circuit.num_qubits)
    return state


def test_ideal_is_bit_for_bit_the_moveaxis_path():
    rng = np.random.default_rng(47)
    for num_qubits in range(1, 8):
        for two_qubit in (GateKind.CX, GateKind.ECR):
            circuit = _random_physical_circuit(rng, num_qubits, 40, two_qubit, slots=4)
            for gate in ((GateKind.CY, GateKind.SWAP) if num_qubits >= 2 else ()):
                a, b = (int(v) for v in rng.choice(num_qubits, size=2, replace=False))
                circuit.append(Gate(gate, (a, b)))
            circuit.rx(0, 0.3).ry(num_qubits - 1, -1.1)
            theta = rng.uniform(-np.pi, np.pi, size=4)
            got = simulate_ideal(circuit, theta)
            assert np.array_equal(got, _moveaxis_statevector(circuit, theta))


def test_apply_unitary_is_bit_for_bit_the_moveaxis_path():
    rng = np.random.default_rng(48)
    for n in range(1, 8):
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for m in (1, 2):
            if m > n:
                continue
            qubits = tuple(int(q) for q in rng.choice(n, size=m, replace=False))
            u = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
            got = apply_unitary(state, u, qubits, n)
            assert np.array_equal(got, oracles.reference_apply_unitary(state, u, qubits, n))


def test_apply_does_not_depend_on_the_layout_of_its_input():
    # _apply returns transposed views; a pass on one must give the bits it
    # gives on a contiguous copy, for every pair of qubit pairs in a row.
    rng = np.random.default_rng(58)
    for n in (2, 3, 4):
        rank = 2 * n
        pairs = [tuple(a for q in pair for a in (2 * (n - 1 - q), 2 * (n - 1 - q) + 1))
                 for pair in ((a, b) for a in range(n) for b in range(n) if a != b)]
        tensor = rng.normal(size=(2,) * rank)
        for first in pairs:
            view = simulator._apply(tensor, rng.normal(size=(16, 16)), first, rank)
            for second in pairs:
                op = rng.normal(size=(16, 16))
                got = simulator._apply(view, op, second, rank)
                assert np.array_equal(got, simulator._apply(np.ascontiguousarray(view), op, second, rank))


def _fixed_layout_pass(coords, op, axes, rank):
    """One 16x16 pass on contiguous coordinates in canonical axis order, with
    the operand laid out by `axes` alone: read as a transpose for the
    trailing axes, row-major otherwise."""
    rest = tuple(a for a in range(rank) if a not in axes)
    if axes == tuple(range(rank - 4, rank)):
        out = op @ coords.reshape(-1, 16).T
    else:
        out = op @ np.ascontiguousarray(coords.transpose(axes + rest)).reshape(16, -1)
    return out.reshape((2,) * rank).transpose(np.argsort(axes + rest)).reshape(-1)


def test_a_pass_gives_the_same_bits_in_every_memory_order():
    # The noisy simulator keeps its coordinates in whatever axis order the
    # last pass left; a pass must give the bits of the fixed-layout product.
    rng = np.random.default_rng(59)
    for n in range(2, 9):
        rank = 2 * n
        coords = rng.normal(size=(2,) * rank)
        qubit_order = rng.permutation(n)
        memory = tuple(a for q in qubit_order for a in (2 * q, 2 * q + 1))
        shuffled = np.ascontiguousarray(coords.transpose(memory)).transpose(np.argsort(memory))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                axes = (2 * (n - 1 - a), 2 * (n - 1 - a) + 1, 2 * (n - 1 - b), 2 * (n - 1 - b) + 1)
                op = rng.normal(size=(16, 16))
                want = _fixed_layout_pass(coords, op, axes, rank)
                for held in (coords, shuffled):
                    assert np.array_equal(simulator._apply(held, op, axes, rank).reshape(-1), want)


# ------------------------------------------------- Pauli coordinates and PTMs


def _oracle_unitaries(rng):
    """Every angle-free gate kind from the oracle's matrices (two-qubit ones in
    the gate's own basis, its first qubit on the most significant bit) and
    random RX, RY and RZ rotations."""
    two = [oracles.gate_operator(Gate(kind, (1, 0)), 2)
           for kind in (GateKind.CX, GateKind.CY, GateKind.SWAP, GateKind.ECR)]
    rotations = [rotation(float(rng.uniform(-np.pi, np.pi)))
                 for rotation in (oracles.rx, oracles.ry, oracles.rz) for _ in range(4)]
    return [oracles.SX, oracles.X, *two, *rotations]


def test_noiseless_ptm_is_real_orthogonal_and_fixes_the_identity():
    for u in _oracle_unitaries(np.random.default_rng(50)):
        r = simulator._ptm(u, 0.0)
        size = u.shape[0] ** 2
        e0 = np.eye(size)[0]
        assert r.dtype == np.float64 and r.shape == (size, size)
        assert np.max(np.abs(r @ r.T - np.eye(size))) <= 1e-14
        assert np.max(np.abs(r[0] - e0)) <= 1e-15 and np.max(np.abs(r[:, 0] - e0)) <= 1e-15
        assert np.max(np.abs(r - oracles.pauli_transfer_matrix(u, 0.0))) <= 1e-14


def test_noisy_ptm_is_depolarizing_scaling_of_the_unitary_ptm():
    for u in _oracle_unitaries(np.random.default_rng(51)):
        size = u.shape[0] ** 2
        for p in (2e-4, 0.07, 0.5, 1.0):
            scaling = np.diag([1.0] + [1.0 - p] * (size - 1))
            expected = scaling @ oracles.pauli_transfer_matrix(u, 0.0)
            assert np.max(np.abs(oracles.pauli_transfer_matrix(u, p) - expected)) <= 1e-14
            assert np.max(np.abs(simulator._ptm(u, p) - expected)) <= 1e-14


def _random_density(rng, n):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_pauli_coordinates_convert_back_to_rho(num_qubits):
    rng = np.random.default_rng([52, num_qubits])
    for _ in range(3):
        rho = _random_density(rng, num_qubits)
        coords = oracles.pauli_coordinates(rho, num_qubits)
        back = simulator._to_density(coords, num_qubits, {})
        assert np.max(np.abs(back - rho)) <= 1e-14


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_ptm_left_pending_at_the_end_is_folded_into_the_conversion(num_qubits):
    rng = np.random.default_rng([53, num_qubits])
    rho = _random_density(rng, num_qubits)
    q = int(rng.integers(num_qubits))
    u = oracles.rx(0.4) @ oracles.SX @ oracles.rz(-1.2)
    got = simulator._to_density(oracles.pauli_coordinates(rho, num_qubits), num_qubits,
                                {q: oracles.pauli_transfer_matrix(u, 0.0)})
    full = oracles.embed_one(u, q, num_qubits)
    assert np.max(np.abs(got - full @ rho @ full.conj().T)) <= 1e-14


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
@pytest.mark.parametrize("num_qubits", [7, 8])
def test_noisy_matches_reference_on_wide_registers(num_qubits, two_qubit):
    rng = np.random.default_rng([num_qubits, 54 if two_qubit is GateKind.CX else 55])
    for noise in _NOISES:
        circuit = _random_physical_circuit(rng, num_qubits, 32, two_qubit, slots=4)
        theta = rng.uniform(-np.pi, np.pi, size=4)
        assert _max_diff_to_reference(circuit, noise, theta) <= 1e-12
        circuit = _few_pair_circuit(rng, num_qubits, 80, two_qubit)
        assert _max_diff_to_reference(circuit, noise) <= 1e-12


def test_every_noisy_pass_is_real_arithmetic(monkeypatch):
    rng = np.random.default_rng(56)
    x = rng.normal(size=32)
    baseline = compile_exact(x / np.linalg.norm(x), GateKind.CX).physical_circuit
    with_slots = _random_physical_circuit(rng, 4, 30, GateKind.ECR, slots=3)
    dtypes = []
    real = simulator._apply

    def checked(tensor, op, axes, rank):
        dtypes.append((tensor.dtype, op.dtype))
        return real(tensor, op, axes, rank)

    monkeypatch.setattr(simulator, "_apply", checked)
    simulate_noisy(baseline, None, NoiseModel())
    simulate_noisy(with_slots, rng.uniform(-np.pi, np.pi, size=3), NoiseModel(0.01, 0.02))
    assert dtypes and set(dtypes) == {(np.dtype(np.float64), np.dtype(np.float64))}


# ------------------------------------------------------ RZ(0) is skipped


def _open_block_positions(gates):
    """For each RZ, where the noisy simulator's fusion rules find its qubit:
    None outside any open block, else its position (0 or 1) in the pair."""
    open_pair: dict[int, tuple] = {}
    positions = []
    for gate in gates:
        if len(gate.qubits) == 2:
            a, b = gate.qubits
            pair = open_pair.get(a)
            if pair is None or pair != open_pair.get(b):
                for q in gate.qubits:
                    for other in open_pair.pop(q, ()):
                        open_pair.pop(other, None)
                for q in gate.qubits:
                    open_pair[q] = gate.qubits
        elif gate.is_virtual:
            pair = open_pair.get(gate.qubits[0])
            positions.append(None if pair is None else pair.index(gate.qubits[0]))
    return positions


def _with_zero_rotations(rng, circuit, zero_slot):
    """`circuit` with RZ(0) inserted before about a third of its gates, on
    one of that gate's qubits or a random one, and last on some qubits. Each
    is a fixed angle of +0.0 or -0.0, or the slot `zero_slot`."""
    out = Circuit(circuit.num_qubits)

    def zero(q):
        draw = rng.random()
        if draw < 0.4:
            out.rz(q, slot=zero_slot)
        else:
            out.rz(q, angle=0.0 if draw < 0.7 else -0.0)

    for gate in circuit.gates:
        if rng.random() < 0.35:
            on_gate = rng.random() < 0.5
            zero(int(rng.choice(gate.qubits) if on_gate else rng.integers(circuit.num_qubits)))
        out.append(gate)
    for q in range(circuit.num_qubits):
        if rng.random() < 0.5:
            zero(q)
    out.num_params = circuit.num_params
    return out


@pytest.mark.parametrize("two_qubit", [GateKind.CX, GateKind.ECR])
def test_rz_zero_leaves_the_noisy_state_bit_for_bit(two_qubit):
    rng = np.random.default_rng([57, 0 if two_qubit is GateKind.CX else 1])
    positions = set()
    for num_qubits in (1, 2, 3, 5, 7):
        for noise in _NOISES:
            for make in (_random_physical_circuit, _few_pair_circuit):
                if make is _few_pair_circuit and num_qubits < 2:
                    continue
                circuit = make(rng, num_qubits, 40, two_qubit, slots=3)
                circuit.num_params = 4
                theta = np.append(rng.uniform(-np.pi, np.pi, size=3), 0.0)
                zeros = _with_zero_rotations(rng, circuit, zero_slot=3)
                assert len(zeros.gates) > len(circuit.gates)
                positions.update(p for g, p in zip(
                    (g for g in zeros.gates if g.is_virtual), _open_block_positions(zeros.gates))
                    if g.slot == 3 or g.angle == 0.0)
                got = simulate_noisy(zeros, theta, noise).data
                assert np.array_equal(got, simulate_noisy(circuit, theta, noise).data)
    assert positions == {None, 0, 1}  # pending, and both positions of an open block
