import pytest
from hypothesis import given, strategies as st

from enqode.circuit import Circuit, Gate, GateKind, metrics


def test_cy_on_empty_circuit():
    c = Circuit(2).cy(0, 1)
    assert len(c.gates) == 1
    assert c.num_params == 0


def test_fresh_slots_grow_param_count():
    c = Circuit(2).rz(0, slot=0).rz(1, slot=1)
    assert c.num_params == 2


def test_duplicate_qubit_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Circuit(2).cy(0, 0)


def test_out_of_range_qubit_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2).sx(2)


_ONE_QUBIT_HELPERS = ("sx", "x")
_TWO_QUBIT_HELPERS = ("cx", "cy", "swap", "ecr")


def test_angle_free_helpers_share_one_gate_per_kind_and_qubits():
    for name in _ONE_QUBIT_HELPERS + _TWO_QUBIT_HELPERS:
        qubits = (2,) if name in _ONE_QUBIT_HELPERS else (2, 0)
        first = getattr(Circuit(3), name)(*qubits).gates[0]
        second = getattr(Circuit(4), name)(*qubits).gates[0]
        assert first is second
        assert first == Gate(GateKind(name.upper()), qubits)
        reversed_pair = getattr(Circuit(3), name)(*qubits[::-1]).gates[0]
        assert reversed_pair.qubits == qubits[::-1]


def test_shared_gates_are_still_validated():
    for name in _TWO_QUBIT_HELPERS:
        for _ in range(2):  # a rejected gate is never cached
            with pytest.raises(ValueError, match="duplicate"):
                getattr(Circuit(2), name)(0, 0)
            with pytest.raises(ValueError, match="out of range"):
                getattr(Circuit(2), name)(0, 5)
    for name in _ONE_QUBIT_HELPERS:
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                getattr(Circuit(2), name)(5)
            with pytest.raises(ValueError, match="out of range"):
                getattr(Circuit(2), name)(-1)


def test_rotation_needs_angle_xor_slot():
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,), angle=0.5, slot=0)
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.SX, (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (0, 1), slot=0)


def test_two_qubit_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.SX, (0, 1))


def test_metrics_empty_circuit():
    counts = metrics(Circuit(3))
    assert counts.one_qubit_physical == 0
    assert counts.two_qubit_physical == 0
    assert counts.virtual_rz == 0
    assert counts.total_physical == 0
    assert counts.depth_physical == 0


def test_metrics_rz_is_virtual():
    c = Circuit(1).rz(0, angle=0.3).sx(0).sx(0)
    counts = metrics(c)
    assert counts.one_qubit_physical == 2
    assert counts.virtual_rz == 1
    assert counts.total_physical == 2
    assert counts.depth_physical == 2


def test_metrics_parallel_then_cx():
    c = Circuit(2).sx(0).sx(1).cx(0, 1)
    counts = metrics(c)
    assert counts.depth_physical == 2
    assert counts.one_qubit_physical == 2
    assert counts.two_qubit_physical == 1


def _gates(max_qubits=4):
    """Strategy for (num_qubits, gate list) with valid indices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_qubits))
        count = draw(st.integers(0, 12))
        gates = []
        for _ in range(count):
            q = draw(st.integers(0, n - 1))
            choice = draw(st.integers(0, 4))
            if choice == 0:
                gates.append(Gate(GateKind.RZ, (q,), angle=draw(st.floats(-3, 3))))
            elif choice == 1:
                gates.append(Gate(GateKind.SX, (q,)))
            elif choice == 2:
                gates.append(Gate(GateKind.X, (q,)))
            else:
                r = draw(st.integers(0, n - 1).filter(lambda v, q=q: v != q))
                kind = GateKind.CX if choice == 3 else GateKind.CY
                gates.append(Gate(kind, (q, r)))
        return n, gates

    return build()


def _circuit_of(n, gates):
    c = Circuit(n)
    for g in gates:
        c.append(g)
    return c


@given(_gates())
def test_appending_rz_never_changes_physical_metrics(case):
    n, gates = case
    c = _circuit_of(n, gates)
    before = metrics(c)
    c.rz(0, angle=1.0)
    after = metrics(c)
    assert after.depth_physical == before.depth_physical
    assert after.total_physical == before.total_physical
    assert after.virtual_rz == before.virtual_rz + 1


@given(_gates(), _gates())
def test_concat_depth_subadditive(case_a, case_b):
    n = max(case_a[0], case_b[0])
    a = _circuit_of(n, case_a[1])
    b = _circuit_of(n, case_b[1])
    joined = metrics(_circuit_of(n, case_a[1] + case_b[1]))
    assert joined.depth_physical <= metrics(a).depth_physical + metrics(b).depth_physical
    assert joined.total_physical == metrics(a).total_physical + metrics(b).total_physical


@given(_gates(), st.data())
def test_swapping_adjacent_disjoint_gates_preserves_metrics(case, data):
    n, gates = case
    disjoint = [
        i for i in range(len(gates) - 1)
        if not set(gates[i].qubits) & set(gates[i + 1].qubits)
    ]
    if not disjoint:
        return
    i = data.draw(st.sampled_from(disjoint))
    swapped = list(gates)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert metrics(_circuit_of(n, gates)) == metrics(_circuit_of(n, swapped))

