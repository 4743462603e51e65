"""Gate-list circuit IR and hardware-facing metrics.

The IR is a flat list of gates in execution order over a fixed qubit count.
Rotation gates (RZ, RX, RY) carry either a concrete angle or a parameter
slot index; all other kinds carry neither. Parameter slots are global
integer indices so a bound circuit is just the IR plus a theta vector.

Metrics treat RZ as virtual (a software frame change): RZ contributes to
neither the physical gate counts nor the depth. Depth is the critical-path
length over physical gates under qubit-dependency ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class GateKind(str, Enum):
    RZ = "RZ"
    RX = "RX"
    RY = "RY"
    SX = "SX"
    X = "X"
    CX = "CX"
    ECR = "ECR"
    CY = "CY"
    SWAP = "SWAP"


ROTATION_KINDS = frozenset({GateKind.RZ, GateKind.RX, GateKind.RY})
TWO_QUBIT_KINDS = frozenset({GateKind.CX, GateKind.ECR, GateKind.CY, GateKind.SWAP})


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, qubit tuple, and angle XOR slot for rotations."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None

    def __post_init__(self):
        expected_arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != expected_arity:
            raise ValueError(f"{self.kind.value} takes {expected_arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value}{self.qubits}")
        if self.kind in ROTATION_KINDS:
            if (self.angle is None) == (self.slot is None):
                raise ValueError(f"{self.kind.value} needs exactly one of angle or slot")
        elif self.angle is not None or self.slot is not None:
            raise ValueError(f"{self.kind.value} carries no angle or slot")

    @property
    def is_virtual(self) -> bool:
        return self.kind is GateKind.RZ


@dataclass
class GateCounts:
    one_qubit_physical: int
    two_qubit_physical: int
    virtual_rz: int
    total_physical: int
    depth_physical: int


@dataclass
class Circuit:
    """Ordered gate list; construct via append, treat as read-only afterwards."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    num_params: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits}-qubit circuit")
        self.gates.append(gate)
        if gate.slot is not None and gate.slot >= self.num_params:
            self.num_params = gate.slot + 1
        return self

    def rz(self, qubit: int, *, angle: float | None = None, slot: int | None = None) -> "Circuit":
        return self.append(Gate(GateKind.RZ, (qubit,), angle=angle, slot=slot))

    def rx(self, qubit: int, angle: float) -> "Circuit":
        return self.append(Gate(GateKind.RX, (qubit,), angle=angle))

    def ry(self, qubit: int, angle: float) -> "Circuit":
        return self.append(Gate(GateKind.RY, (qubit,), angle=angle))

    def sx(self, qubit: int) -> "Circuit":
        return self.append(Gate(GateKind.SX, (qubit,)))

    def x(self, qubit: int) -> "Circuit":
        return self.append(Gate(GateKind.X, (qubit,)))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.CX, (control, target)))

    def cy(self, control: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.CY, (control, target)))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(Gate(GateKind.SWAP, (a, b)))

    def ecr(self, a: int, b: int) -> "Circuit":
        return self.append(Gate(GateKind.ECR, (a, b)))


def metrics(circuit: Circuit) -> GateCounts:
    """Count physical gates and critical-path depth; RZ is transparent."""
    one_q = two_q = rz = 0
    level = [0] * circuit.num_qubits
    for gate in circuit.gates:
        if gate.is_virtual:
            rz += 1
            continue
        if gate.kind in TWO_QUBIT_KINDS:
            two_q += 1
        else:
            one_q += 1
        depth_here = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = depth_here
    return GateCounts(
        one_qubit_physical=one_q,
        two_qubit_physical=two_q,
        virtual_rz=rz,
        total_physical=one_q + two_q,
        depth_physical=max(level) if level else 0,
    )
