"""Exact amplitude embedding: multiplexed-Ry synthesis, basis lowering, routing.

The reference method prepares a real unit vector exactly. A disentangling
tree of uniformly controlled Ry rotations fixes one qubit per stage (high
bit first); each multiplexor with m controls expands to 2^m CX plus 2^m Ry
through the standard halving recursion, which is the Gray-code identity.
Lowering rewrites every gate into {RZ, SX, X} plus one two-qubit kind with
fixed rules and no merging or cancellation. Routing legalizes two-qubit
gates onto a linear chain by inserting SWAP chains.

Multiplexors whose angle block is exactly zero are skipped: the skipped
subcircuit composes to the identity (every CX in the cascade appears an
even number of times with a common target), so pruning stays exact. This
is what makes gate counts data-dependent: sparse targets produce shorter
circuits, dense targets the full tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateCounts, GateKind, metrics

__all__ = [
    "BasisConfig",
    "RoutedCircuit",
    "SynthesisOutput",
    "synthesize_exact",
    "lower_to_basis",
    "route_linear",
    "compile_exact",
    "permute_state",
]

_HALF_PI = np.pi / 2


@dataclass(frozen=True)
class BasisConfig:
    """Physical basis: {RZ virtual, SX, X} one-qubit set plus one two-qubit kind."""

    two_qubit_kind: GateKind = GateKind.CX

    def __post_init__(self) -> None:
        if self.two_qubit_kind not in (GateKind.CX, GateKind.ECR):
            raise ValueError(f"unsupported two-qubit basis kind {self.two_qubit_kind}")


@dataclass(frozen=True)
class RoutedCircuit:
    """Chain-legal circuit plus the final logical-to-physical position map."""

    circuit: Circuit
    layout: tuple[int, ...]


@dataclass
class SynthesisOutput:
    logical_circuit: Circuit
    physical_circuit: Circuit
    layout: tuple[int, ...]
    metrics: GateCounts
    synth_time: float


def synthesize_exact(x) -> Circuit:
    """Multiplexed-Ry circuit preparing the real unit vector x from |0...0>.

    Angles come from two-norm splits of the amplitude tree: each node's
    angle is 2*atan2(right-child, left-child), with signed values only at
    the leaves, so negative amplitudes are handled exactly by atan2 and
    zero-norm branches fall out as zero angles.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("synthesis targets must be real vectors")
    x = x.astype(float)
    if x.ndim != 1 or x.size < 2 or x.size & (x.size - 1):
        raise ValueError(f"target length must be a power of two >= 2, got {x.shape}")
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-8:
        raise ValueError("target must be L2-normalized")
    n = x.size.bit_length() - 1

    # levels[m][c] = norm of the block whose top m bits equal c; leaves signed
    levels = [x]
    while levels[-1].size > 1:
        prev = levels[-1]
        levels.append(np.sqrt(prev[0::2] ** 2 + prev[1::2] ** 2))
    levels.reverse()

    circuit = Circuit(n)
    for stage in range(n):
        child = levels[stage + 1]
        angles = 2.0 * np.arctan2(child[1::2], child[0::2])
        target = n - 1 - stage
        controls = list(range(target + 1, n))
        for gate in _multiplexed_ry(target, controls, angles):
            circuit.append(gate)
    return circuit


def _multiplexed_ry(target: int, controls: list[int], angles: np.ndarray) -> list[Gate]:
    """Halving recursion for a uniformly controlled Ry; bit j of the angle
    index is the value of controls[j]. Exact-zero angle blocks emit nothing."""
    if not np.any(angles):
        return []
    if not controls:
        return [Gate(GateKind.RY, (target,), angle=float(angles[0]))]
    half = len(angles) // 2
    low, high = angles[:half], angles[half:]
    first = _multiplexed_ry(target, controls[:-1], 0.5 * (low + high))
    second = _multiplexed_ry(target, controls[:-1], 0.5 * (low - high))
    if not first and not second:
        return []
    cx = Gate(GateKind.CX, (controls[-1], target))
    return [*first, cx, *second, cx]


def _lower_rotation(out: Circuit, kind: GateKind, qubit: int, angle: float) -> None:
    # ZXZXZ: circuit order RZ(lam), SX, RZ(theta+pi), SX, RZ(phi+pi), up to phase
    if kind is GateKind.RY:
        phi, lam = 0.0, 0.0
    elif kind is GateKind.RX:
        phi, lam = -_HALF_PI, _HALF_PI
    else:
        raise ValueError(f"no lowering rule for {kind}")
    out.rz(qubit, angle=lam)
    out.sx(qubit)
    out.rz(qubit, angle=angle + np.pi)
    out.sx(qubit)
    out.rz(qubit, angle=phi + np.pi)


def _lower_cx(out: Circuit, control: int, target: int, basis: BasisConfig) -> None:
    if basis.two_qubit_kind is GateKind.CX:
        out.cx(control, target)
        return
    # CX = ECR conjugated by fixed dressing, pinned by matrix check:
    # circuit order RZ(pi/2) c, X c, SX t, ECR(c, t)
    out.rz(control, angle=_HALF_PI)
    out.x(control)
    out.sx(target)
    out.ecr(control, target)


def lower_to_basis(circuit: Circuit, basis: BasisConfig = BasisConfig()) -> Circuit:
    """Rewrite into {RZ, SX, X} + the configured two-qubit kind, rule by rule.

    No merging, no cancellation, no angle simplification: each input gate
    expands independently, mirroring an optimization-level-zero transpile.
    Parameter slots survive only on RZ, which is already basis-legal.
    """
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        kind = gate.kind
        if kind is GateKind.RZ or kind is GateKind.SX or kind is GateKind.X:
            out.append(gate)
        elif kind in (GateKind.RX, GateKind.RY):
            if gate.angle is None:
                raise ValueError(f"cannot lower parametric {kind.value}; bind the angle first")
            _lower_rotation(out, kind, gate.qubits[0], gate.angle)
        elif kind is GateKind.CX:
            _lower_cx(out, gate.qubits[0], gate.qubits[1], basis)
        elif kind is GateKind.CY:
            control, target = gate.qubits
            out.rz(target, angle=-_HALF_PI)
            _lower_cx(out, control, target, basis)
            out.rz(target, angle=_HALF_PI)
        elif kind is GateKind.SWAP:
            a, b = gate.qubits
            _lower_cx(out, a, b, basis)
            _lower_cx(out, b, a, basis)
            _lower_cx(out, a, b, basis)
        elif kind is GateKind.ECR and basis.two_qubit_kind is GateKind.ECR:
            out.append(gate)
        else:
            raise ValueError(f"no lowering rule for {kind.value} into {basis.two_qubit_kind.value}")
    out.num_params = circuit.num_params
    return out


def route_linear(circuit: Circuit) -> RoutedCircuit:
    """Make every two-qubit gate act on adjacent chain positions.

    Greedy nearest-move policy: the first operand walks one position at a
    time toward the second, each step an inserted SWAP of neighboring
    physical wires. The final logical-to-physical map is returned so
    callers can undo the accumulated permutation on simulated states.
    Inserted SWAPs are IR-level and still need one lowering pass.
    """
    position = list(range(circuit.num_qubits))  # position[logical] = physical wire
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            out.append(Gate(gate.kind, (position[gate.qubits[0]],),
                            angle=gate.angle, slot=gate.slot))
            continue
        a, b = gate.qubits
        while abs(position[a] - position[b]) > 1:
            step = 1 if position[b] > position[a] else -1
            here, there = position[a], position[a] + step
            neighbor = position.index(there)
            out.swap(here, there)
            position[a], position[neighbor] = there, here
        out.append(Gate(gate.kind, (position[a], position[b])))
    out.num_params = circuit.num_params
    return RoutedCircuit(circuit=out, layout=tuple(position))


def permute_state(state: np.ndarray, layout: tuple[int, ...]) -> np.ndarray:
    """Statevector on physical wires given the logical one: bit q of the
    logical index moves to bit layout[q] of the physical index."""
    state = np.asarray(state)
    n = len(layout)
    if state.size != 1 << n:
        raise ValueError("state length does not match layout")
    logical = np.arange(state.size)
    physical = np.zeros_like(logical)
    for q in range(n):
        physical |= ((logical >> q) & 1) << layout[q]
    out = np.empty_like(state)
    out[physical] = state
    return out


def compile_exact(x, basis: BasisConfig = BasisConfig()) -> SynthesisOutput:
    """Full reference pipeline: synthesize, lower, route, lower inserted SWAPs."""
    start = time.perf_counter()
    logical = synthesize_exact(x)
    lowered = lower_to_basis(logical, basis)
    routed = route_linear(lowered)
    physical = lower_to_basis(routed.circuit, basis)
    elapsed = time.perf_counter() - start
    return SynthesisOutput(
        logical_circuit=logical,
        physical_circuit=physical,
        layout=routed.layout,
        metrics=metrics(physical),
        synth_time=elapsed,
    )
