"""Exact amplitude embedding: multiplexed-Ry synthesis, basis lowering, routing.

The reference method prepares a real unit vector exactly. A disentangling
tree of uniformly controlled Ry rotations fixes one qubit per stage (high
bit first). Each multiplexor with m >= 1 controls is the Gray-code form
(Mottonen et al., quant-ph/0407010) written in the target's X frame:
RX(-pi/2), then 2^m virtual RZ, each followed by one CX, then RX(pi/2).
A dense n-qubit target thus gets one Ry (the m = 0 stage), 2^n - 2 RZ,
2(n - 1) RX and 2^n - 2 CX (126 at n = 7); after lowering, each multiplexor
costs four SX, not two per angle.
Lowering rewrites every gate into {RZ, SX, X} plus one two-qubit kind with
fixed rules and no merging or cancellation. Routing legalizes two-qubit
gates onto a linear chain: when a gate's operands are not adjacent, the
operand whose walk leaves fewer SWAPs for the next eight two-qubit gates
walks to the other, one inserted SWAP per step (the first operand on a
tie). The final layout is returned, not restored.

Multiplexors whose angle block is exactly zero are skipped: the skipped
subcircuit composes to the identity (the Gray cycle flips every control
an even number of times, all with a common target), so pruning stays
exact. A block of equal angles is one Ry. This is what makes gate counts
data-dependent: sparse targets produce shorter circuits, dense targets
the full tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import ROTATION_KINDS, Circuit, Gate, GateCounts, GateKind, fixed_gate, metrics

__all__ = [
    "RoutedCircuit",
    "SynthesisOutput",
    "synthesize_exact",
    "lower_to_basis",
    "route_linear",
    "compile_exact",
    "permute_state",
]

_HALF_PI = np.pi / 2
_LOOKAHEAD = 8  # two-qubit gates the router scores a walk over


@dataclass(frozen=True)
class RoutedCircuit:
    """Chain-legal circuit plus the final logical-to-physical position map."""

    circuit: Circuit
    layout: tuple[int, ...]


@dataclass
class SynthesisOutput:
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
    """Gray-code uniformly controlled Ry; bit j of the angle index is the
    value of controls[j]. It is the uniformly controlled RZ in the target's
    X frame: RX(-pi/2), then per Gray-order angle theta_i an RZ(-theta_i)
    followed by a CX from the control whose bit flips between gray(i) and
    gray(i+1), then RX(pi/2). Ry(t) = Rx(pi/2) Rz(-t) Rx(-pi/2) and Rx on the
    target commutes with every CX into it, so this is the Ry cascade's
    unitary, global phase included; the CX cascade returns to the identity.
    Exact-zero blocks emit nothing, uniform blocks one Ry."""
    if not np.any(angles):
        return []
    order, flips = _gray_code(len(controls))
    theta = _walsh_hadamard(angles)[order]
    if not np.any(theta[1:]):
        return [Gate(GateKind.RY, (target,), angle=float(theta[0]))]
    gates = [Gate(GateKind.RX, (target,), angle=-_HALF_PI)]
    for angle, k in zip(theta.tolist(), flips):
        gates.append(Gate(GateKind.RZ, (target,), angle=-angle))
        gates.append(fixed_gate(GateKind.CX, (controls[k], target)))
    gates.append(Gate(GateKind.RX, (target,), angle=_HALF_PI))
    return gates


def _walsh_hadamard(angles: np.ndarray) -> np.ndarray:
    """H angles / 2^m with H_cj = (-1)^popcount(c & j), as a butterfly that
    halves each sum and difference. Read at gray(i), this is theta = M^T
    angles / 2^m with M_ci = (-1)^popcount(c & gray(i)). Equal angles give
    exactly zero differences."""
    out = np.array(angles, dtype=float)
    half = 1
    while half < out.size:
        pairs = out.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        out = np.stack((0.5 * (low + high), 0.5 * (low - high)), axis=1).reshape(-1)
        half *= 2
    return out


@lru_cache(maxsize=None)
def _gray_code(m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """gray(i) = i ^ (i >> 1) for i < 2^m as a read-only index array, and
    the bit that flips from gray(i) to gray((i + 1) mod 2^m) for each i."""
    index = np.arange(1 << m)
    order = index ^ (index >> 1)
    order.flags.writeable = False
    flips = tuple((i & -i).bit_length() - 1 for i in range(1, 1 << m)) + (m - 1,)
    return order, flips


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


def _lower_cx(out: Circuit, control: int, target: int, two_qubit: GateKind) -> None:
    if two_qubit is GateKind.CX:
        out.cx(control, target)
        return
    # CX = ECR conjugated by fixed dressing, pinned by matrix check:
    # circuit order RZ(pi/2) c, X c, SX t, ECR(c, t)
    out.rz(control, angle=_HALF_PI)
    out.x(control)
    out.sx(target)
    out.ecr(control, target)


def lower_to_basis(circuit: Circuit, two_qubit: GateKind = GateKind.CX) -> Circuit:
    """Rewrite into {RZ, SX, X} + `two_qubit` (CX or ECR), rule by rule.

    No merging, no cancellation, no angle simplification: each input gate
    expands independently, mirroring an optimization-level-zero transpile.
    Gates already in the basis pass through as the same objects, so lowering
    is idempotent. Parameter slots survive only on RZ.
    """
    if two_qubit not in (GateKind.CX, GateKind.ECR):
        raise ValueError(f"unsupported two-qubit basis kind {two_qubit}")
    legal = (GateKind.RZ, GateKind.SX, GateKind.X, two_qubit)
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        kind = gate.kind
        if kind in legal:
            out.append(gate)
        elif kind in (GateKind.RX, GateKind.RY):
            if gate.angle is None:
                raise ValueError(f"cannot lower parametric {kind.value}; bind the angle first")
            _lower_rotation(out, kind, gate.qubits[0], gate.angle)
        elif kind is GateKind.CX:
            _lower_cx(out, gate.qubits[0], gate.qubits[1], two_qubit)
        elif kind is GateKind.CY:
            control, target = gate.qubits
            out.rz(target, angle=-_HALF_PI)
            _lower_cx(out, control, target, two_qubit)
            out.rz(target, angle=_HALF_PI)
        elif kind is GateKind.SWAP:
            a, b = gate.qubits
            _lower_cx(out, a, b, two_qubit)
            _lower_cx(out, b, a, two_qubit)
            _lower_cx(out, a, b, two_qubit)
        else:
            raise ValueError(f"no lowering rule for {kind.value} into {two_qubit.value}")
    out.num_params = circuit.num_params
    return out


def route_linear(circuit: Circuit) -> RoutedCircuit:
    """Make every two-qubit gate act on adjacent chain positions.

    When a gate's operands are not adjacent, one of them walks one position
    at a time toward the other, each step an inserted SWAP of neighboring
    physical wires. Either walk costs the same SWAPs for this gate; the one
    whose layout leaves fewer SWAPs for the next `_LOOKAHEAD` two-qubit
    gates (summed distances, nothing routed in between) walks, and on a tie
    the first operand does. The final logical-to-physical map is returned so callers
    can undo the accumulated permutation on simulated states. A gate whose
    wires equal its qubits is passed through as it is. Inserted SWAPs are
    IR-level and still need one lowering pass.
    """
    position = list(range(circuit.num_qubits))  # position[logical] = physical wire
    pairs = [gate.qubits for gate in circuit.gates if len(gate.qubits) == 2]
    upcoming = 0  # index in `pairs` of the next two-qubit gate
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        qubits = gate.qubits
        if len(qubits) == 2:
            upcoming += 1
            a, b = qubits
            if abs(position[a] - position[b]) > 1:
                ahead = pairs[upcoming:upcoming + _LOOKAHEAD]
                walker = a
                if _walk_cost(position, b, a, ahead) < _walk_cost(position, a, b, ahead):
                    walker = b
                _walk(out, position, walker, a + b - walker)
            wires = (position[a], position[b])
        else:
            wires = (position[qubits[0]],)
        if wires != qubits:
            gate = (Gate(gate.kind, wires, angle=gate.angle, slot=gate.slot)
                    if gate.kind in ROTATION_KINDS else fixed_gate(gate.kind, wires))
        out.append(gate)
    out.num_params = circuit.num_params
    return RoutedCircuit(circuit=out, layout=tuple(position))


def _walk_cost(position: list[int], walker: int, other: int, ahead: list[tuple[int, ...]]) -> int:
    """SWAPs the pairs in `ahead` would need, each alone, once `walker` has
    walked next to `other`. The walk moves the walker from `src` to `dst`
    and shifts every wire in between one step back toward `src`."""
    src, stop = position[walker], position[other]
    step = 1 if stop > src else -1
    dst = stop - step
    low, high = (src, dst) if step > 0 else (dst, src)
    cost = 0
    for p, q in ahead:
        wp, wq = position[p], position[q]
        if wp == src:
            wp = dst
        elif low <= wp <= high:
            wp -= step
        if wq == src:
            wq = dst
        elif low <= wq <= high:
            wq -= step
        cost += abs(wp - wq) - 1
    return cost


def _walk(out: Circuit, position: list[int], walker: int, other: int) -> None:
    """Walk `walker` next to `other`, one SWAP of neighboring wires a step."""
    step = 1 if position[other] > position[walker] else -1
    while abs(position[walker] - position[other]) > 1:
        here, there = position[walker], position[walker] + step
        neighbor = position.index(there)
        out.swap(here, there)
        position[walker], position[neighbor] = there, here


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


def compile_exact(x, two_qubit: GateKind = GateKind.CX) -> SynthesisOutput:
    """Full reference pipeline: synthesize, lower, route, lower inserted SWAPs."""
    start = time.perf_counter()
    routed = route_linear(lower_to_basis(synthesize_exact(x), two_qubit))
    physical = lower_to_basis(routed.circuit, two_qubit)
    elapsed = time.perf_counter() - start
    return SynthesisOutput(
        physical_circuit=physical,
        layout=routed.layout,
        metrics=metrics(physical),
        synth_time=elapsed,
    )
