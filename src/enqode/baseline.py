"""Exact amplitude embedding: multiplexed-Ry synthesis on the chain, basis lowering.

The reference method prepares a real unit vector exactly. A disentangling
tree of uniformly controlled Ry rotations fixes one qubit per stage (high
bit first). Each multiplexor with m >= 1 controls is the uniformly
controlled RZ (Mottonen et al., quant-ph/0407010) in the target's X frame:
RX(-pi/2), a CX+RZ phase polynomial (Amy, Azimzadeh & Mosca,
arXiv:1712.01859), RX(pi/2). The polynomial is a closed walk of the
target's content along the chain [target, *controls], so every CX acts on
neighbouring wires, every wire is restored and no routing is needed.
A dense n-qubit target gets one Ry, 2^n - 2 RZ, 2(n - 1) RX and
2, 10, 26, 58, 126, 266, ... CX (n = 2, 3, ...).
Lowering rewrites every gate into {RZ, SX, X} plus one two-qubit kind with
fixed rules and no merging or cancellation. `route_linear` legalizes other
circuits by walking the first operand of a distant gate toward the second,
one SWAP per step; synthesized circuits pass through it unchanged.

Multiplexors whose angle block is exactly zero are skipped: the skipped
subcircuit composes to the identity (its RZ angles are zero and the walk
restores every wire), so pruning stays exact. A block of equal angles is
one Ry. This is what makes gate counts data-dependent: sparse targets
produce shorter circuits, dense targets the full tree.
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
# open walks over 1-3 controls, from the shortest closed walks for m = 3, 4
_OPEN_WALKS = {1: "T1", 2: "R1 T2 L1", 3: "R1 T2 T1 R2 T3 L2 T1 T2 L1"}


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
    """Uniformly controlled Ry on the chain [target, *controls]; bit j of
    the angle index is the value of controls[j]. Between RX(-pi/2) and
    RX(pi/2) on the target, RZ(-theta_c) lands on the wire holding
    target ^ parity c. Ry(t) = Rx(pi/2) Rz(-t) Rx(-pi/2) and Rx on the target
    commutes with every CX into it, so this is the Ry cascade's unitary,
    global phase included.

    The target's content, the walker, follows `_walk(m)`; `here` counts the
    controls it has passed, so control b sits at line[b - 1] once passed and
    at line[b] before. T b is CX(control b -> walker); R b and L b are
    CX(walker -> neighbour), CX(neighbour -> walker), carrying the walker
    past control b. Each step XORs bit b into the parity, and a parity's
    first visit emits its RZ. Exact-zero blocks emit nothing, uniform
    blocks one Ry."""
    if not np.any(angles):
        return []
    theta = _walsh_hadamard(angles)
    if not np.any(theta[1:]):
        return [Gate(GateKind.RY, (target,), angle=float(theta[0]))]
    theta = theta.tolist()
    line = [target, *controls]
    gates = [Gate(GateKind.RX, (target,), angle=-_HALF_PI),
             Gate(GateKind.RZ, (target,), angle=-theta[0])]
    seen = [True] + [False] * (len(theta) - 1)
    here = parity = 0
    for step, b in _walk(len(controls)):
        walker = line[here]
        if step == "T":
            gates.append(fixed_gate(GateKind.CX, (line[b - 1] if b <= here else line[b], walker)))
        else:
            here += 1 if step == "R" else -1
            gates.append(fixed_gate(GateKind.CX, (walker, line[here])))
            gates.append(fixed_gate(GateKind.CX, (line[here], walker)))
        parity ^= 1 << (b - 1)
        if not seen[parity]:
            seen[parity] = True
            gates.append(Gate(GateKind.RZ, (line[here],), angle=-theta[parity]))
    gates.append(Gate(GateKind.RX, (target,), angle=_HALF_PI))
    return gates


def _walsh_hadamard(angles: np.ndarray) -> np.ndarray:
    """H angles / 2^m with H_cj = (-1)^popcount(c & j), as a butterfly that
    halves each sum and difference: entry c is the RZ angle of parity c in
    the multiplexor's phase polynomial. Equal angles give exactly zero
    differences."""
    out = np.array(angles, dtype=float)
    half = 1
    while half < out.size:
        pairs = out.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        out = np.stack((0.5 * (low + high), 0.5 * (low - high)), axis=1).reshape(-1)
        half *= 2
    return out


def _shifted_open_walk(k: int) -> tuple[tuple[str, int], ...]:
    """Open walk over controls 2..k+1 from wire 1, visiting every nonzero
    parity of them and ending on wire 1; for k >= 4 it is R1, open(k - 1),
    T1, open(k - 1), L1, shifted up one control."""
    if k <= 3:
        steps = tuple((s[0], int(s[1:])) for s in _OPEN_WALKS[k].split())
    else:
        inner = _shifted_open_walk(k - 1)
        steps = (("R", 1), *inner, ("T", 1), *inner, ("L", 1))
    return tuple((step, b + 1) for step, b in steps)


@lru_cache(maxsize=None)
def _walk(m: int) -> tuple[tuple[str, int], ...]:
    """Closed walk over m controls as (step, control) pairs: it visits all
    2^m parities between neighbouring wires and restores every wire. The two
    open walks cover the parities with and without bit 1. CX for m = 1..9:
    2, 8, 16, 32, 68, 140, 284, 572, 1148."""
    if m == 1:
        return (("T", 1), ("T", 1))
    inner = _shifted_open_walk(m - 1)
    return (("R", 1), *inner, ("T", 1), *inner, ("L", 1), ("T", 1))


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

    When a gate's operands are not adjacent, its first operand walks one
    position at a time toward the second, each step an inserted SWAP of
    neighbouring physical wires. The final logical-to-physical map is
    returned so callers can undo the accumulated permutation on simulated
    states. A gate whose wires equal its qubits is passed through as it is,
    so a chain-legal circuit comes back unchanged with the identity layout.
    Inserted SWAPs are IR-level and still need one lowering pass.
    """
    position = list(range(circuit.num_qubits))  # position[logical] = physical wire
    out = Circuit(circuit.num_qubits)
    for gate in circuit.gates:
        qubits = gate.qubits
        if len(qubits) == 2:
            a, b = qubits
            step = 1 if position[b] > position[a] else -1
            while abs(position[a] - position[b]) > 1:
                here, there = position[a], position[a] + step
                neighbor = position.index(there)
                out.swap(here, there)
                position[a], position[neighbor] = there, here
            wires = (position[a], position[b])
        else:
            wires = (position[qubits[0]],)
        if wires != qubits:
            gate = (Gate(gate.kind, wires, angle=gate.angle, slot=gate.slot)
                    if gate.kind in ROTATION_KINDS else fixed_gate(gate.kind, wires))
        out.append(gate)
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


def compile_exact(x, two_qubit: GateKind = GateKind.CX) -> SynthesisOutput:
    """Full reference pipeline: synthesize on the chain, route (a pass-through
    that keeps the identity layout), lower."""
    start = time.perf_counter()
    routed = route_linear(synthesize_exact(x))
    physical = lower_to_basis(routed.circuit, two_qubit)
    elapsed = time.perf_counter() - start
    return SynthesisOutput(
        physical_circuit=physical,
        layout=routed.layout,
        metrics=metrics(physical),
        synth_time=elapsed,
    )
