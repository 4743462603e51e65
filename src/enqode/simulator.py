"""Dense statevector and density-matrix simulation with depolarizing noise.

Both simulators share one kernel, `_apply`: the state is viewed as a tensor
of 2s, the axes a gate touches are moved to the front by a cached
permutation, one matrix product applies the operator, and the inverse
permutation restores the layout. Qubit q is bit q of the basis index, so it
is tensor axis n-1-q of a statevector.

The statevector simulator applies each gate unitary at rank n. The noisy
simulator evolves the density matrix as a rank-2n tensor (row axes, then
column axes). Each physical gate together with its depolarizing channel is
one d^2 x d^2 superoperator, (1-p) U (x) conj(U) plus p/d on the entries
that map the support's trace onto its identity; RZ is a noiseless virtual
frame change whose superoperator is the diagonal (1, e^-it, e^it, 1).

Superoperators are composed before they touch rho. Each qubit holds either
a pending 4x4 superoperator (the one-qubit gates on it not yet applied) or
a place in one open 16x16 block on a qubit pair. A gate whose qubits all
lie in one open block multiplies into it, in either orientation of the
pair; a one-qubit gate on a qubit outside any block composes into that
qubit's pending superoperator. A two-qubit gate on any other pair flushes
the open blocks on its qubits into rho (one `_apply` pass each) and opens
a new block that absorbs the pending superoperators of its qubits. At the
end every open block and pending superoperator gets one pass. Routed
circuits repeat pairs (a SWAP is three CX on one pair, and one-qubit gates
bracket each CX), so most gates cost a 16x16 product instead of a pass.

This is exact, not an approximation: a composition of channels is a
channel whose superoperator is the product of theirs, and operations on
disjoint qubits commute, so deferring each block or pending superoperator
until a gate overlaps it leaves rho unchanged up to rounding.

Density matrices are capped at 10 qubits (a 1024 x 1024 complex matrix);
the intended working size is 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate, GateKind, TWO_QUBIT_KINDS

_MAX_DENSITY_QUBITS = 10

_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CY = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# Echoed cross-resonance, in the (qubits[0], qubits[1]) = (row-major) basis
# used throughout this module: index = 2*bit(qubits[0]) + bit(qubits[1]).
_ECR = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [0, 0, 1, 1j],
        [0, 0, 1j, 1],
        [1, -1j, 0, 0],
        [-1j, 1, 0, 0],
    ],
    dtype=complex,
)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _angle(gate: Gate, theta: np.ndarray | None) -> float:
    if gate.angle is not None:
        return gate.angle
    if theta is None:
        raise ValueError("parameterized gate needs a theta vector")
    return float(theta[gate.slot])


def gate_matrix(gate: Gate, theta: np.ndarray | None = None) -> np.ndarray:
    """Unitary of one gate in its own (qubits[0], qubits[1], ...) basis."""
    if gate.kind in (GateKind.RZ, GateKind.RX, GateKind.RY):
        return {GateKind.RZ: rz_matrix, GateKind.RX: rx_matrix, GateKind.RY: ry_matrix}[
            gate.kind
        ](_angle(gate, theta))
    return {
        GateKind.SX: _SX,
        GateKind.X: _X,
        GateKind.CX: _CX,
        GateKind.CY: _CY,
        GateKind.SWAP: _SWAP,
        GateKind.ECR: _ECR,
    }[gate.kind]


@lru_cache(maxsize=1024)
def _permutation(axes: tuple[int, ...], rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order putting `axes` first (the rest keep their order), and its inverse."""
    forward = axes + tuple(a for a in range(rank) if a not in axes)
    inverse = tuple(int(i) for i in np.argsort(forward))
    return forward, inverse


def _apply(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...], rank: int) -> np.ndarray:
    """op applied to `axes` of `tensor` viewed as a rank-`rank` tensor of 2s.

    axes[0] is the most significant bit of op's index. Returns a new
    contiguous array shaped like `tensor`.
    """
    forward, inverse = _permutation(axes, rank)
    moved = tensor.reshape((2,) * rank).transpose(forward).reshape(op.shape[1], -1)
    out = (op @ moved).reshape((2,) * rank).transpose(inverse)
    return np.ascontiguousarray(out).reshape(tensor.shape)


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply u on the given qubits of a statevector (qubit q = index bit q)."""
    return _apply(state, u, tuple(n - 1 - q for q in qubits), n).reshape(-1)


def simulate_ideal(circuit: Circuit, theta: np.ndarray | None = None) -> np.ndarray:
    """Exact statevector of circuit applied to |0...0>."""
    if circuit.num_params > 0:
        if theta is None:
            raise ValueError("circuit has parameter slots; theta is required")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (circuit.num_params,):
            raise ValueError(f"expected {circuit.num_params} parameters")
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = apply_unitary(state, gate_matrix(gate, theta), gate.qubits, circuit.num_qubits)
    return state


@dataclass
class NoiseModel:
    """Per-arity depolarizing error rates; RZ is always noiseless."""

    p1: float = 2e-4
    p2: float = 7e-3

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass
class DensityMatrix:
    num_qubits: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        self.validate()

    def validate(self) -> None:
        """Shape, unit trace and Hermiticity. Positivity is not checked here:
        an eigensolve costs O(8^n) per result, so the tests assert it instead."""
        d = 1 << self.num_qubits
        if self.data.shape != (d, d):
            raise ValueError("density matrix shape mismatch")
        if abs(np.trace(self.data) - 1.0) > 1e-10:
            raise ValueError(f"trace is {np.trace(self.data)}, expected 1")
        if np.max(np.abs(self.data - self.data.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian")


def _superoperator(u: np.ndarray, p: float) -> np.ndarray:
    """rho -> (1-p) U rho U^dag + p (I/d (x) tr_support rho) on the support,
    as a matrix on row-major vec(rho): index = d*row + column."""
    d = u.shape[0]
    sop = (1.0 - p) * np.kron(u, u.conj())
    trace = np.arange(d) * (d + 1)
    sop[np.ix_(trace, trace)] += p / d
    return sop


_PHYSICAL_BASIS = frozenset({GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX, GateKind.ECR})
_I4 = np.eye(4, dtype=complex)

# A block on the ordered pair (a, b) indexes rho's entries on the pair as
# 8*row_a + 4*row_b + 2*col_a + col_b. For each block index, _KRON_ORDER is
# the same entry in np.kron(s_a, s_b) order (row_a, col_a, row_b, col_b),
# _SWAPPED_ORDER the same entry in (b, a) block order, and _QUBIT_ENTRY[j]
# the (row, col) index 2*row + col of the pair's j-th qubit.
_ROW_A, _ROW_B, _COL_A, _COL_B = ((np.arange(16) >> k) & 1 for k in (3, 2, 1, 0))
_KRON_ORDER = 8 * _ROW_A + 4 * _COL_A + 2 * _ROW_B + _COL_B
_SWAPPED_ORDER = 8 * _ROW_B + 4 * _ROW_A + 2 * _COL_B + _COL_A
_QUBIT_ENTRY = (2 * _ROW_A + _COL_A, 2 * _ROW_B + _COL_B)


def _reorder(sop: np.ndarray, order: np.ndarray) -> np.ndarray:
    return sop[np.ix_(order, order)]


def _lift(sop_a: np.ndarray, sop_b: np.ndarray) -> np.ndarray:
    """One-qubit superoperators on a and b as one 16x16 block on (a, b)."""
    return _reorder(np.kron(sop_a, sop_b), _KRON_ORDER)


def _rz_diagonal(angle: float) -> np.ndarray:
    """Superoperator diagonal of RZ(angle) on (row, col) = 2*row + col."""
    phase = np.exp(-1j * angle)
    return np.array([1.0, phase, phase.conjugate(), 1.0])


def simulate_noisy(circuit: Circuit, theta: np.ndarray | None, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with a depolarizing channel after each
    physical gate (p1 on one-qubit support, p2 on two-qubit support) and
    none after RZ; gates are composed per qubit and per qubit pair before
    they are applied (see the module notes)."""
    n = circuit.num_qubits
    if n > _MAX_DENSITY_QUBITS:
        raise ValueError(f"density simulation capped at {_MAX_DENSITY_QUBITS} qubits")
    for gate in circuit.gates:
        if gate.kind not in _PHYSICAL_BASIS:
            raise ValueError(f"{gate.kind.value} is not basis-lowered; lower the circuit first")
    if circuit.num_params > 0 and theta is None:
        raise ValueError("circuit has parameter slots; theta is required")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)

    fixed: dict[tuple, np.ndarray] = {}  # angle-free superoperators by (kind, form)

    def superoperator(gate: Gate, form) -> np.ndarray:
        """form None: the gate's own basis; 0 or 1: a one-qubit gate lifted
        onto that position of a block; "swapped": a two-qubit gate in the
        block order of its reversed pair."""
        sop = fixed.get((gate.kind, form))
        if sop is None:
            if form is None:
                p = noise.p2 if gate.kind in TWO_QUBIT_KINDS else noise.p1
                sop = _superoperator(gate_matrix(gate), p)
            elif form == "swapped":
                sop = _reorder(superoperator(gate, None), _SWAPPED_ORDER)
            else:
                own = superoperator(gate, None)
                sop = _lift(own, _I4) if form == 0 else _lift(_I4, own)
            fixed[(gate.kind, form)] = sop
        return sop

    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    pending: dict[int, np.ndarray] = {}  # qubit -> its unapplied 4x4 superoperator
    blocks: dict[tuple[int, int], np.ndarray] = {}  # open pair -> 16x16 superoperator
    open_pair: dict[int, tuple[int, int]] = {}  # qubit -> the open pair holding it

    def flush(pair: tuple[int, int]) -> None:
        nonlocal rho
        axes = tuple(n - 1 - q for q in pair)
        rho = _apply(rho, blocks.pop(pair), axes + tuple(a + n for a in axes), 2 * n)
        for q in pair:
            del open_pair[q]

    for gate in circuit.gates:
        qubits = gate.qubits
        if len(qubits) == 1:
            q = qubits[0]
            pair = open_pair.get(q)
            if gate.is_virtual:
                diagonal = _rz_diagonal(_angle(gate, theta))
                if pair is not None:
                    rows = diagonal[_QUBIT_ENTRY[pair.index(q)]]
                    blocks[pair] = rows[:, None] * blocks[pair]
                else:
                    pending[q] = diagonal[:, None] * pending.get(q, _I4)
            elif pair is not None:
                blocks[pair] = superoperator(gate, pair.index(q)) @ blocks[pair]
            else:
                sop = superoperator(gate, None)
                pending[q] = sop @ pending[q] if q in pending else sop
            continue
        pair = open_pair.get(qubits[0])
        if pair is not None and pair == open_pair.get(qubits[1]):
            form = None if pair == qubits else "swapped"
            blocks[pair] = superoperator(gate, form) @ blocks[pair]
            continue
        for q in qubits:
            if q in open_pair:
                flush(open_pair[q])
        block = superoperator(gate, None)
        if qubits[0] in pending or qubits[1] in pending:
            block = block @ _lift(pending.pop(qubits[0], _I4), pending.pop(qubits[1], _I4))
        blocks[qubits] = block
        for q in qubits:
            open_pair[q] = qubits
    for pair in list(blocks):
        flush(pair)
    for q, sop in pending.items():
        rho = _apply(rho, sop, (n - 1 - q, 2 * n - 1 - q), 2 * n)
    return DensityMatrix(n, rho)


def fidelity_to_pure(rho: DensityMatrix, target: np.ndarray) -> float:
    """Fidelity of rho with the pure state |x>: <x|rho|x>."""
    target = np.asarray(target, dtype=complex)
    fid = float(np.real(np.conj(target) @ rho.data @ target))
    return min(max(fid, 0.0), 1.0)
