"""Dense statevector and density-matrix simulation with depolarizing noise.

Both simulators share one kernel, `_apply`: the state is viewed as a tensor
of 2s, the axes a gate touches are moved to the front by a cached
permutation, and one matrix product applies the operator. The result stays
in memory in the order the product left it (the gate's axes first, the
other axes in their previous memory order) and is returned as a transposed
view in the logical axis order. The next pass reads that memory order from
the view's strides and again moves only its own axes, so each pass makes
one copy, of long contiguous runs; a simulator flattens its state once, at
the end, which puts the axes back in order. Qubit q is bit q of the basis
index, so it is tensor axis n-1-q of a statevector.

The statevector simulator applies X and CX as a cached index gather (they
permute basis states) and every other gate unitary at rank n. The noisy
simulator never holds rho itself while it runs. It evolves the Pauli
coordinates c_P = tr(P rho), one per Pauli string P, so that
rho = sum_P c_P P / 2^n. Qubit q is base-4 digit q of the coordinate index
(0, 1, 2, 3 = I, X, Y, Z), which `_apply` sees as the two tensor axes
2(n-1-q) and 2(n-1-q)+1 of a rank-2n tensor. |0...0><0...0| has
coordinates (1, 0, 0, 1) on every qubit. A gate U followed by its
depolarizing channel maps coordinates linearly through its Pauli transfer
matrix (PTM), diag(1, 1-p, ..., 1-p) R_U with (R_U)_ij = tr(P_i U P_j U^dag)/d.
Every channel here maps Hermitian matrices to Hermitian matrices, so the
coordinates and every PTM are real: a pass is a real GEMM on half the bytes
of a complex rho. RZ is a noiseless virtual frame change; its PTM rotates
the qubit's X and Y coordinates by the angle, so it is applied as a
rotation of two rows of whatever block it joins, never as a matrix
product, and RZ(0) is skipped. rho is built from the coordinates once, at
the end.

PTMs are composed before they touch the coordinates. Each qubit holds
either a pending 4x4 PTM (the one-qubit gates on it not yet applied) or a
place in one open 16x16 block on a qubit pair, indexed 4*p_a + p_b. A gate
whose qubits all lie in one open block multiplies into it, in either
orientation of the pair; a one-qubit gate on a qubit outside any block
composes into that qubit's pending PTM. A two-qubit gate on any other pair
flushes the open blocks on its qubits (one `_apply` pass each) and opens a
new block that absorbs the pending PTMs of its qubits. At the end every
open block gets one pass, and the PTMs still pending are folded into the
per-qubit conversion back to rho. Routed circuits repeat pairs (a SWAP is
three CX on one pair, and one-qubit gates bracket each CX), so most gates
cost a 16x16 product instead of a pass.

This is exact, not an approximation: a composition of channels is a
channel whose PTM is the product of theirs, and operations on disjoint
qubits commute, so deferring each block or pending PTM until a gate
overlaps it leaves the state unchanged up to rounding.

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


_ROTATIONS = {GateKind.RZ: rz_matrix, GateKind.RX: rx_matrix, GateKind.RY: ry_matrix}
_FIXED = {
    GateKind.SX: _SX,
    GateKind.X: _X,
    GateKind.CX: _CX,
    GateKind.CY: _CY,
    GateKind.SWAP: _SWAP,
    GateKind.ECR: _ECR,
}


def gate_matrix(gate: Gate, theta: np.ndarray | None = None) -> np.ndarray:
    """Unitary of one gate in its own (qubits[0], qubits[1], ...) basis."""
    rotation = _ROTATIONS.get(gate.kind)
    if rotation is not None:
        return rotation(_angle(gate, theta))
    return _FIXED[gate.kind]


@lru_cache(maxsize=4096)
def _permutation(axes: tuple[int, ...], strides: tuple[int, ...]):
    """How `_apply` moves `axes` of a tensor with these strides.

    Returns the axis order of the operand copy, whether the operand is read
    as its transpose, and the inverse of the result's axis order (`axes`
    first, then the others in the order they had in memory)."""
    rank = len(strides)
    memory = sorted(range(rank), key=lambda a: -strides[a])
    rest = tuple(a for a in memory if a not in axes)
    trailing = len(axes) < rank and axes == tuple(range(rank - len(axes), rank))
    result = axes + rest
    inverse = tuple(int(i) for i in np.argsort(result))
    return (rest + axes if trailing else result), trailing, inverse


def _apply(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...], rank: int) -> np.ndarray:
    """op applied to `axes` of `tensor` viewed as a rank-`rank` tensor of 2s.

    axes[0] is the most significant bit of op's index. `tensor` may be a
    transposed view of a contiguous array, as this returns: a `(2,)*rank`
    view of a new contiguous array that holds `axes` first and the other
    axes in the order they had in memory. The operand of the product is the
    one copy per pass; since it moves only `axes` and keeps the rest in
    memory order, it copies long runs. A caller flattens the final tensor
    once with `reshape(-1)`, which puts the axes back in order.

    For the canonical trailing axes the operand is read as its transpose,
    as the trailing axes of a contiguous state would be; otherwise it is
    row-major. BLAS may round a small product differently for the two
    layouts (OpenBLAS does for 16x16 by 16x4), so the layout is fixed by
    `axes` alone, whatever the memory order of `tensor`. The memory order
    of the other axes only permutes the operand's columns, and each column
    of the product is rounded the same way wherever it sits (pinned by
    `test_a_pass_gives_the_same_bits_in_every_memory_order`).
    """
    tensor = tensor.reshape((2,) * rank)
    order, trailing, inverse = _permutation(axes, tensor.strides)
    moved = np.ascontiguousarray(tensor.transpose(order))
    moved = moved.reshape(-1, op.shape[1]).T if trailing else moved.reshape(op.shape[1], -1)
    return (op @ moved).reshape((2,) * rank).transpose(inverse)


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply u on the given qubits of a statevector (qubit q = index bit q)."""
    return _apply(state, u, tuple(n - 1 - q for q in qubits), n).reshape(-1)


_GATHERED = frozenset({GateKind.X, GateKind.CX})


@lru_cache(maxsize=1024)
def _gather_index(kind: GateKind, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """The basis permutation of X or CX: the state after the gate is state[index]."""
    index = np.arange(1 << n)
    if kind is GateKind.X:
        index ^= 1 << qubits[0]
    else:
        control, target = qubits
        index ^= ((index >> control) & 1) << target
    index.flags.writeable = False  # shared by every later call
    return index


def simulate_ideal(circuit: Circuit, theta: np.ndarray | None = None) -> np.ndarray:
    """Exact statevector of circuit applied to |0...0>.

    X and CX permute basis states, so they are applied as an index gather,
    which gives the amplitudes a product with their 0/1 matrix would (up to
    the sign of a zero); every other gate goes through `_apply`."""
    if circuit.num_params > 0:
        if theta is None:
            raise ValueError("circuit has parameter slots; theta is required")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (circuit.num_params,):
            raise ValueError(f"expected {circuit.num_params} parameters")
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        if gate.kind in _GATHERED:
            state = state.reshape(-1)[_gather_index(gate.kind, gate.qubits, n)]
        else:
            state = _apply(state, gate_matrix(gate, theta), tuple(n - 1 - q for q in gate.qubits), n)
    return state.reshape(-1)


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


_PHYSICAL_BASIS = frozenset({GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX, GateKind.ECR})
_I4 = np.eye(4)
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAIR_PAULIS = np.einsum("iab,jcd->ijacbd", _PAULIS, _PAULIS).reshape(16, 4, 4)
# Coordinates (I, X, Y, Z) of one qubit in |0><0|, and rho's entries on one
# qubit, 2*row + col, as a map from its coordinates.
_ZERO_COORDS = np.array([1.0, 0.0, 0.0, 1.0])
_TO_DENSITY = 0.5 * np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])
# Block index 4*p_a + p_b on the pair (a, b) for index 4*p_b + p_a on (b, a).
_SWAPPED = np.array([4 * (i % 4) + i // 4 for i in range(16)])
# The X and Y rows of a qubit: in its pending 4x4, and at position 0 or 1 of a block.
_PENDING_XY = (1, 2)
_BLOCK_XY = ((slice(4, 8), slice(8, 12)), (slice(1, None, 4), slice(2, None, 4)))


def _ptm(u: np.ndarray, p: float) -> np.ndarray:
    """Pauli transfer matrix of rho -> U rho U^dag followed by depolarizing
    noise p on the support: diag(1, 1-p, ..., 1-p) R_U, where
    (R_U)_ij = tr(P_i U P_j U^dag) / d and P_i is indexed 4*p_a + p_b on a pair."""
    d = u.shape[0]
    paulis = _PAULIS if d == 2 else _PAIR_PAULIS
    conjugated = u @ paulis @ u.conj().T
    ptm = np.einsum("iab,jba->ij", paulis, conjugated).real / d
    ptm[1:] *= 1.0 - p
    return ptm


def _rotate_xy(block: np.ndarray, rows: tuple, angle: float) -> np.ndarray:
    """RZ(angle) after `block`: its X and Y rows rotated by angle, in a new array."""
    c, s = np.cos(angle), np.sin(angle)
    x_rows, y_rows = rows
    x, y = block[x_rows], block[y_rows]
    out = block.copy()
    out[x_rows] = c * x - s * y
    out[y_rows] = s * x + c * y
    return out


def _to_density(coords: np.ndarray, n: int, pending: dict[int, np.ndarray]) -> np.ndarray:
    """rho = sum_P c_P P / 2^n from coordinates c (qubit q is base-4 digit q),
    after applying `pending[q]`, a 4x4 PTM not yet applied to qubit q."""
    t = coords.reshape(-1)
    for q in reversed(range(n)):  # the leading digit is qubit n-1; each step rotates it to the end
        factor = _TO_DENSITY @ pending[q] if q in pending else _TO_DENSITY
        t = (factor @ t.reshape(4, -1)).T
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return t.reshape((2,) * 2 * n).transpose(order).reshape(1 << n, 1 << n)


def simulate_noisy(circuit: Circuit, theta: np.ndarray | None, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with a depolarizing channel after each
    physical gate (p1 on one-qubit support, p2 on two-qubit support) and
    none after RZ; gates are composed per qubit and per qubit pair before
    they are applied to the Pauli coordinates (see the module notes)."""
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

    fixed: dict[tuple, np.ndarray] = {}  # angle-free PTMs by (kind, form); never mutated

    def ptm(gate: Gate, form) -> np.ndarray:
        """form None: the gate's own basis; 0 or 1: a one-qubit gate lifted
        onto that position of a block; "swapped": a two-qubit gate in the
        block order of its reversed pair."""
        r = fixed.get((gate.kind, form))
        if r is None:
            if form is None:
                p = noise.p2 if gate.kind in TWO_QUBIT_KINDS else noise.p1
                r = _ptm(gate_matrix(gate), p)
            elif form == "swapped":
                r = ptm(gate, None)[np.ix_(_SWAPPED, _SWAPPED)]
            else:
                own = ptm(gate, None)
                r = np.kron(own, _I4) if form == 0 else np.kron(_I4, own)
            fixed[(gate.kind, form)] = r
        return r

    coords = np.ones(1)
    for _ in range(n):
        coords = np.kron(coords, _ZERO_COORDS)
    pending: dict[int, np.ndarray] = {}  # qubit -> its unapplied 4x4 PTM
    blocks: dict[tuple[int, int], np.ndarray] = {}  # open pair -> 16x16 PTM
    open_pair: dict[int, tuple[int, int]] = {}  # qubit -> the open pair holding it

    def flush(pair: tuple[int, int]) -> None:
        nonlocal coords
        axes = tuple(a for q in pair for a in (2 * (n - 1 - q), 2 * (n - 1 - q) + 1))
        coords = _apply(coords, blocks.pop(pair), axes, 2 * n)
        for q in pair:
            del open_pair[q]

    for gate in circuit.gates:
        qubits = gate.qubits
        if len(qubits) == 1:
            q = qubits[0]
            pair = open_pair.get(q)
            if gate.is_virtual:
                angle = _angle(gate, theta)
                if angle == 0.0:  # the identity; every lowered RY emits one
                    continue
                if pair is not None:
                    blocks[pair] = _rotate_xy(blocks[pair], _BLOCK_XY[pair.index(q)], angle)
                else:
                    pending[q] = _rotate_xy(pending.get(q, _I4), _PENDING_XY, angle)
            elif pair is not None:
                blocks[pair] = ptm(gate, pair.index(q)) @ blocks[pair]
            else:
                r = ptm(gate, None)
                pending[q] = r @ pending[q] if q in pending else r
            continue
        pair = open_pair.get(qubits[0])
        if pair is not None and pair == open_pair.get(qubits[1]):
            form = None if pair == qubits else "swapped"
            blocks[pair] = ptm(gate, form) @ blocks[pair]
            continue
        for q in qubits:
            if q in open_pair:
                flush(open_pair[q])
        block = ptm(gate, None)
        if qubits[0] in pending or qubits[1] in pending:
            block = block @ np.kron(pending.pop(qubits[0], _I4), pending.pop(qubits[1], _I4))
        blocks[qubits] = block
        for q in qubits:
            open_pair[q] = qubits
    for pair in list(blocks):
        flush(pair)
    return DensityMatrix(n, _to_density(coords, n, pending))


def fidelity_to_pure(rho: DensityMatrix, target: np.ndarray) -> float:
    """Fidelity of rho with the pure state |x>: <x|rho|x>."""
    target = np.asarray(target, dtype=complex)
    fid = float(np.real(np.conj(target) @ rho.data @ target))
    return min(max(fid, 0.0), 1.0)
