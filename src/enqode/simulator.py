"""Dense statevector and density-matrix simulation with depolarizing noise.

The statevector simulator is planned once per circuit structure, like the
noisy one below. X and CX permute basis states and RZ is diagonal, so every
maximal run of X, CX and RZ is a monomial map, a permutation times a
diagonal (a uniformly controlled rotation is such a run between basis
changes; Mottonen et al., quant-ph/0407010). `_ideal_plan` walks each run
backwards once, to find its gather and, for each RZ, a column of +-1 over
the run's output indices: the sign of that RZ's half-angle in each output's
phase. Per call only the angles bind: the signed half-angles are summed per
run, one exp gives every run's phases, and a run is `phase * state[index]`.
Summing before the exp moves only the last bits, by about 1e-16 times a
run's total |angle|. Every other gate is a dense step through `_apply`: the
state is viewed as a tensor of 2s (qubit q is tensor axis n-1-q, since it
is bit q of the basis index), one copy moves the gate's axes to the front
with the others after them in logical order, one matrix product applies the
operator, and the result is returned as a transposed view in logical axis
order. The next step copies from that view, so the simulator flattens its
state once, at the end.

The noisy simulator never holds rho itself while it runs. It evolves the
Pauli coordinates c_P = tr(P rho), one per Pauli string P, so that
rho = sum_P c_P P / 2^n. Qubit q is base-4 digit q of the coordinate index
(0, 1, 2, 3 = I, X, Y, Z). |0...0><0...0| has coordinates (1, 0, 0, 1) on
every qubit. A gate U followed by its depolarizing channel maps
coordinates linearly through its Pauli transfer matrix (PTM),
diag(1, 1-p, ..., 1-p) R_U with (R_U)_ij = tr(P_i U P_j U^dag)/d. Every
channel here maps Hermitian matrices to Hermitian matrices, so the
coordinates and every PTM are real. RZ is a noiseless virtual frame
change; its PTM is the identity with the qubit's X and Y coordinates
rotated by the angle (`_rz_ptm`), and RZ(0) is skipped. rho is built from
the coordinates once, at the end.

PTMs are composed before they touch the coordinates, by one rule per arity.
Every one-qubit gate, RZ included, composes into its qubit's pending 4x4
PTM (the one-qubit gates on it not yet applied), whether or not the qubit
sits in an open block. A two-qubit gate works on a 16x16 block on its qubit
pair, indexed 4*p_a + p_b: if its qubits lie in one open block it extends
that block, in either orientation of the pair; otherwise it flushes the open
blocks on its qubits (one pass each) and opens a new one. Either way the
block becomes PTM(gate) @ (p_a (x) p_b) @ block, taking in the pending PTMs
of the pair, which act after the block. A flush applies the block alone, so
pending PTMs stay until the next block on their qubit or the per-qubit
conversion back to rho. The chain-walk multiplexors put runs of gates on one
pair, so most gates cost a 4x4 or 16x16 product instead of a pass.

These rules read only the circuit's structure (gate kinds, qubits and which
RZ carries a slot), so `_plan` runs them once per structure and noise model
and keeps the result in a small LRU cache: the pass sequence and, for each
pass, the factors of its block in product order. Per call only the angles
bind. Every RZ PTM comes from one vectorised cos/sin, each block is
composed just before its pass, in the order the rules give, and the pass
(`_pass`) runs on coordinates kept contiguous in logical order: the pair
(hi, lo) is the (4^(n-1-hi), 4, 4^(hi-lo-1), 4, 4^lo) view, so a pass on
chain neighbours is one matrix product with no copy, and only a pass on
qubits further apart moves its two axes out and back.

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


def _check_theta(circuit: Circuit, theta: np.ndarray | None) -> np.ndarray | None:
    """theta as a float array of one entry per slot, checked against the
    circuit; returned as given if the circuit has no slots."""
    if circuit.num_params > 0:
        if theta is None:
            raise ValueError("circuit has parameter slots; theta is required")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (circuit.num_params,):
            raise ValueError(f"expected {circuit.num_params} parameters")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta has a non-finite entry")
    return theta


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
def _permutation(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that puts the axes of `qubits` (axis n-1-q for qubit q)
    first and the others after them in logical order, and its inverse."""
    axes = tuple(n - 1 - q for q in qubits)
    order = axes + tuple(a for a in range(n) if a not in axes)
    return order, tuple(int(i) for i in np.argsort(order))


def _apply(state: np.ndarray, op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """op applied to `qubits` of an n-qubit statevector, qubits[0] on the
    most significant bit of op's index.

    `state` may be flat or the `(2,)*n` view this returns: a transposed
    view of a new contiguous array that holds the gate's axes first. The
    copy of the operand is the one copy per pass; a caller flattens the
    final view once with `reshape(-1)`."""
    order, inverse = _permutation(qubits, n)
    moved = np.ascontiguousarray(state.reshape((2,) * n).transpose(order))
    return (op @ moved.reshape(op.shape[1], -1)).reshape((2,) * n).transpose(inverse)


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply u on the given qubits of a statevector (qubit q = index bit q)."""
    return _apply(state, u, qubits, n).reshape(-1)


_MONOMIAL = frozenset({GateKind.X, GateKind.CX, GateKind.RZ})
_PLAN_CACHE_SIZE = 16

# A step is (gate, index, phase): a dense gate (its index in the circuit,
# then None, None), or a monomial run (None, its gather or None for the
# identity, its column of per-call phases or None if it holds no RZ).
_IdealStep = tuple[int | None, np.ndarray | None, int | None]


@dataclass(frozen=True)
class _IdealPlan:
    """The statevector steps of one circuit structure; its arrays are read-only."""

    angle_gates: tuple[int, ...]  # gate index of each fixed-angle RZ
    slots: np.ndarray  # slot of each parameterized RZ
    columns: np.ndarray  # per RZ in gate order, its entry among (fixed angles, slots)
    signs: np.ndarray  # int8 (2^n, RZs): per output index, the sign of each RZ's phase
    offsets: np.ndarray  # first column of each run that holds an RZ
    steps: tuple[_IdealStep, ...]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _ideal_plan(structure: tuple, n: int) -> _IdealPlan:
    """Split (kind, qubits, slot) per gate into maximal runs of X, CX and RZ
    and dense steps, and walk each run backwards once, over bits.

    Output index j of a run reads, at the current gate of the walk, the
    basis index whose bit q is the parity of masks[q] & (j | 2^n), where
    bit n of a mask flips the result: X on q sets masks[q] ^= 2^n and CX
    (c, t) sets masks[t] ^= masks[c]. An RZ on q multiplies output j by
    exp(+-i angle/2) with bit q as its sign, so it keeps masks[q]; the
    run's gather is read off the masks at its start."""
    rz_fixed = sum(1 for kind, _, slot in structure if kind is GateKind.RZ and slot is None)
    angle_gates: list[int] = []
    slots: list[int] = []
    columns: list[int] = []
    rz_masks: list[int] = []  # per RZ in gate order
    offsets: list[int] = []
    steps: list[_IdealStep] = []
    identity = [1 << q for q in range(n)]
    j = np.arange(1 << n) | (1 << n)
    parity = np.zeros(2 << n, dtype=np.intp)
    for q in range(n + 1):
        parity ^= (np.arange(2 << n) >> q) & 1

    def bits(masks: list[int]) -> np.ndarray:
        """The parity of mask & (j | 2^n) for every j, one column per mask."""
        return parity[j[:, None] & np.array(masks, dtype=np.intp)]

    def close_run(run: tuple) -> None:
        if not run:
            return
        masks = list(identity)
        run_masks = []
        for kind, qubits, _ in reversed(run):
            if kind is GateKind.RZ:
                run_masks.append(masks[qubits[0]])
            elif kind is GateKind.X:
                masks[qubits[0]] ^= 1 << n
            else:
                masks[qubits[1]] ^= masks[qubits[0]]
        index = None
        if masks != identity:
            index = bits(masks) @ (1 << np.arange(n))
            index.flags.writeable = False  # shared by every call through this plan
        phase = None
        if run_masks:
            phase = len(offsets)
            offsets.append(len(rz_masks))
            rz_masks.extend(reversed(run_masks))
        steps.append((None, index, phase))

    start = 0
    for i, (kind, _, slot) in enumerate(structure):
        if kind is GateKind.RZ:
            if slot is None:
                columns.append(len(angle_gates))
                angle_gates.append(i)
            else:
                columns.append(rz_fixed + len(slots))
                slots.append(slot)
        elif kind not in _MONOMIAL:
            close_run(structure[start:i])
            steps.append((i, None, None))
            start = i + 1
    close_run(structure[start:])
    arrays = (np.array(slots, dtype=np.intp), np.array(columns, dtype=np.intp),
              (2 * bits(rz_masks) - 1).astype(np.int8), np.array(offsets, dtype=np.intp))
    for a in arrays:
        a.flags.writeable = False
    return _IdealPlan(tuple(angle_gates), *arrays, tuple(steps))


def simulate_ideal(circuit: Circuit, theta: np.ndarray | None = None) -> np.ndarray:
    """Exact statevector of circuit applied to |0...0>, by a plan cached per
    circuit structure: each run of X, CX and RZ is one gather and one phase,
    and every other gate goes through `_apply` (see the module notes)."""
    theta = _check_theta(circuit, theta)
    n = circuit.num_qubits
    gates = circuit.gates
    plan = _ideal_plan(tuple([(g.kind, g.qubits, g.slot) for g in gates]), n)

    angles = np.array([gates[i].angle for i in plan.angle_gates], dtype=float)
    if plan.slots.size:
        angles = np.concatenate((angles, theta[plan.slots]))
    if angles.size:
        half = 0.5 * angles[plan.columns]
        phases = np.exp(1j * np.add.reduceat(plan.signs * half, plan.offsets, axis=1))

    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for gate, index, phase in plan.steps:
        if gate is not None:
            state = _apply(state, gate_matrix(gates[gate], theta), gates[gate].qubits, n)
            continue
        state = state.reshape(-1)
        if index is not None:
            state = state[index]
        if phase is not None:
            state = phases[:, phase] * state
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
        """Shape, unit trace and Hermiticity; a non-finite entry fails one of
        them, as the checks are written so that NaN does not pass. Positivity
        is not checked here: an eigensolve costs O(8^n) per result, so the
        tests assert it instead."""
        d = 1 << self.num_qubits
        if self.data.shape != (d, d):
            raise ValueError("density matrix shape mismatch")
        trace = np.trace(self.data)
        if not abs(trace - 1.0) <= 1e-10:
            raise ValueError(f"trace is {trace}, expected 1")
        if not np.max(np.abs(self.data - self.data.conj().T)) <= 1e-12:
            raise ValueError("density matrix is not Hermitian")


_PHYSICAL_BASIS = frozenset({GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX, GateKind.ECR})
_I4 = np.eye(4)
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAIR_PAULIS = np.einsum("iab,jcd->ijacbd", _PAULIS, _PAULIS).reshape(16, 4, 4)
# rho's entries on one qubit, 2*row + col, as a map from its coordinates
# (I, X, Y, Z).
_TO_DENSITY = 0.5 * np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])
# Block index 4*p_a + p_b on the pair (a, b) for index 4*p_b + p_a on (b, a),
# as a flat index into a whole 16x16 block.
_SWAPPED = np.array([4 * (i % 4) + i // 4 for i in range(16)])
_SWAPPED_BLOCK = (16 * _SWAPPED[:, None] + _SWAPPED).reshape(-1)


def _swap_pair(block: np.ndarray) -> np.ndarray:
    """A 16x16 block on the pair (a, b) reindexed for the pair (b, a)."""
    return block.take(_SWAPPED_BLOCK).reshape(16, 16)


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


def _rz_ptm(angle: float | np.ndarray) -> np.ndarray:
    """PTM of RZ(angle), or a stack of them for an array of angles: the
    identity with the X and Y coordinates rotated by the angle."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.zeros(np.shape(angle) + (4, 4))
    r[..., 0, 0] = r[..., 3, 3] = 1.0
    r[..., 1, 1] = r[..., 2, 2] = c
    r[..., 1, 2] = -s
    r[..., 2, 1] = s
    return r


def _kron4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two 4x4s, the same products without its general-case overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


def _to_density(coords: np.ndarray, n: int, pending: dict[int, np.ndarray]) -> np.ndarray:
    """rho = sum_P c_P P / 2^n from coordinates c (qubit q is base-4 digit q),
    after applying `pending[q]`, a 4x4 PTM not yet applied to qubit q."""
    t = coords.reshape(-1)
    for q in reversed(range(n)):  # the leading digit is qubit n-1; each step rotates it to the end
        factor = _TO_DENSITY @ pending[q] if q in pending else _TO_DENSITY
        t = (factor @ t.reshape(4, -1)).T
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return t.reshape((2,) * 2 * n).transpose(order).reshape(1 << n, 1 << n)


# A factor is an index into the per-call list of PTMs: one RZ PTM per RZ
# gate (fixed angles first, then slots, each in gate order), then the plan's
# angle-free PTMs. A step is (gate factor, pending factors of pair[0],
# pending factors of pair[1]), as the fusion rules met them.
_Step = tuple[int, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class _Pass:
    """One block applied to the coordinates. `shape` is (A, M, B) of the
    (A, 4, M, 4, B) view around the pair's digits, and `swapped` says the
    pair was opened low qubit first, so the block is reindexed to (hi, lo)."""

    steps: tuple[_Step, ...]
    shape: tuple[int, int, int]
    swapped: bool


@dataclass(frozen=True)
class _Plan:
    """The fusion rules' result for one circuit structure and noise model."""

    angle_gates: tuple[int, ...]  # gate index of each fixed-angle RZ
    slots: np.ndarray  # slot of each parameterized RZ
    fixed: tuple[np.ndarray, ...]  # angle-free PTMs, read-only
    passes: tuple[_Pass, ...]
    pending: tuple[tuple[int, tuple[int, ...]], ...]  # (qubit, factors) left at the end


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(structure: tuple, n: int, p1: float, p2: float) -> _Plan:
    """Run the fusion rules on (kind, qubits, slot) per gate, recording the
    factors of every block and pending PTM instead of multiplying them."""
    rz_fixed = sum(1 for kind, _, slot in structure if kind is GateKind.RZ and slot is None)
    rz_total = sum(1 for kind, _, _ in structure if kind is GateKind.RZ)
    angle_gates: list[int] = []
    slots: list[int] = []
    fixed: list[np.ndarray] = []
    fixed_ids: dict[tuple, int] = {}

    def fixed_id(kind: GateKind, swapped: bool = False) -> int:
        """Factor of an angle-free PTM in its own basis, or with `swapped` a
        two-qubit one's in the block order of its reversed pair."""
        key = (kind, swapped)
        if key not in fixed_ids:
            if swapped:
                r = _swap_pair(fixed[fixed_id(kind) - rz_total])
            else:
                r = _ptm(_FIXED[kind], p2 if kind in TWO_QUBIT_KINDS else p1)
            r.flags.writeable = False  # shared by every call through this plan
            fixed_ids[key] = rz_total + len(fixed)
            fixed.append(r)
        return fixed_ids[key]

    pending: dict[int, list[int]] = {}  # qubit -> factors of its unapplied 4x4
    steps: dict[tuple[int, int], list[_Step]] = {}  # open pair -> its block's steps
    open_pair: dict[int, tuple[int, int]] = {}  # qubit -> the open pair holding it
    passes: list[_Pass] = []

    def flush(pair: tuple[int, int]) -> None:
        hi, lo = max(pair), min(pair)
        shape = (4 ** (n - 1 - hi), 4 ** (hi - lo - 1), 4 ** lo)
        passes.append(_Pass(tuple(steps.pop(pair)), shape, pair[0] == lo))
        for q in pair:
            del open_pair[q]

    for i, (kind, qubits, slot) in enumerate(structure):
        if kind not in _PHYSICAL_BASIS:
            raise ValueError(f"{kind.value} is not basis-lowered; lower the circuit first")
        if len(qubits) == 1:
            if kind is not GateKind.RZ:
                factor = fixed_id(kind)
            elif slot is None:
                factor = len(angle_gates)
                angle_gates.append(i)
            else:
                factor = rz_fixed + len(slots)
                slots.append(slot)
            pending.setdefault(qubits[0], []).append(factor)
            continue
        pair = open_pair.get(qubits[0])
        if pair is None or pair != open_pair.get(qubits[1]):
            for q in qubits:
                if q in open_pair:
                    flush(open_pair[q])
            pair = qubits
            for q in pair:
                open_pair[q] = pair
            steps[pair] = []
        steps[pair].append((fixed_id(kind, pair != qubits),
                            tuple(pending.pop(pair[0], ())), tuple(pending.pop(pair[1], ()))))
    for pair in list(steps):
        flush(pair)
    slots_array = np.array(slots, dtype=np.intp)
    slots_array.flags.writeable = False
    return _Plan(tuple(angle_gates), slots_array, tuple(fixed), tuple(passes),
                 tuple((q, tuple(f)) for q, f in pending.items()))


def _zero_coords(n: int) -> np.ndarray:
    """Coordinates of |0...0><0...0|: 1 where every digit is I or Z, else 0."""
    support = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        support = (4 * support[:, None] + [0, 3]).reshape(-1)
    coords = np.zeros(4 ** n)
    coords[support] = 1.0
    return coords


def _compose(factors: tuple[int, ...], mats: list) -> np.ndarray | None:
    """Product of the factors, the first acting first; a skipped RZ(0) is
    None in `mats`. None if every factor is skipped."""
    acc = None
    for f in factors:
        m = mats[f]
        if m is not None:
            acc = m if acc is None else m @ acc
    return acc


def _pass(coords: np.ndarray, block: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """A 16x16 block applied to the two base-4 digits of contiguous
    coordinates viewed as (A, 4, M, 4, B), block index 4*hi + lo. Chain
    neighbours (M = 1) are one product on a view; others copy their two
    digits to the front and back."""
    a, m, b = shape
    if m == 1:
        if b == 1:
            return coords.reshape(a, 16) @ block.T
        if a == 1:
            return block @ coords.reshape(16, b)
        return np.matmul(block, coords.reshape(a, 16, b))
    moved = coords.reshape(a, 4, m, 4, b).transpose(1, 3, 0, 2, 4).reshape(16, -1)
    return (block @ moved).reshape(4, 4, a, m, b).transpose(2, 0, 3, 1, 4).copy()


def simulate_noisy(circuit: Circuit, theta: np.ndarray | None, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with a depolarizing channel after each
    physical gate (p1 on one-qubit support, p2 on two-qubit support) and
    none after RZ; gates are composed per qubit and per qubit pair, by a
    plan cached per circuit structure, before they are applied to the
    Pauli coordinates (see the module notes)."""
    n = circuit.num_qubits
    if n > _MAX_DENSITY_QUBITS:
        raise ValueError(f"density simulation capped at {_MAX_DENSITY_QUBITS} qubits")
    gates = circuit.gates
    plan = _plan(tuple([(g.kind, g.qubits, g.slot) for g in gates]), n, noise.p1, noise.p2)
    theta = _check_theta(circuit, theta)

    angles = np.array([gates[i].angle for i in plan.angle_gates], dtype=float)
    if plan.slots.size:
        angles = np.concatenate((angles, theta[plan.slots]))
    mats = [None if a == 0.0 else r for a, r in zip(angles.tolist(), _rz_ptm(angles))]
    mats += plan.fixed

    coords = _zero_coords(n)
    for pass_ in plan.passes:
        block = None
        for gate, on_a, on_b in pass_.steps:
            r = mats[gate]
            pa, pb = _compose(on_a, mats), _compose(on_b, mats)
            if pa is not None or pb is not None:
                r = r @ _kron4(_I4 if pa is None else pa, _I4 if pb is None else pb)
            block = r if block is None else r @ block
        if pass_.swapped:
            block = _swap_pair(block)
        coords = _pass(coords, block, pass_.shape)
    pending = {}
    for q, factors in plan.pending:
        r = _compose(factors, mats)
        if r is not None:
            pending[q] = r
    return DensityMatrix(n, _to_density(coords, n, pending))


def fidelity_to_pure(rho: DensityMatrix, target: np.ndarray) -> float:
    """Fidelity of rho with the pure state |x>: <x|rho|x>."""
    target = np.asarray(target, dtype=complex)
    fid = float(np.real(np.conj(target) @ rho.data @ target))
    return min(max(fid, 0.0), 1.0)
