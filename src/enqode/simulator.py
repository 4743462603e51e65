"""Dense statevector and density-matrix simulation with depolarizing noise.

Both simulators share one kernel, `_apply`: the state is viewed as a tensor
of 2s, the axes a gate touches are moved to the front by a cached
permutation, one matrix product applies the operator, and the inverse
permutation restores the layout. Qubit q is bit q of the basis index, so it
is tensor axis n-1-q of a statevector.

The statevector simulator applies each gate unitary at rank n. The noisy
simulator evolves the density matrix as a rank-2n tensor (row axes, then
column axes) and applies each physical gate together with its depolarizing
channel as one d^2 x d^2 superoperator, (1-p) U (x) conj(U) plus p/d on the
entries that map the support's trace onto its identity.

RZ is a noiseless virtual frame change. Instead of a pass of its own, each
RZ is held as a pending diagonal on its qubit and folded into the unitary of
the next physical gate that touches that qubit; what is still pending at
the end is applied as one elementwise phase pass. This is exact: the RZ
commutes with every gate and channel off its qubit, and a depolarizing
channel on support S commutes with any unitary on S.

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


def gate_matrix(gate: Gate, theta: np.ndarray | None = None) -> np.ndarray:
    """Unitary of one gate in its own (qubits[0], qubits[1], ...) basis."""
    if gate.kind in (GateKind.RZ, GateKind.RX, GateKind.RY):
        angle = gate.angle
        if angle is None:
            if theta is None:
                raise ValueError("parameterized gate needs a theta vector")
            angle = float(theta[gate.slot])
        return {GateKind.RZ: rz_matrix, GateKind.RX: rx_matrix, GateKind.RY: ry_matrix}[
            gate.kind
        ](angle)
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

    def validate(self, psd_tol: float = 1e-9) -> None:
        d = 1 << self.num_qubits
        if self.data.shape != (d, d):
            raise ValueError("density matrix shape mismatch")
        if abs(np.trace(self.data) - 1.0) > 1e-10:
            raise ValueError(f"trace is {np.trace(self.data)}, expected 1")
        if np.max(np.abs(self.data - self.data.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(self.data).min() < -psd_tol:
            raise ValueError("density matrix is not positive semidefinite")


def _superoperator(u: np.ndarray, p: float) -> np.ndarray:
    """rho -> (1-p) U rho U^dag + p (I/d (x) tr_support rho) on the support,
    as a matrix on row-major vec(rho): index = d*row + column."""
    d = u.shape[0]
    sop = (1.0 - p) * np.kron(u, u.conj())
    trace = np.arange(d) * (d + 1)
    sop[np.ix_(trace, trace)] += p / d
    return sop


_PHYSICAL_BASIS = frozenset({GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX, GateKind.ECR})
_I2 = np.eye(2, dtype=complex)


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def simulate_noisy(circuit: Circuit, theta: np.ndarray | None, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with a depolarizing channel after each
    physical gate (p1 on one-qubit support, p2 on two-qubit support); RZ
    folds into the next physical gate on its qubit (see the module notes)."""
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

    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    pending: dict[int, np.ndarray] = {}  # qubit -> product of unapplied RZs
    fixed: dict[GateKind, np.ndarray] = {}  # superoperators of angle-free gates
    for gate in circuit.gates:
        if gate.is_virtual:
            q = gate.qubits[0]
            pending[q] = gate_matrix(gate, theta) @ pending.get(q, _I2)
            continue
        p = noise.p2 if gate.kind in TWO_QUBIT_KINDS else noise.p1
        folded = [pending.pop(q, None) for q in gate.qubits]
        if any(f is not None for f in folded):
            u = gate_matrix(gate, theta) @ _kron_all([_I2 if f is None else f for f in folded])
            sop = _superoperator(u, p)
        else:
            sop = fixed.get(gate.kind)
            if sop is None:
                sop = fixed[gate.kind] = _superoperator(gate_matrix(gate), p)
        axes = tuple(n - 1 - q for q in gate.qubits)
        rho = _apply(rho, sop, axes + tuple(a + n for a in axes), 2 * n)
    if pending:
        phases = _kron_all([np.diagonal(pending.get(q, _I2)) for q in reversed(range(n))])
        rho = phases[:, None] * rho * phases.conj()[None, :]
    return DensityMatrix(n, rho)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root with small eigenvalues clamped to zero.

    The clamp threshold is relative to the largest eigenvalue: sqrt turns
    O(eps) rounding noise in true-zero eigenvalues into O(sqrt(eps)) trace
    error otherwise, which would swamp tight fidelity tolerances.
    """
    vals, vecs = np.linalg.eigh(matrix)
    tol = vals.size * np.finfo(float).eps * max(float(vals[-1]), 0.0)
    vals = np.where(vals > tol, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    if rho.num_qubits != sigma.num_qubits:
        raise ValueError("dimension mismatch")
    rho.validate()
    sigma.validate()
    root = _psd_sqrt(rho.data)
    inner = _psd_sqrt(root @ sigma.data @ root)
    fid = float(np.real(np.trace(inner)) ** 2)
    return min(max(fid, 0.0), 1.0)


def fidelity_to_pure(rho: DensityMatrix, target: np.ndarray) -> float:
    """Fast path for a pure comparison state: <x|rho|x>."""
    target = np.asarray(target, dtype=complex)
    fid = float(np.real(np.conj(target) @ rho.data @ target))
    return min(max(fid, 0.0), 1.0)


def pure_density(state: np.ndarray) -> DensityMatrix:
    state = np.asarray(state, dtype=complex)
    n = int(np.log2(state.size))
    return DensityMatrix(n, np.outer(state, state.conj()))
