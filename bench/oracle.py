"""Independent references for the benchmark's correctness checks.

Nothing here calls `enqode.simulator` or `enqode.symbolic`: states and
density matrices are evolved as rank-n / rank-2n tensors with tensordot
and einsum, from gate matrices written out below. Only the gate list of a
circuit is read from the package. Qubit q is bit q of the basis index, so
tensor axis n-1-q carries qubit q.
"""

from __future__ import annotations

import numpy as np

_S2 = 1.0 / np.sqrt(2.0)
_FIXED = {
    "SX": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    # two-qubit matrices index their operands as 2*bit(qubits[0]) + bit(qubits[1])
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CY": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "ECR": _S2 * np.array([[0, 0, 1, 1j], [0, 0, 1j, 1], [1, -1j, 0, 0], [-1j, 1, 0, 0]]),
}


def gate_unitary(kind: str, angle: float | None) -> np.ndarray:
    if kind == "RZ":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    if kind in ("RX", "RY"):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        if kind == "RX":
            return np.array([[c, -1j * s], [-1j * s, c]])
        return np.array([[c, -s], [s, c]], dtype=complex)
    return _FIXED[kind]


def _bound_gates(circuit, theta):
    for gate in circuit.gates:
        angle = gate.angle if gate.slot is None else float(theta[gate.slot])
        yield gate.kind.value, gate.qubits, angle


def _apply(tensor: np.ndarray, u: np.ndarray, axes: list[int]) -> np.ndarray:
    m = len(axes)
    u = u.reshape([2] * (2 * m))
    out = np.tensordot(u, tensor, axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(out, list(range(m)), axes)


def statevector(circuit, theta=None) -> np.ndarray:
    """U(theta)|0...0> for a gate-list circuit."""
    n = circuit.num_qubits
    psi = np.zeros([2] * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for kind, qubits, angle in _bound_gates(circuit, theta):
        psi = _apply(psi, gate_unitary(kind, angle), [n - 1 - q for q in qubits])
    return psi.reshape(-1)


def overlap_sq(circuit, theta, x) -> float:
    """|<x|U(theta)|0>|^2."""
    return float(abs(np.vdot(np.asarray(x, dtype=complex), statevector(circuit, theta))) ** 2)


def noisy_density(circuit, theta, p1: float, p2: float) -> np.ndarray:
    """Density matrix after each gate's unitary and, for every gate but
    RZ, a depolarizing channel rho -> (1-p) rho + p (I_S/d (x) tr_S rho)
    on its support S (p2 for two-qubit gates, p1 otherwise)."""
    n = circuit.num_qubits
    rho = np.zeros([2] * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for kind, qubits, angle in _bound_gates(circuit, theta):
        u = gate_unitary(kind, angle)
        rows = [n - 1 - q for q in qubits]
        cols = [n + a for a in rows]
        rho = _apply(_apply(rho, u, rows), u.conj(), cols)
        if kind == "RZ":
            continue
        p = p2 if len(qubits) == 2 else p1
        labels = list(range(2 * n))
        for r, c in zip(rows, cols):
            labels[c] = labels[r]
        kept = [label for a, label in enumerate(labels) if a not in rows and a not in cols]
        reduced = np.einsum(rho, labels, kept)
        m = len(qubits)
        eye = np.eye(1 << m).reshape([2] * (2 * m)) / (1 << m)
        mixed = np.moveaxis(np.multiply.outer(reduced, eye),
                            list(range(2 * n - 2 * m, 2 * n)), rows + cols)
        rho = (1.0 - p) * rho + p * mixed
    d = 1 << n
    return rho.reshape(d, d)


def pure_fidelity(rho: np.ndarray, target) -> float:
    target = np.asarray(target, dtype=complex)
    return float(np.real(np.vdot(target, rho @ target)))


def to_physical(state, layout) -> np.ndarray:
    """Move logical bit q of every basis index to physical bit layout[q]."""
    state = np.asarray(state)
    n = len(layout)
    out = np.empty_like(state)
    for index in range(state.size):
        physical = sum(((index >> q) & 1) << layout[q] for q in range(n))
        out[physical] = state[index]
    return out
