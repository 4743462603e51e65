"""Independent brute-force references shared by the test suite.

Everything here is written in the most literal way available: full
2^n x 2^n operators assembled from kron products, applied as matrix
products. No code is shared with the package's own simulators, so
agreement between the two is a real cross-check. Qubit q is bit q of the
basis index, matching the package convention.
"""

from __future__ import annotations

import numpy as np

from enqode.circuit import Circuit, GateKind

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def rz(theta):
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


ECR = (1 / np.sqrt(2)) * np.array(
    [[0, 0, 1, 1j], [0, 0, 1j, 1], [1, -1j, 0, 0], [-1j, 1, 0, 0]], dtype=complex
)
SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _kron_chain(ops):
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed_one(u, qubit, n):
    """Full operator with u acting on one qubit."""
    ops = [I2] * n
    ops[n - 1 - qubit] = u
    return _kron_chain(ops)


def embed_controlled(u, control, target, n):
    """Full operator for controlled-u."""
    ops0 = [I2] * n
    ops0[n - 1 - control] = P0
    ops1 = [I2] * n
    ops1[n - 1 - control] = P1
    ops1[n - 1 - target] = u
    return _kron_chain(ops0) + _kron_chain(ops1)


def embed_two(u4, a, b, n):
    """Full operator for an arbitrary two-qubit u4 given in the (a, b) basis
    with index 2*bit_a + bit_b, assembled term by term from |i><k| factors."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    coeff = u4[2 * i + j, 2 * k + l]
                    if coeff == 0:
                        continue
                    ops = [I2] * n
                    ops[n - 1 - a] = np.outer(basis[i], basis[k])
                    ops[n - 1 - b] = np.outer(basis[j], basis[l])
                    out += coeff * _kron_chain(ops)
    return out


def gate_operator(gate, n, theta=None):
    kind = gate.kind
    if kind in (GateKind.RZ, GateKind.RX, GateKind.RY):
        angle = gate.angle if gate.angle is not None else float(theta[gate.slot])
        u = {GateKind.RZ: rz, GateKind.RX: rx, GateKind.RY: ry}[kind](angle)
        return embed_one(u, gate.qubits[0], n)
    if kind is GateKind.SX:
        return embed_one(SX, gate.qubits[0], n)
    if kind is GateKind.X:
        return embed_one(X, gate.qubits[0], n)
    if kind is GateKind.CX:
        return embed_controlled(X, gate.qubits[0], gate.qubits[1], n)
    if kind is GateKind.CY:
        return embed_controlled(Y, gate.qubits[0], gate.qubits[1], n)
    if kind is GateKind.SWAP:
        return embed_two(SWAP4, gate.qubits[0], gate.qubits[1], n)
    if kind is GateKind.ECR:
        return embed_two(ECR, gate.qubits[0], gate.qubits[1], n)
    raise ValueError(f"no oracle rule for {kind}")


def circuit_unitary(circuit: Circuit, theta=None) -> np.ndarray:
    """Full unitary as an explicit product of embedded gate operators."""
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_operator(gate, circuit.num_qubits, theta) @ u
    return u


def simulate(circuit: Circuit, theta=None) -> np.ndarray:
    """Statevector from |0...0> via the full unitary product."""
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    return circuit_unitary(circuit, theta) @ state


def plus_i_state(n: int) -> np.ndarray:
    """((|0> + i|1>)/sqrt(2))^(x)n built by explicit kron products."""
    single = np.array([1.0, 1.0j]) / np.sqrt(2)
    state = np.array([1.0 + 0.0j])
    for _ in range(n):
        state = np.kron(state, single)
    return state


def finite_difference_grad(fn, theta, h=1e-6):
    """Central finite differences of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        up[j] += h
        down = theta.copy()
        down[j] -= h
        grad[j] = (fn(up) - fn(down)) / (2 * h)
    return grad


def states_match(a, b, tol):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


# ------------------------------------------------ statevector reference


def reference_apply_unitary(state, u, qubits, n):
    """The moveaxis statevector update the package used before its shared
    tensor kernel, kept verbatim as the bit-for-bit reference."""
    m = len(qubits)
    axes = [n - 1 - q for q in qubits]
    tensor = np.moveaxis(state.reshape([2] * n), axes, range(m))
    tensor = (u @ tensor.reshape(2**m, -1)).reshape([2] * m + [2] * (n - m))
    return np.moveaxis(tensor, range(m), axes).reshape(-1)


# ------------------------------------------------- noisy density reference
#
# The gather/scatter density-matrix evolution the package used before its
# shared tensor kernel, kept verbatim as the exactness reference for
# `simulate_noisy`. Self-contained: gate matrices are written out here and
# gates are read only through their `kind.value`, `qubits`, `angle` and
# `slot` attributes.

_REFERENCE_FIXED = {
    "SX": SX,
    "X": X,
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "ECR": ECR,
}


def _reference_support_indices(qubits, n):
    """Row (d, 2^(n-m)) of basis indices grouped by support value s, where
    s uses the same bit order as gate matrices: s bit (m-1-j) = qubits[j]."""
    m = len(qubits)
    mask = 0
    for q in qubits:
        mask |= 1 << q
    idx = np.arange(1 << n)
    rest = idx[idx & mask == 0]
    rows = []
    for s in range(1 << m):
        offset = 0
        for j, q in enumerate(qubits):
            if (s >> (m - 1 - j)) & 1:
                offset |= 1 << q
        rows.append(rest | offset)
    return np.stack(rows)


def _reference_evolve_gate(rho, u, qubits, p, n):
    """rho -> U rho U^dag followed by the depolarizing channel
    rho -> (1-p) rho + p (I/d (x) tr_support rho) on the gate support."""
    groups = _reference_support_indices(qubits, n)
    d = len(groups)
    if not np.any(u - np.diag(np.diagonal(u))):
        phases = np.empty(1 << n, dtype=complex)
        for s in range(d):
            phases[groups[s]] = u[s, s]
        rho = phases[:, None] * rho
        rho *= phases.conj()[None, :]
    else:
        flat = groups.reshape(-1)
        for mat in (u, u.conj()):
            slabs = rho[flat].reshape(d, -1)
            rho[flat] = (mat @ slabs).reshape(flat.size, -1)
            rho = np.ascontiguousarray(rho.T)
    if p != 0.0:
        traced = rho[np.ix_(groups[0], groups[0])].copy()
        for s in range(1, d):
            traced += rho[np.ix_(groups[s], groups[s])]
        rho *= 1.0 - p
        scale = p / d
        for s in range(d):
            rho[np.ix_(groups[s], groups[s])] += scale * traced
    return rho


def reference_noisy_density(num_qubits, gates, p1, p2, theta=None):
    """Density matrix of a basis-lowered gate list (RZ, SX, X, CX, ECR) from
    |0...0><0...0|, with a depolarizing channel of rate p1 / p2 after every
    one- / two-qubit physical gate and none after RZ."""
    n = num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in gates:
        kind = gate.kind.value
        if kind == "RZ":
            angle = gate.angle if gate.angle is not None else float(theta[gate.slot])
            u, p = rz(angle), 0.0
        else:
            u = _REFERENCE_FIXED[kind]
            p = p2 if len(gate.qubits) == 2 else p1
        rho = _reference_evolve_gate(rho, u, tuple(gate.qubits), p, n)
    return rho
