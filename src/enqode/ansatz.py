"""Fixed-structure embedding ansatz on a linear qubit chain.

Layout: RX(-pi/2) on every qubit (rotating |0> into the x-y plane), then
per layer one fresh-slot RZ on every qubit followed by CY gates on adjacent
pairs, alternating (0,1),(2,3),... on even layers with (1,2),(3,4),... on
odd layers, and finally RX(-pi/2) then RY(-pi/2) on every qubit. All CY
pairs are chain-adjacent, so the circuit needs no routing.

The prologue plus the RZ/CY body stays inside the phase-linear family and
is tracked symbolically; the fixed epilogue is kept as per-qubit 2x2
factors. Dense-simulating the logical circuit equals applying the epilogue
to the symbolic evaluation. Optimizing toward a real target x through the
full circuit is the same as optimizing the symbolic state toward the
epilogue-inverted target t = E^dagger x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .baseline import lower_to_basis, route_linear
from .circuit import Circuit, GateKind
from .simulator import apply_unitary, rx_matrix, ry_matrix
from .symbolic import PhaseLinearState, init_plus_i


@dataclass(frozen=True)
class AnsatzConfig:
    num_qubits: int
    layers: int

    def __post_init__(self):
        if self.num_qubits < 2:
            raise ValueError("ansatz needs at least two qubits")
        if self.layers < 1:
            raise ValueError("ansatz needs at least one layer")

    @property
    def num_params(self) -> int:
        return self.num_qubits * self.layers


@dataclass
class AnsatzBundle:
    config: AnsatzConfig
    logical_circuit: Circuit
    symbolic: PhaseLinearState
    epilogue_factors: list[np.ndarray] = field(repr=False)  # per-qubit 2x2

    @property
    def num_params(self) -> int:
        return self.config.num_params


def cy_pairs(layer: int, num_qubits: int) -> list[tuple[int, int]]:
    """Adjacent (control, target) pairs for one layer; control = lower index."""
    start = 0 if layer % 2 == 0 else 1
    return [(a, a + 1) for a in range(start, num_qubits - 1, 2)]


def build(config: AnsatzConfig) -> AnsatzBundle:
    n = config.num_qubits
    circuit = Circuit(n)
    state = init_plus_i(n)

    for q in range(n):
        circuit.rx(q, -np.pi / 2)
    slot = 0
    for layer in range(config.layers):
        for q in range(n):
            circuit.rz(q, slot=slot)
            state = state.apply_rz(q, slot)
            slot += 1
        for control, target in cy_pairs(layer, n):
            circuit.cy(control, target)
            state = state.apply_cy(control, target)
    for q in range(n):
        circuit.rx(q, -np.pi / 2)
        circuit.ry(q, -np.pi / 2)

    # circuit-time order RX then RY means the matrix product RY @ RX
    factor = ry_matrix(-np.pi / 2) @ rx_matrix(-np.pi / 2)
    return AnsatzBundle(config, circuit, state, [factor.copy() for _ in range(n)])


@lru_cache(maxsize=8)
def cached_build(config: AnsatzConfig) -> AnsatzBundle:
    """`build`, once per config; every caller shares the bundle and leaves it as it is."""
    return build(config)


def ansatz_physical(config: AnsatzConfig, two_qubit: GateKind = GateKind.CX) -> Circuit:
    """The fixed physical circuit shared by every sample: the logical
    circuit lowered, routed for the chain and lowered again. Chain-adjacent
    CY pairs mean routing inserts no SWAPs."""
    routed = route_linear(lower_to_basis(cached_build(config).logical_circuit, two_qubit))
    return lower_to_basis(routed.circuit, two_qubit)


def invert_epilogue(bundle: AnsatzBundle, x: np.ndarray) -> np.ndarray:
    """Pull a real unit target back through the epilogue: t = E^dagger x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (1 << bundle.config.num_qubits,):
        raise ValueError("target length does not match qubit count")
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-8:
        raise ValueError("target is not L2-normalized")
    t = x.astype(complex)
    for q, factor in enumerate(bundle.epilogue_factors):
        t = apply_unitary(t, factor.conj().T, (q,), bundle.config.num_qubits)
    return t
