"""Closed-form amplitude table for RZ/CY circuits on the all-|+i> state.

Every state reachable from ((|0> + i|1>)/sqrt(2))^(x)n by RZ and CY gates has
amplitudes of constant magnitude 2^(-n/2) whose phases are linear in the RZ
angles:

    amp[r](theta) = 2^(-n/2) * i**root_exp[r] * exp(1j * (coeff[r] @ theta) / 2)

with root_exp[r] in {0,1,2,3} and coeff entries in {-1, 0, +1}. Both arrays
are integer-valued, so gate application is exact: RZ appends a +/-1 column,
CY permutes rows and bumps the i-exponent. Evaluation and the overlap
gradient are then a single matrix-vector product each.

Index convention: qubit q is bit q of the row index (qubit n-1 is the most
significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class PhaseLinearState:
    """Immutable (root_exp, coeff) table; gate application returns a new state."""

    num_qubits: int
    root_exp: np.ndarray  # (2^n,) int8, amplitude phase factor i**root_exp[r]
    coeff: np.ndarray  # (2^n, l) int8 in {-1, 0, +1}, half-angle weights

    def __post_init__(self):
        self.root_exp.flags.writeable = False
        self.coeff.flags.writeable = False

    @property
    def num_params(self) -> int:
        return self.coeff.shape[1]

    @cached_property
    def coeff_float(self) -> np.ndarray:
        """`coeff` as float64, cast once on first use and then shared by
        `evaluate` and `OverlapModel.loss_and_grad`."""
        table = self.coeff.astype(float)
        table.flags.writeable = False
        return table

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def apply_rz(self, qubit: int, slot: int) -> "PhaseLinearState":
        """Append the fresh parameter column for RZ(theta_slot) on `qubit`.

        Convention RZ(t) = diag(e^{-it/2}, e^{+it/2}): the new column is +1
        on rows where the qubit's bit is set and -1 elsewhere. Slots must be
        introduced in order; reusing one would silently merge two rotations.
        """
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        if slot != self.num_params:
            raise ValueError(f"slot {slot} is not the next free slot ({self.num_params})")
        bits = (np.arange(self.dim) >> qubit) & 1
        column = np.where(bits == 1, 1, -1).astype(np.int8)
        return PhaseLinearState(
            self.num_qubits,
            self.root_exp.copy(),
            np.hstack([self.coeff, column[:, None]]),
        )

    def apply_cy(self, control: int, target: int) -> "PhaseLinearState":
        """Apply controlled-Y: rows with the control bit set move across the
        target-bit flip, picking up +i toward target=1 and -i toward target=0
        (Y|0> = i|1>, Y|1> = -i|0>)."""
        if control == target:
            raise ValueError("control and target must differ")
        for q in (control, target):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        rows = np.arange(self.dim)
        src = rows[(rows >> control) & 1 == 1]
        dest = src ^ (1 << target)
        dest_bit = (dest >> target) & 1
        new_exp = self.root_exp.copy()
        new_coeff = self.coeff.copy()
        new_exp[dest] = (self.root_exp[src] + np.where(dest_bit == 1, 1, 3)) % 4
        new_coeff[dest] = self.coeff[src]
        return PhaseLinearState(self.num_qubits, new_exp, new_coeff)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """Amplitude vector at `theta`; always unit norm by construction."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got shape {theta.shape}")
        half_phase = 0.5 * (self.coeff_float @ theta)
        scale = 2.0 ** (-self.num_qubits / 2.0)
        return scale * _I_POWERS[self.root_exp] * np.exp(1j * half_phase)

    def validate(self) -> None:
        if self.root_exp.shape != (self.dim,) or self.coeff.shape[0] != self.dim:
            raise AssertionError("table shape mismatch")
        if not np.all((self.root_exp >= 0) & (self.root_exp < 4)):
            raise AssertionError("root exponent escaped {0,1,2,3}")
        if not np.all(np.isin(self.coeff, (-1, 0, 1))):
            raise AssertionError("coefficient escaped {-1, 0, +1}")


def init_plus_i(num_qubits: int) -> PhaseLinearState:
    """State ((|0> + i|1>)/sqrt(2))^(x)n: i-exponent is the index popcount."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    rows = np.arange(1 << num_qubits)
    popcount = np.array([bin(r).count("1") for r in rows], dtype=np.int8)
    coeff = np.zeros((1 << num_qubits, 0), dtype=np.int8)
    return PhaseLinearState(num_qubits, popcount % 4, coeff)


@dataclass
class OverlapModel:
    """Squared-overlap infidelity against a fixed unit target vector.

    loss(theta) = 1 - |<target|state(theta)>|^2, with the exact analytic
    gradient from the linear phases (no finite differences anywhere).
    """

    state: PhaseLinearState
    target: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=complex)
        if self.target.shape != (self.state.dim,):
            raise ValueError("target length does not match state dimension")
        norm = np.linalg.norm(self.target)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"target is not normalized (norm {norm})")

    def loss_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        psi = self.state.evaluate(theta)
        weighted = np.conj(self.target) * psi
        overlap = weighted.sum()
        loss = 1.0 - (overlap.real**2 + overlap.imag**2)
        # d(psi_r)/d(theta_j) = psi_r * (i * coeff_rj / 2)
        moments = weighted @ self.state.coeff_float
        grad = -2.0 * np.real(np.conj(overlap) * 0.5j * moments)
        return min(max(loss, 0.0), 1.0), grad

    def loss(self, theta: np.ndarray) -> float:
        return self.loss_and_grad(theta)[0]
