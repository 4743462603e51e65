"""Shared synthetic dataset builders for the test suite.

Cluster centroids are real product states: per qubit an amplitude pair
(cos a, sin a). Product states have flat total magnitude, so the trained
ansatz can in principle reach them exactly, and the all-angles-pi/4 state
is the one the ansatz prepares at theta = 0. The three-blob construction
separates centroids by a fixed per-qubit angle gap large enough that no
two-cluster merge can satisfy the default 0.95 overlap floor.
"""

from __future__ import annotations

import numpy as np


def product_state(angles: np.ndarray) -> np.ndarray:
    """Real product state with qubit q's pair (cos angles[q], sin angles[q]);
    qubit q is bit q of the basis index."""
    state = np.array([1.0])
    for a in reversed(angles):
        state = np.kron(state, np.array([np.cos(a), np.sin(a)]))
    return state


def blob_rows(centroid: np.ndarray, count: int, sigma: float,
              rng: np.random.Generator) -> np.ndarray:
    rows = centroid[None, :] + rng.normal(0.0, sigma, size=(count, centroid.size))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def three_blob_angles(num_qubits: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Angle vectors for three separated centroids around pi/4.

    The +-0.24 shift (jitter < +-0.03) keeps every pair at per-qubit gap
    >= 0.18, so the midpoint of any two centroids has squared overlap
    cos(0.18)^(2n) < 0.95 with the blobs it merges even at n = 4; two
    clusters can never meet the default floor while three trivially do.
    """
    shifts = (-0.24, 0.0, 0.24)
    return [np.pi / 4 + s + rng.uniform(-0.03, 0.03, size=num_qubits)
            for s in shifts]


def clustered_dataset(num_qubits: int, per_cluster: int, sigma: float = 0.01,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Three-blob dataset of normalized rows; returns (values, centroids)."""
    rng = np.random.default_rng(seed)
    centroids = np.array([product_state(a)
                          for a in three_blob_angles(num_qubits, rng)])
    values = np.vstack([blob_rows(c, per_cluster, sigma, rng) for c in centroids])
    return values, centroids


def twin_blob_dataset(rng: np.random.Generator, num_qubits: int = 10,
                      per_blob: int = 20, sigma: float = 0.003) -> np.ndarray:
    """Eight shuffled blobs of normalized rows, two of them near-twins.

    Seven centroids sit at pi/4 +- 0.25 per qubit on sign patterns at
    Hamming distance >= 2, so no two share a cluster at the 0.95 floor; the
    eighth is the first moved by at most 0.01 per qubit and merges with it.
    The k-search at 0.95 therefore ends at k = 7 after trying 1, 2, 4, 8, 6
    and 7 (the shape of the benchmark's n=10 training data).
    """
    while True:
        codes = rng.choice([-1.0, 1.0], size=(7, num_qubits))
        hamming = (codes[:, None, :] != codes[None, :, :]).sum(axis=2)
        if (hamming + 2 * np.eye(7, dtype=int)).min() >= 2:
            break
    angles = [np.pi / 4 + 0.25 * c + rng.uniform(-0.02, 0.02, num_qubits) for c in codes]
    angles.append(angles[0] + rng.uniform(-0.01, 0.01, num_qubits))
    values = np.vstack([blob_rows(product_state(a), per_blob, sigma, rng) for a in angles])
    return values[rng.permutation(len(values))]


def random_unit_vector(dims: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dims)
    return v / np.linalg.norm(v)


def sparse_unit_vector(dims: int, support: int, rng: np.random.Generator) -> np.ndarray:
    v = np.zeros(dims)
    index = rng.choice(dims, size=support, replace=False)
    v[index] = rng.normal(size=support)
    return v / np.linalg.norm(v)
