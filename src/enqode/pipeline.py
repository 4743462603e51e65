"""Offline cluster training and online nearest-cluster embedding.

Offline: k-means over the unit-normalized samples (smallest k whose worst
squared sample/centroid overlap clears the fidelity floor), then one full
cold-start optimization per centroid. Online: a new sample warm-starts
from its nearest centroid's trained parameters, so most of the work is
already done and every sample compiles to the same fixed-shape circuit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzConfig, cached_build, invert_epilogue
from .optimizer import ObjectiveError, OptimizerOptions, minimize
from .symbolic import OverlapModel

__all__ = [
    "ClusterModel",
    "ClusteringResult",
    "TrainedLibrary",
    "EmbeddingResult",
    "cluster",
    "train_offline",
    "embed_online",
    "library_to_json",
    "library_from_json",
    "save_library",
    "load_library",
]

_KMEANS_MAX_ROUNDS = 100


@dataclass(frozen=True)
class ClusterModel:
    cluster_id: int
    centroid: np.ndarray
    theta_star: np.ndarray
    train_fidelity: float


@dataclass(frozen=True)
class ClusteringResult:
    assignments: np.ndarray  # sample index -> cluster id
    centroids: np.ndarray  # k rows, each unit norm
    k: int
    min_overlap_sq: float  # worst (x . c_assigned)^2 over samples
    feasible: bool  # floor met within k_max


@dataclass
class TrainedLibrary:
    config: AnsatzConfig
    clusters: list[ClusterModel]
    fingerprint: str
    offline_seconds: float


@dataclass
class EmbeddingResult:
    sample_id: int
    cluster_id: int
    theta: np.ndarray
    ideal_fidelity: float
    iterations: int
    compile_time: float


# One cache of built ansatze, shared with `ansatz_physical`, so `compare`
# builds each config once; `_bundle_for.cache_clear()` empties it.
_bundle_for = cached_build


def _check_unit_rows(data: np.ndarray) -> None:
    norms = np.linalg.norm(data, axis=1)
    bad = np.where(~(np.abs(norms - 1.0) <= 1e-8))[0]  # NaN fails too
    if bad.size:
        raise ValueError(f"row {bad[0]} is not L2-normalized (norm {norms[bad[0]]:.6g})")


def _seed_centroids(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Farthest-point seeding: seeded random first pick, then repeatedly the
    sample farthest from the chosen set (ties to the lowest index)."""
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(data)))]
    dist_sq = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist_sq))
        chosen.append(nxt)
        dist_sq = np.minimum(dist_sq, np.sum((data - data[nxt]) ** 2, axis=1))
    return data[chosen].copy()


def _lloyd(data: np.ndarray, centroids: np.ndarray):
    """Euclidean k-means rounds; centroids re-normalized after each average.

    On unit vectors the nearest centroid is the one with the largest dot
    product, and argmax breaks ties toward the lowest cluster id. Empty
    clusters keep their previous centroid.
    """
    assignments = None
    for _ in range(_KMEANS_MAX_ROUNDS):
        new_assign = np.argmax(data @ centroids.T, axis=1)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for i in range(len(centroids)):
            members = data[assignments == i]
            if not len(members):
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0.0:
                centroids[i] = mean / norm
    return assignments, centroids


def _evaluate_k(data: np.ndarray, k: int, seed: int) -> ClusteringResult:
    assignments, centroids = _lloyd(data, _seed_centroids(data, k, seed))
    overlap = np.einsum("ij,ij->i", data, centroids[assignments])
    return ClusteringResult(
        assignments=assignments,
        centroids=centroids,
        k=k,
        min_overlap_sq=float(np.min(overlap**2)),
        feasible=True,
    )


def cluster(data, fidelity_floor: float = 0.95, k_max: int | None = None,
            seed: int = 0) -> ClusteringResult:
    """Smallest k (double, then binary search) whose worst squared overlap
    between a sample and its normalized centroid reaches the floor.

    When even k_max misses the floor, the k_max result comes back with
    feasible=False instead of raising, so callers can report how close the
    best effort got.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or not len(data):
        raise ValueError("data must be a non-empty 2-D matrix")
    _check_unit_rows(data)
    rows = len(data)
    if k_max is None:
        k_max = rows
    if not 1 <= k_max <= rows:
        raise ValueError(f"k_max must be in [1, {rows}], got {k_max}")

    cache: dict[int, ClusteringResult] = {}

    def run(k: int) -> ClusteringResult:
        if k not in cache:
            cache[k] = _evaluate_k(data, k, seed)
        return cache[k]

    k = 1
    while True:
        result = run(min(k, k_max))
        if result.min_overlap_sq >= fidelity_floor or k >= k_max:
            break
        k *= 2

    if result.min_overlap_sq < fidelity_floor:
        best = run(k_max)
        return ClusteringResult(best.assignments, best.centroids, best.k,
                                best.min_overlap_sq, feasible=False)

    # smallest passing k lies in (last failing k, current k]
    low, high = result.k // 2, result.k
    while high - low > 1:
        mid = (low + high) // 2
        if run(mid).min_overlap_sq >= fidelity_floor:
            high = mid
        else:
            low = mid
    return run(high)


def train_offline(data, config: AnsatzConfig, clustering: ClusteringResult,
                  opts: OptimizerOptions = OptimizerOptions()) -> TrainedLibrary:
    """One cold-start optimization per centroid; wall time covers training only."""
    data = np.asarray(data, dtype=float)
    bundle = _bundle_for(config)
    start = time.perf_counter()
    clusters = []
    for cid, centroid in enumerate(clustering.centroids):
        target = invert_epilogue(bundle, centroid)
        model = OverlapModel(bundle.symbolic, target)
        try:
            res = minimize(model.loss_and_grad, np.zeros(config.num_params), opts)
        except ObjectiveError as err:
            raise ObjectiveError(f"training cluster {cid} aborted: {err}", err.theta) from err
        clusters.append(ClusterModel(
            cluster_id=cid,
            centroid=np.array(centroid, copy=True),
            theta_star=res.theta_star,
            train_fidelity=1.0 - res.loss_star,
        ))
    return TrainedLibrary(
        config=config,
        clusters=clusters,
        fingerprint=_fingerprint(data),
        offline_seconds=time.perf_counter() - start,
    )


def embed_online(x, library: TrainedLibrary, opts: OptimizerOptions = OptimizerOptions(),
                 sample_id: int = 0) -> EmbeddingResult:
    """Warm-started embedding of one sample from its nearest cluster.

    Nearest is Euclidean distance to the centroids (ties break to the
    lowest cluster id); compile_time covers the optimization only.
    """
    if not library.clusters:
        raise ValueError("library has no trained clusters")
    x = np.asarray(x, dtype=float)
    config = library.config
    if x.shape != (1 << config.num_qubits,):
        raise ValueError(f"sample length {x.shape} does not match {1 << config.num_qubits}")
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-8:
        raise ValueError("sample must be L2-normalized")

    dots = np.array([model.centroid @ x for model in library.clusters])
    chosen = library.clusters[int(np.argmax(dots))]

    bundle = _bundle_for(config)
    target = invert_epilogue(bundle, x)
    model = OverlapModel(bundle.symbolic, target)
    start = time.perf_counter()
    res = minimize(model.loss_and_grad, chosen.theta_star, opts)
    compile_time = time.perf_counter() - start
    return EmbeddingResult(
        sample_id=sample_id,
        cluster_id=chosen.cluster_id,
        theta=res.theta_star,
        ideal_fidelity=1.0 - res.loss_star,
        iterations=res.iterations,
        compile_time=compile_time,
    )


def _fingerprint(data: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.asarray(data.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(data, dtype=np.float64).tobytes())
    return digest.hexdigest()


def library_to_json(library: TrainedLibrary) -> str:
    doc = {
        "config": {"num_qubits": library.config.num_qubits, "layers": library.config.layers},
        "fingerprint": library.fingerprint,
        "clusters": [
            {
                "id": model.cluster_id,
                "centroid": [float(v) for v in model.centroid],
                "theta_star": [float(v) for v in model.theta_star],
                "train_fidelity": float(model.train_fidelity),
            }
            for model in library.clusters
        ],
        "offline_seconds": float(library.offline_seconds),
    }
    return json.dumps(doc, indent=2)


def require_keys(doc, keys: tuple[str, ...], what: str) -> None:
    """Reject a document part that is not an object or lacks a key we read."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} is missing key '{key}'")


_JSON_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", type(None): "null"}


def require_types(doc: dict, types: dict, what: str) -> None:
    """Reject a value whose JSON type its key does not allow.

    `types` maps each key to a tuple of allowed Python types. JSON has one
    number type, so an int passes where float is allowed; a bool is never
    a number.
    """
    for key, allowed in types.items():
        value = doc[key]
        kind = float if type(value) is int else type(value)
        if type(value) not in allowed and kind not in allowed:
            expected = " or ".join(_JSON_NAMES[t] for t in allowed)
            raise ValueError(f"{what} {key} must be {expected}, got {json.dumps(value)}")


def library_from_json(text: str) -> TrainedLibrary:
    """Parse a library document, rejecting with ValueError any document that
    lacks a key or holds a value of the wrong JSON type, whose config is not
    a positive integer qubit/layer count, or whose clusters have repeated
    ids, a theta_star that does not fit the ansatz, or a centroid that is
    not a finite unit vector of length 2^n."""
    doc = json.loads(text)
    require_keys(doc, ("config", "clusters", "fingerprint", "offline_seconds"), "library")
    require_types(doc, {"fingerprint": (str,), "offline_seconds": (float,)}, "library")
    require_keys(doc["config"], ("num_qubits", "layers"), "library config")
    require_types(doc["config"], {"num_qubits": (int,), "layers": (int,)}, "library config")
    config = AnsatzConfig(num_qubits=doc["config"]["num_qubits"], layers=doc["config"]["layers"])
    if not isinstance(doc["clusters"], list):
        raise ValueError("library clusters must be a JSON list")
    clusters = []
    for entry in doc["clusters"]:
        require_keys(entry, ("id", "centroid", "theta_star", "train_fidelity"), "library cluster")
        cid = entry["id"]
        require_types(entry, {"id": (int,), "train_fidelity": (float,)}, f"library cluster {cid}")
        if any(model.cluster_id == cid for model in clusters):
            raise ValueError(f"library cluster id {cid!r} is not unique")
        centroid = np.asarray(entry["centroid"], dtype=float)
        theta_star = np.asarray(entry["theta_star"], dtype=float)
        if theta_star.shape != (config.num_params,) or not np.all(np.isfinite(theta_star)):
            raise ValueError(f"library cluster {cid}: theta_star must be {config.num_params} "
                             f"finite numbers for the configured ansatz, got shape "
                             f"{theta_star.shape}")
        if centroid.shape != (1 << config.num_qubits,) or not np.all(np.isfinite(centroid)):
            raise ValueError(f"library cluster {cid}: centroid must be {1 << config.num_qubits} "
                             f"finite numbers, got shape {centroid.shape}")
        norm = np.linalg.norm(centroid)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"library cluster {cid}: centroid is not unit norm (norm {norm:.6g})")
        clusters.append(ClusterModel(
            cluster_id=cid,
            centroid=centroid,
            theta_star=theta_star,
            train_fidelity=float(entry["train_fidelity"]),
        ))
    return TrainedLibrary(
        config=config,
        clusters=clusters,
        fingerprint=doc["fingerprint"],
        offline_seconds=float(doc["offline_seconds"]),
    )


def save_library(library: TrainedLibrary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(library_to_json(library))
        fh.write("\n")


def load_library(path) -> TrainedLibrary:
    with open(path, "r", encoding="utf-8") as fh:
        return library_from_json(fh.read())
