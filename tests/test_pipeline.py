"""Cluster selection, offline centroid training, warm-started online embedding."""

import json

import numpy as np
import pytest

import datasets
import oracles
from enqode import pipeline
from enqode.ansatz import AnsatzConfig, build, invert_epilogue
from enqode.optimizer import ObjectiveError, OptimizerOptions, minimize
from enqode.pipeline import (
    ClusteringResult,
    cluster,
    embed_online,
    library_from_json,
    library_to_json,
    load_library,
    save_library,
    train_offline,
)
from enqode.symbolic import OverlapModel

FAST_OPTS = OptimizerOptions(max_iters=200)


# -- clustering --------------------------------------------------------------


def test_cluster_identical_rows_collapse_to_one():
    row = datasets.product_state([0.3, 0.9])
    data = np.tile(row, (6, 1))
    result = cluster(data)
    assert result.k == 1
    assert result.feasible
    assert np.array_equal(result.assignments, np.zeros(6, dtype=result.assignments.dtype))
    assert np.max(np.abs(result.centroids[0] - row)) <= 1e-12
    assert result.min_overlap_sq >= 1.0 - 1e-12


def test_cluster_separates_two_tight_groups():
    rng = np.random.default_rng(2)
    a = datasets.blob_rows(datasets.product_state([0.2, 0.2, 0.2]), 8, 0.01, rng)
    b = datasets.blob_rows(datasets.product_state([1.3, 1.3, 1.3]), 8, 0.01, rng)
    data = np.vstack([a, b])
    result = cluster(data, fidelity_floor=0.95)
    assert result.k == 2
    assert result.feasible
    first, second = result.assignments[:8], result.assignments[8:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_cluster_three_blobs_need_three_clusters():
    data, _ = datasets.clustered_dataset(num_qubits=4, per_cluster=8, seed=4)
    result = cluster(data, fidelity_floor=0.95)
    assert result.k == 3
    assert result.feasible
    assert result.min_overlap_sq >= 0.95


def test_cluster_reports_best_effort_when_floor_unreachable():
    data = np.eye(4)  # mutually orthogonal, no merged centroid can score well
    result = cluster(data, fidelity_floor=0.95, k_max=2)
    assert not result.feasible
    assert result.k == 2
    assert result.min_overlap_sq < 0.95


def test_cluster_input_validation():
    with pytest.raises(ValueError):
        cluster(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        cluster(np.ones((3, 4)))  # rows not unit norm
    with_nan = np.eye(4)
    with_nan[2, 1] = np.nan
    with pytest.raises(ValueError, match="row 2"):
        cluster(with_nan)
    data = np.eye(4)
    with pytest.raises(ValueError):
        cluster(data, k_max=0)
    with pytest.raises(ValueError):
        cluster(data, k_max=5)


def test_cluster_k_never_drops_as_floor_rises():
    data, _ = datasets.clustered_dataset(num_qubits=3, per_cluster=6, seed=7)
    ks = [cluster(data, fidelity_floor=f).k for f in (0.5, 0.9, 0.95, 0.999)]
    assert ks == sorted(ks)


def test_cluster_centroids_are_unit_norm_and_deterministic():
    data, _ = datasets.clustered_dataset(num_qubits=3, per_cluster=5, seed=1)
    first = cluster(data, seed=3)
    second = cluster(data, seed=3)
    assert np.array_equal(first.assignments, second.assignments)
    assert np.array_equal(first.centroids, second.centroids)
    norms = np.linalg.norm(first.centroids, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def _reference_cases():
    """Datasets for the k-search oracle: separated blobs, orthogonal rows
    and random rows, each with repeated rows so that farthest-point and
    assignment argmax ties occur."""
    blobs, _ = datasets.clustered_dataset(num_qubits=3, per_cluster=5, seed=8)
    rng = np.random.default_rng(9)
    scattered = np.array([datasets.random_unit_vector(8, rng) for _ in range(10)])
    twins = datasets.twin_blob_dataset(np.random.default_rng(10), num_qubits=4, per_blob=3)
    for data in (blobs, np.eye(6), scattered, twins):
        yield np.vstack([data, data[::3], data[:2]])


@pytest.mark.parametrize("seed", range(5))
def test_cluster_is_bit_for_bit_the_reseeding_reference(seed):
    for data in _reference_cases():
        for floor in (0.5, 0.8, 0.95, 0.99, 0.999):
            for k_max in (len(data), 2, 5):
                got = cluster(data, fidelity_floor=floor, k_max=k_max, seed=seed)
                want = oracles.reference_cluster(data, floor, k_max, seed)
                assert got.k == want["k"]
                assert got.assignments.tobytes() == want["assignments"].tobytes()
                assert got.centroids.tobytes() == want["centroids"].tobytes()
                assert got.min_overlap_sq == want["min_overlap_sq"]
                assert got.feasible == want["feasible"]


def test_k_search_extends_one_seed_order(monkeypatch):
    """Each distance row serves every k tried: the search computes one row
    per pick before the largest k's last, where re-seeding every k of
    1, 2, 4, 8, 6, 7 computed 28."""
    rows_computed, ks_tried = [], []
    distance_sq, evaluate_k = pipeline._distance_sq, pipeline._evaluate_k

    def counted_distance_sq(data, row):
        rows_computed.append(row)
        return distance_sq(data, row)

    def recorded_evaluate_k(data, seeds):
        ks_tried.append(len(seeds))
        return evaluate_k(data, seeds)

    monkeypatch.setattr(pipeline, "_distance_sq", counted_distance_sq)
    monkeypatch.setattr(pipeline, "_evaluate_k", recorded_evaluate_k)
    data = datasets.twin_blob_dataset(np.random.default_rng(27))
    result = cluster(data, fidelity_floor=0.95)
    assert result.k == 7 and result.feasible
    assert ks_tried == [1, 2, 4, 8, 6, 7]
    assert len(rows_computed) == max(ks_tried) - 1 == 7


# -- offline training --------------------------------------------------------


def test_train_offline_uniform_centroid_trains_to_one():
    config = AnsatzConfig(num_qubits=2, layers=2)
    data = np.tile(np.full(4, 0.5), (3, 1))
    clustering = cluster(data)
    library = train_offline(data, config, clustering, FAST_OPTS)
    assert len(library.clusters) == 1
    model = library.clusters[0]
    assert model.cluster_id == 0
    assert model.train_fidelity >= 1.0 - 1e-8
    assert library.offline_seconds >= 0.0
    assert library.config == config


def test_train_offline_blobs_reach_good_fidelity():
    data, _ = datasets.clustered_dataset(num_qubits=4, per_cluster=6, seed=9)
    clustering = cluster(data)
    library = train_offline(data, AnsatzConfig(num_qubits=4, layers=4), clustering, FAST_OPTS)
    assert len(library.clusters) == clustering.k
    for model in library.clusters:
        assert model.train_fidelity >= 0.90
        assert abs(np.linalg.norm(model.centroid) - 1.0) <= 1e-12


def test_train_offline_abort_names_the_cluster(monkeypatch):
    def explode(objective, theta0, opts):
        raise ObjectiveError("loss is nan", theta0)

    monkeypatch.setattr("enqode.pipeline.minimize", explode)
    data = np.tile(np.full(4, 0.5), (2, 1))
    clustering = cluster(data)
    with pytest.raises(ObjectiveError, match="training cluster 0 aborted"):
        train_offline(data, AnsatzConfig(num_qubits=2, layers=2), clustering, FAST_OPTS)


# -- online embedding --------------------------------------------------------


def _toy_library(num_qubits=3, layers=3, seed=13):
    data, centroids = datasets.clustered_dataset(num_qubits=num_qubits, per_cluster=6, seed=seed)
    clustering = cluster(data)
    config = AnsatzConfig(num_qubits=num_qubits, layers=layers)
    return data, train_offline(data, config, clustering, FAST_OPTS)


def test_embed_online_centroid_lands_on_its_cluster():
    _, library = _toy_library()
    for model in library.clusters:
        result = embed_online(model.centroid, library, FAST_OPTS, sample_id=7)
        assert result.sample_id == 7
        assert result.cluster_id == model.cluster_id
        assert result.ideal_fidelity >= model.train_fidelity - 1e-6
        assert result.compile_time >= 0.0


def test_embed_online_warm_start_beats_cold_start():
    data, library = _toy_library()
    bundle = build(library.config)
    warm_iters, cold_iters = [], []
    rng = np.random.default_rng(3)
    for x in data[rng.choice(len(data), size=12, replace=False)]:
        warm_iters.append(embed_online(x, library, FAST_OPTS).iterations)
        target = invert_epilogue(bundle, x)
        cold = minimize(OverlapModel(bundle.symbolic, target).loss_and_grad,
                        np.zeros(library.config.num_params), FAST_OPTS)
        cold_iters.append(cold.iterations)
    assert np.median(warm_iters) < np.median(cold_iters)


def test_embed_online_is_deterministic():
    data, library = _toy_library()
    first = embed_online(data[0], library, FAST_OPTS)
    second = embed_online(data[0], library, FAST_OPTS)
    assert np.array_equal(first.theta, second.theta)
    assert first.iterations == second.iterations
    assert first.ideal_fidelity == second.ideal_fidelity


def test_embed_online_validates_input():
    _, library = _toy_library()
    with pytest.raises(ValueError):
        embed_online(np.zeros(4), library)  # wrong length
    bad = np.full(8, 0.5)
    with pytest.raises(ValueError):
        embed_online(bad, library)  # not unit norm
    nan_sample = datasets.product_state([0.1, 0.2, 0.3])
    nan_sample[5] = np.nan
    with pytest.raises(ValueError, match="L2-normalized"):
        embed_online(nan_sample, library)
    empty = library_from_json(json.dumps({
        "config": {"num_qubits": 3, "layers": 3},
        "fingerprint": "",
        "clusters": [],
        "offline_seconds": 0.0,
    }))
    with pytest.raises(ValueError):
        embed_online(datasets.product_state([0.1, 0.2, 0.3]), empty)


def test_embed_online_accepts_far_away_samples():
    _, library = _toy_library()
    x = np.zeros(8)
    x[5] = 1.0
    result = embed_online(x, library, FAST_OPTS)
    assert 0 <= result.cluster_id < len(library.clusters)
    assert 0.0 <= result.ideal_fidelity <= 1.0 + 1e-12


# -- serialization -----------------------------------------------------------


def test_library_json_schema_and_round_trip(tmp_path):
    _, library = _toy_library(num_qubits=2, layers=2)
    doc = json.loads(library_to_json(library))
    assert set(doc) == {"config", "fingerprint", "clusters", "offline_seconds"}
    assert set(doc["config"]) == {"num_qubits", "layers"}
    for entry in doc["clusters"]:
        assert set(entry) == {"id", "centroid", "theta_star", "train_fidelity"}

    path = tmp_path / "library.json"
    save_library(library, path)
    loaded = load_library(path)
    assert loaded.config == library.config
    assert loaded.fingerprint == library.fingerprint
    assert loaded.offline_seconds == library.offline_seconds
    for a, b in zip(loaded.clusters, library.clusters):
        assert a.cluster_id == b.cluster_id
        assert np.array_equal(a.centroid, b.centroid)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.train_fidelity == b.train_fidelity


def test_library_from_json_rejects_malformed_documents():
    _, library = _toy_library(num_qubits=2, layers=2)
    good = json.loads(library_to_json(library))

    def load(edit):
        doc = json.loads(json.dumps(good))
        edit(doc)
        return library_from_json(json.dumps(doc))

    load(lambda doc: None)
    cases = [
        (lambda doc: doc["config"].update(num_qubits=2.5), "num_qubits must be an integer"),
        (lambda doc: doc["config"].update(layers=True), "layers must be an integer"),
        (lambda doc: doc.update(clusters={}), "clusters must be a JSON list"),
        (lambda doc: doc["clusters"][0].update(id="a"),
         'cluster a id must be an integer, got "a"'),
        (lambda doc: doc["clusters"][0].pop("centroid"), "missing key 'centroid'"),
        (lambda doc: doc["clusters"][0]["theta_star"].append(0.0), "theta_star must be 4"),
        (lambda doc: doc["clusters"][0]["theta_star"].__setitem__(0, float("nan")),
         "theta_star must be 4 finite"),
        (lambda doc: doc["clusters"][0]["centroid"].append(0.0), "centroid must be 4"),
        (lambda doc: doc["clusters"][0]["centroid"].__setitem__(0, float("inf")),
         "centroid must be 4 finite"),
    ]
    for edit, message in cases:
        with pytest.raises(ValueError, match=message):
            load(edit)


def test_fingerprint_tracks_data():
    data, centroids = datasets.clustered_dataset(num_qubits=2, per_cluster=4, seed=2)
    config = AnsatzConfig(num_qubits=2, layers=2)
    clustering = cluster(data)
    first = train_offline(data, config, clustering, FAST_OPTS)
    again = train_offline(data, config, clustering, FAST_OPTS)
    assert first.fingerprint == again.fingerprint

    other = data.copy()
    other[0] = datasets.product_state([1.2, 0.4])
    changed = train_offline(other, config, clustering, FAST_OPTS)
    assert changed.fingerprint != first.fingerprint
