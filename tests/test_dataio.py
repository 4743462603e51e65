"""CSV parsing, PCA against a covariance oracle, normalization, persistence."""

import json

import numpy as np
import pytest

from enqode.dataio import (
    Dataset,
    l2_normalize,
    load_csv,
    load_dataset,
    pca_reduce,
    save_dataset,
    subsample_per_class,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- load_csv ----------------------------------------------------------------


def test_load_csv_plain_matrix(tmp_path):
    path = _write(tmp_path / "m.csv", "1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    data = load_csv(path)
    assert data.values.shape == (3, 4)
    assert data.labels is None
    assert np.array_equal(data.values[1], [5.0, 6.0, 7.0, 8.0])
    assert data.provenance == ("loaded m.csv (3 rows x 4 dims)",)


def test_load_csv_skips_header_and_blank_lines(tmp_path):
    path = _write(tmp_path / "h.csv", "a,b\n\n1,2\n3,4\n")
    data = load_csv(path)
    assert data.values.shape == (2, 2)


def test_load_csv_label_column(tmp_path):
    path = _write(tmp_path / "l.csv", "0.1,0.2,1\n0.3,0.4,0\n")
    data = load_csv(path, has_label_column=True)
    assert data.values.shape == (2, 2)
    assert np.array_equal(data.labels, [1, 0])


def test_load_csv_errors_name_the_line(tmp_path):
    ragged = _write(tmp_path / "r.csv", "1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(ragged)
    bad = _write(tmp_path / "b.csv", "1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(bad)
    empty = _write(tmp_path / "e.csv", "\n\n")
    with pytest.raises(ValueError, match="no numeric rows"):
        load_csv(empty)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = _write(tmp_path / "n.csv", f"1,2,3\n4,{cell},6\n")
    with pytest.raises(ValueError, match="non-finite cell on line 2, column 2"):
        load_csv(path)
    labeled = _write(tmp_path / "l.csv", f"1,2,0\n4,5,{cell}\n")
    with pytest.raises(ValueError, match="line 2, column 3"):
        load_csv(labeled, has_label_column=True)


# -- pca_reduce --------------------------------------------------------------


def _pca_oracle(values, target):
    """Eigendecomposition of the sample covariance, descending eigenvalues."""
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:target]
    return centered, eigvecs[:, order]


def test_pca_matches_covariance_eigenvectors():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(50, 32))
    data = Dataset(values=values)
    reduced = pca_reduce(data, 16)
    assert reduced.values.shape == (50, 16)

    centered, basis = _pca_oracle(values, 16)
    oracle = centered @ basis
    # columns agree up to sign; fix signs by matching the largest entries
    for j in range(16):
        a, b = reduced.values[:, j], oracle[:, j]
        if np.dot(a, b) < 0:
            b = -b
        assert np.max(np.abs(a - b)) <= 1e-8


def test_pca_rank_one_explains_everything():
    rng = np.random.default_rng(3)
    direction = rng.normal(size=6)
    values = np.outer(rng.normal(size=20), direction)
    reduced = pca_reduce(Dataset(values=values), 1)
    assert "explained variance 1.000000" in reduced.provenance[-1]
    # residual of the rank-1 reconstruction vanishes
    centered = values - values.mean(axis=0)
    norms = np.linalg.norm(reduced.values, axis=1)
    assert np.max(np.abs(norms - np.linalg.norm(centered, axis=1))) <= 1e-10


def test_pca_full_dims_preserves_geometry():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(12, 8))
    reduced = pca_reduce(Dataset(values=values), 8)
    centered = values - values.mean(axis=0)
    # distances survive a full-rank orthogonal change of basis
    before = np.linalg.norm(centered[:, None] - centered[None, :], axis=2)
    after = np.linalg.norm(reduced.values[:, None] - reduced.values[None, :], axis=2)
    assert np.max(np.abs(before - after)) <= 1e-10


def test_pca_sign_convention_is_reproducible():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(30, 10))
    first = pca_reduce(Dataset(values=values), 4)
    second = pca_reduce(Dataset(values=values.copy()), 4)
    assert np.array_equal(first.values, second.values)


def test_pca_is_row_permutation_equivariant():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(25, 12))
    perm = rng.permutation(25)
    direct = pca_reduce(Dataset(values=values), 5).values
    shuffled = pca_reduce(Dataset(values=values[perm]), 5).values
    assert np.max(np.abs(direct[perm] - shuffled)) <= 1e-9


def test_pca_validates_target_dims():
    data = Dataset(values=np.eye(4))
    with pytest.raises(ValueError):
        pca_reduce(data, 0)
    with pytest.raises(ValueError):
        pca_reduce(data, 5)


# -- subsample_per_class -----------------------------------------------------


def test_subsample_caps_each_label():
    values = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([0] * 6 + [1] * 4)
    data = Dataset(values=values, labels=labels)
    out = subsample_per_class(data, 3, seed=5)
    assert out.rows == 6
    assert np.sum(out.labels == 0) == 3
    assert np.sum(out.labels == 1) == 3
    # kept rows appear in their original order
    kept = [values.tolist().index(row.tolist()) for row in out.values]
    assert kept == sorted(kept)
    assert "subsampled to <= 3 rows per class (6 rows kept)" in out.provenance[-1]


def test_subsample_unlabeled_counts_as_one_class():
    values = np.arange(16, dtype=float).reshape(8, 2)
    out = subsample_per_class(Dataset(values=values), 5, seed=1)
    assert out.rows == 5
    assert out.labels is None


def test_subsample_noop_when_under_cap():
    values = np.arange(8, dtype=float).reshape(4, 2)
    out = subsample_per_class(Dataset(values=values), 100)
    assert np.array_equal(out.values, values)
    with pytest.raises(ValueError):
        subsample_per_class(Dataset(values=values), 0)


def test_subsample_is_seed_deterministic():
    rng = np.random.default_rng(0)
    data = Dataset(values=rng.normal(size=(30, 3)))
    a = subsample_per_class(data, 10, seed=9)
    b = subsample_per_class(data, 10, seed=9)
    assert np.array_equal(a.values, b.values)


# -- l2_normalize ------------------------------------------------------------


def test_l2_normalize_example():
    data = Dataset(values=np.array([[3.0, 4.0]]))
    out = l2_normalize(data)
    assert np.max(np.abs(out.values - [[0.6, 0.8]])) <= 1e-15
    assert out.provenance[-1] == "l2 normalized rows"


def test_l2_normalize_is_idempotent():
    rng = np.random.default_rng(6)
    data = Dataset(values=rng.normal(size=(10, 8)))
    once = l2_normalize(data)
    twice = l2_normalize(once)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-15
    assert np.max(np.abs(np.linalg.norm(once.values, axis=1) - 1.0)) <= 1e-12


def test_l2_normalize_names_zero_row():
    values = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1"):
        l2_normalize(Dataset(values=values))


def test_l2_normalize_rejects_non_finite_rows():
    for bad in (np.nan, np.inf):
        values = np.array([[1.0, 0.0], [0.5, 0.5], [bad, 1.0]])
        with pytest.raises(ValueError, match="row 2 has a non-finite norm"):
            l2_normalize(Dataset(values=values))


# -- persistence -------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    data = Dataset(
        values=rng.normal(size=(7, 4)),
        labels=rng.integers(0, 3, size=7),
        provenance=("loaded x.csv (7 rows x 4 dims)", "l2 normalized rows"),
    )
    path = tmp_path / "out.csv"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.values, data.values)  # repr round trip is exact
    assert np.array_equal(loaded.labels, data.labels)
    assert loaded.provenance == data.provenance

    sidecar = json.loads((tmp_path / "out.csv.provenance.json").read_text())
    assert sidecar == {
        "rows": 7,
        "dims": 4,
        "has_labels": True,
        "provenance": list(data.provenance),
    }


def test_load_dataset_without_sidecar_falls_back(tmp_path):
    path = _write(tmp_path / "plain.csv", "0.25,0.75\n0.5,0.5\n")
    data = load_dataset(path)
    assert data.values.shape == (2, 2)
    assert data.labels is None
    assert data.provenance[0].startswith("loaded plain.csv")
