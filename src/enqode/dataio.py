"""CSV ingestion, PCA reduction to 2^n features, and L2 normalization.

The embedding stages downstream require every row to be a real unit vector
whose length is a power of two; this module owns that contract. Provenance
(source path plus the transform chain) rides along on the Dataset and is
persisted next to the CSV as a JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .pipeline import require_keys, require_types

__all__ = [
    "Dataset",
    "load_csv",
    "subsample_per_class",
    "pca_reduce",
    "l2_normalize",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray  # rows x dims, float
    labels: np.ndarray | None = None  # optional integer label per row
    provenance: tuple[str, ...] = field(default_factory=tuple)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def with_step(self, values: np.ndarray, step: str) -> "Dataset":
        return replace(self, values=values, provenance=(*self.provenance, step))


def load_csv(path, has_label_column: bool = False) -> Dataset:
    """Parse a rectangular numeric CSV, optionally with a trailing integer
    label column. A non-numeric first line is treated as a header and
    skipped. Errors name the offending 1-based line."""
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            try:
                parsed = [float(c) for c in cells]
            except ValueError as err:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}: non-numeric cell on line {lineno}: {err}") from None
            for col, value in enumerate(parsed, start=1):
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite cell on line {lineno}, column {col}: {cells[col - 1]!r}")
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ValueError(
                    f"{path}: ragged row on line {lineno}: expected {width} cells, got {len(parsed)}"
                )
            if has_label_column:
                labels.append(int(parsed[-1]))
                parsed = parsed[:-1]
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    values = np.asarray(rows, dtype=float)
    return Dataset(
        values=values,
        labels=np.asarray(labels, dtype=int) if has_label_column else None,
        provenance=(f"loaded {os.path.basename(str(path))} "
                    f"({values.shape[0]} rows x {values.shape[1]} dims)",),
    )


def pca_reduce(data: Dataset, target_dims: int) -> Dataset:
    """Mean-centered projection onto the top principal directions.

    Directions come from the SVD of the centered matrix in descending
    singular-value order; each direction's largest-magnitude component is
    made positive so the projection is reproducible across platforms.
    """
    if target_dims < 1:
        raise ValueError("target_dims must be positive")
    if target_dims > min(data.rows, data.dims):
        raise ValueError(
            f"PCA to {target_dims} dims needs at least {target_dims} rows and "
            f"{target_dims} features, got {data.rows} rows x {data.dims} features"
        )
    centered = data.values - data.values.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:target_dims]
    anchor = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(target_dims), anchor])
    signs[signs == 0.0] = 1.0
    components = components * signs[:, None]
    projected = centered @ components.T
    total = float(np.sum(singular**2))
    explained = float(np.sum(singular[:target_dims] ** 2)) / total if total > 0 else 1.0
    return data.with_step(
        projected,
        f"pca {data.dims} -> {target_dims} dims (explained variance {explained:.6f})",
    )


def subsample_per_class(data: Dataset, per_class: int, seed: int = 0) -> Dataset:
    """Keep at most per_class rows of each label (unlabeled data counts as
    one class), sampled without replacement; row order is preserved."""
    if per_class < 1:
        raise ValueError("per_class must be positive")
    labels = data.labels if data.labels is not None else np.zeros(data.rows, dtype=int)
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for label in np.unique(labels):
        members = np.where(labels == label)[0]
        if members.size > per_class:
            members = rng.choice(members, size=per_class, replace=False)
        keep.append(members)
    index = np.sort(np.concatenate(keep))
    out = replace(
        data,
        values=data.values[index],
        labels=data.labels[index] if data.labels is not None else None,
    )
    return replace(out, provenance=(*data.provenance,
                                    f"subsampled to <= {per_class} rows per class "
                                    f"({index.size} rows kept)"))


def l2_normalize(data: Dataset) -> Dataset:
    """Scale each row to unit Euclidean norm; a zero or non-finite row is an error."""
    norms = np.linalg.norm(data.values, axis=1)
    bad = np.where(~np.isfinite(norms))[0]
    if bad.size:
        raise ValueError(f"row {bad[0]} has a non-finite norm and cannot be normalized")
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero norm and cannot be normalized")
    return data.with_step(data.values / norms[:, None], "l2 normalized rows")


def save_dataset(data: Dataset, path) -> None:
    """Write values (plus a trailing label column when present) as CSV and
    the provenance as a JSON sidecar at <path>.provenance.json."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(data.rows):
            row = [repr(float(v)) for v in data.values[i]]
            if data.labels is not None:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)
    sidecar = {
        "rows": data.rows,
        "dims": data.dims,
        "has_labels": data.labels is not None,
        "provenance": list(data.provenance),
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Load a CSV written by save_dataset, using the sidecar to restore the
    label flag and provenance when present. The sidecar must hold a boolean
    `has_labels`, a list of strings `provenance`, and integers `rows` and
    `dims` that match the CSV."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return load_csv(path)
    with open(sidecar, encoding="utf-8") as fh:
        doc = json.load(fh)
    require_keys(doc, ("has_labels", "provenance"), sidecar)
    require_types(doc, {"has_labels": (bool,), "provenance": (list,)}, sidecar)
    steps = {f"provenance[{i}]": step for i, step in enumerate(doc["provenance"])}
    require_types(steps, dict.fromkeys(steps, (str,)), sidecar)
    require_keys(doc, ("rows", "dims"), sidecar)
    require_types(doc, {"rows": (int,), "dims": (int,)}, sidecar)
    data = load_csv(path, has_label_column=doc["has_labels"])
    for key, found in (("rows", data.rows), ("dims", data.dims)):
        if doc[key] != found:
            raise ValueError(f"{sidecar} {key} is {doc[key]} but {path} has {found}")
    return replace(data, provenance=tuple(doc["provenance"]))


def _sidecar_path(path) -> str:
    return f"{path}.provenance.json"
