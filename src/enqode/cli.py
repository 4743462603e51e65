"""Command-line entry point: prepare, train, compare, inspect.

Config comes from one JSON document (--config). A flag overrides the file
where the field has one; the rest are config-only. The merged values are
type-checked against RunConfig and echoed into report metadata, so a
report is self-describing. Exit codes: 0 success, 2 input error, 3
infeasible fidelity floor, 4 every comparison sample failed. ENQODE_LOG
sets the log level (default WARNING).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import os
import sys
import typing

import numpy as np

from . import dataio
from .ansatz import AnsatzConfig, ansatz_physical
from .baseline import BasisConfig, compile_exact, permute_state
from .circuit import Circuit, GateKind, metrics
from .optimizer import OptimizerOptions
from .pipeline import (
    TrainedLibrary,
    cluster,
    embed_online,
    library_from_json,
    load_library,
    require_keys,
    require_types,
    save_library,
    train_offline,
)
from .report import (
    METHOD_ANSATZ,
    METHOD_BASELINE,
    SampleRow,
    build_report,
    report_to_json,
    write_report_csv,
)
from .plots import render_report_svgs
from .simulator import NoiseModel, fidelity_to_pure, simulate_ideal, simulate_noisy

logger = logging.getLogger("enqode")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_ALL_FAILED = 4

_BASIS_KINDS = {"cx": GateKind.CX, "ecr": GateKind.ECR}


@dataclasses.dataclass
class RunConfig:
    qubits: int = 8
    layers: int = 8
    floor: float = 0.95
    kmax: int | None = None
    seed: int = 0
    jobs: int = 1
    noise_p1: float = 2e-4
    noise_p2: float = 7e-3
    basis: str = "cx"
    has_labels: bool = False
    per_class: int | None = 100
    input: str | None = None
    dataset: str | None = None
    library: str | None = None
    out: str = "out"
    optimizer: OptimizerOptions = dataclasses.field(default_factory=OptimizerOptions)

    def __post_init__(self):
        if self.qubits < 2:
            raise ValueError("qubits must be at least 2")
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("fidelity floor must lie in (0, 1]")
        if self.kmax is not None and self.kmax < 1:
            raise ValueError("kmax must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.basis not in _BASIS_KINDS:
            raise ValueError(f"basis must be one of {sorted(_BASIS_KINDS)}")
        if self.per_class is not None and self.per_class < 1:
            raise ValueError("per_class must be positive or null")

    @property
    def dims(self) -> int:
        return 1 << self.qubits

    def dataset_path(self) -> str:
        return self.dataset or os.path.join(self.out, "prepared.csv")

    def library_path(self) -> str:
        return self.library or os.path.join(self.out, "library.json")

    def noise(self) -> NoiseModel:
        return NoiseModel(p1=self.noise_p1, p2=self.noise_p2)

    def basis_config(self) -> BasisConfig:
        return BasisConfig(two_qubit_kind=_BASIS_KINDS[self.basis])

    def echo(self) -> dict:
        return dataclasses.asdict(self)


def _check_config(cls, doc: dict, what: str) -> None:
    """Reject keys that are not fields of `cls` and values of another type."""
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    require_types(doc, {key: typing.get_args(hints[key]) or (hints[key],) for key in doc}, what)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    opt_doc = doc.pop("optimizer", {})
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            doc[field.name] = value
    _check_config(RunConfig, doc, "config")
    if not isinstance(opt_doc, dict):
        raise ValueError("optimizer config must be a JSON object")
    _check_config(OptimizerOptions, opt_doc, "optimizer config")
    return RunConfig(optimizer=OptimizerOptions(**opt_doc), **doc)


def cmd_prepare(config: RunConfig) -> int:
    path = config.input
    if not path:
        raise ValueError("prepare needs an input CSV (positional or config 'input')")
    data = dataio.load_csv(path, has_label_column=config.has_labels)
    if config.per_class is not None:
        data = dataio.subsample_per_class(data, config.per_class, config.seed)
    if data.dims != config.dims:
        try:
            data = dataio.pca_reduce(data, config.dims)
        except ValueError as exc:
            raise ValueError(f"qubits {config.qubits}: {exc}") from None
    data = dataio.l2_normalize(data)
    os.makedirs(config.out, exist_ok=True)
    out_path = config.dataset_path()
    dataio.save_dataset(data, out_path)
    print(f"prepared {data.rows} rows x {data.dims} dims -> {out_path}")
    for step in data.provenance:
        logger.info("provenance: %s", step)
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    data = dataio.load_dataset(config.dataset_path())
    if data.dims != config.dims:
        raise ValueError(
            f"dataset has {data.dims} dims but {config.qubits} qubits need {config.dims}")
    clustering = cluster(data.values, fidelity_floor=config.floor,
                         k_max=config.kmax, seed=config.seed)
    if not clustering.feasible:
        print(
            f"fidelity floor {config.floor} is infeasible at k = {clustering.k}; "
            f"best achievable floor {clustering.min_overlap_sq:.6f}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    logger.info("clustered %d rows into k=%d (min squared overlap %.6f)",
                data.rows, clustering.k, clustering.min_overlap_sq)
    ansatz = AnsatzConfig(config.qubits, config.layers)
    library = train_offline(data.values, ansatz, clustering, config.optimizer)
    os.makedirs(config.out, exist_ok=True)
    save_library(library, config.library_path())
    fids = [c.train_fidelity for c in library.clusters]
    print(f"trained {clustering.k} clusters in {library.offline_seconds:.2f}s "
          f"(train fidelity min {min(fids):.4f} mean {float(np.mean(fids)):.4f}) "
          f"-> {config.library_path()}")
    return EXIT_OK


def _compare_one(sample_id: int, x: np.ndarray, library: TrainedLibrary,
                 config: RunConfig, physical: Circuit, counts,
                 noise: NoiseModel) -> list[SampleRow]:
    rows = []
    embed = embed_online(x, library, config.optimizer, sample_id=sample_id)
    noisy = fidelity_to_pure(simulate_noisy(physical, embed.theta, noise), x)
    rows.append(SampleRow(
        sample_id=sample_id,
        method=METHOD_ANSATZ,
        depth=counts.depth_physical,
        one_qubit=counts.one_qubit_physical,
        two_qubit=counts.two_qubit_physical,
        total_physical=counts.total_physical,
        ideal_fidelity=embed.ideal_fidelity,
        noisy_fidelity=noisy,
        compile_seconds=embed.compile_time,
        cluster_id=embed.cluster_id,
    ))

    compiled = compile_exact(x, config.basis_config())
    target = permute_state(x.astype(complex), compiled.layout)
    ideal = float(abs(np.vdot(target, simulate_ideal(compiled.physical_circuit))) ** 2)
    noisy = fidelity_to_pure(
        simulate_noisy(compiled.physical_circuit, None, noise), target)
    rows.append(SampleRow(
        sample_id=sample_id,
        method=METHOD_BASELINE,
        depth=compiled.metrics.depth_physical,
        one_qubit=compiled.metrics.one_qubit_physical,
        two_qubit=compiled.metrics.two_qubit_physical,
        total_physical=compiled.metrics.total_physical,
        ideal_fidelity=ideal,
        noisy_fidelity=noisy,
        compile_seconds=compiled.synth_time,
    ))
    return rows


def cmd_compare(config: RunConfig) -> int:
    data = dataio.load_dataset(config.dataset_path())
    library = load_library(config.library_path())
    if data.dims != (1 << library.config.num_qubits):
        raise ValueError(
            f"dataset has {data.dims} dims but the library was trained at "
            f"{library.config.num_qubits} qubits")

    basis = config.basis_config()
    noise = config.noise()
    physical = ansatz_physical(library.config, basis)
    counts = metrics(physical)

    rows: list[SampleRow] = []
    failures: list[dict] = []

    def work(i: int):
        return _compare_one(i, data.values[i], library, config, physical,
                            counts, noise)

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
        futures = [pool.submit(work, i) for i in range(data.rows)]
        for i, future in enumerate(futures):  # sample order, so failures are sorted by id
            try:
                rows.extend(future.result())
            except Exception as exc:  # noqa: BLE001 - per-sample isolation
                logger.warning("sample %d failed: %s", i, exc)
                failures.append({"sample_id": i, "error": str(exc)})

    if not rows:
        print("all samples failed; no report written", file=sys.stderr)
        for failure in failures:
            print(f"  sample {failure['sample_id']}: {failure['error']}",
                  file=sys.stderr)
        return EXIT_ALL_FAILED

    metadata = {"seed": config.seed, "config": config.echo()}
    report = build_report(rows, metadata, failures=failures or None)
    os.makedirs(config.out, exist_ok=True)
    report_path = os.path.join(config.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    write_report_csv(report, os.path.join(config.out, "report.csv"))
    svgs = render_report_svgs(report, config.out)

    agg = report["aggregate"]
    ratios = agg.get("ratios", {})
    print(f"compared {agg['samples_compared']} samples -> {report_path}")
    if ratios:
        print(f"  depth ratio {ratios['depth_ratio']:.1f}x, "
              f"gate ratio {ratios['gate_ratio']:.1f}x, "
              f"noisy fidelity ratio {ratios['fidelity_ratio_noisy']:.1f}x")
    print(f"  plots: {', '.join(os.path.basename(p) for p in svgs)}")
    if failures:
        print(f"  warning: {len(failures)} of {data.rows} samples failed",
              file=sys.stderr)
    return EXIT_OK


def _inspect_library(library: TrainedLibrary) -> None:
    config = library.config
    print(f"trained library: {len(library.clusters)} clusters, "
          f"{config.num_qubits} qubits x {config.layers} layers")
    print(f"dataset fingerprint {library.fingerprint[:16]}..., "
          f"trained in {library.offline_seconds:.2f}s")
    for model in library.clusters:
        print(f"  cluster {model.cluster_id}: train fidelity {model.train_fidelity:.6f}")


_METHOD_STATS = ("depth_mean", "depth_std", "ideal_fidelity_mean", "noisy_fidelity_mean")


def _inspect_report(doc: dict) -> None:
    require_keys(doc, ("schema_version", "aggregate"), "report")
    agg = doc["aggregate"]
    require_keys(agg, ("samples_compared",), "report aggregate")
    for method in (METHOD_ANSATZ, METHOD_BASELINE):
        if method in agg:
            what = f"report aggregate '{method}'"
            require_keys(agg[method], _METHOD_STATS, what)
            require_types(agg[method], dict.fromkeys(_METHOD_STATS, (float,)), what)
    ratios = agg.get("ratios", {})
    if not isinstance(ratios, dict):
        raise ValueError("report ratios must be a JSON object")
    require_types(ratios, dict.fromkeys(ratios, (float, type(None))), "report ratios")
    print(f"comparison report (schema v{doc['schema_version']}), "
          f"{agg['samples_compared']} samples compared")
    for method in (METHOD_ANSATZ, METHOD_BASELINE):
        if method in agg:
            stats = agg[method]
            print(f"  {method}: depth {stats['depth_mean']:.1f} "
                  f"+- {stats['depth_std']:.1f}, "
                  f"ideal fidelity {stats['ideal_fidelity_mean']:.4f}, "
                  f"noisy fidelity {stats['noisy_fidelity_mean']:.4f}")
    for name, value in ratios.items():
        shown = "n/a" if value is None else f"{value:.2f}x"
        print(f"  {name}: {shown}")


def cmd_inspect(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if {"clusters", "fingerprint"} <= set(doc):
        _inspect_library(library_from_json(text))
    elif {"samples", "aggregate"} <= set(doc):
        _inspect_report(doc)
    else:
        raise ValueError(f"{path}: not a library or report document")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--jobs", type=int, help="worker pool size for compare")
    common.add_argument("--seed", type=int, help="seed for per-class subsampling and clustering")
    common.add_argument("--out", help="output directory")
    common.add_argument("--noise-p1", type=float, dest="noise_p1",
                        help="one-qubit depolarizing probability")
    common.add_argument("--noise-p2", type=float, dest="noise_p2",
                        help="two-qubit depolarizing probability")
    common.add_argument("--qubits", type=int, help="number of qubits")
    common.add_argument("--layers", type=int, help="ansatz layers")
    common.add_argument("--floor", type=float, help="cluster fidelity floor")
    common.add_argument("--kmax", type=int, help="cluster count ceiling")

    parser = argparse.ArgumentParser(
        prog="enqode",
        description="Approximate amplitude embedding: cluster, train, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[common],
                       help="reduce and normalize a raw CSV")
    p.add_argument("input", nargs="?", metavar="input_path", help="raw CSV path")

    p = sub.add_parser("train", parents=[common],
                       help="cluster a prepared dataset and train the library")
    p.add_argument("dataset", nargs="?", metavar="dataset_path",
                   help="prepared dataset CSV")

    p = sub.add_parser("compare", parents=[common],
                       help="embed every sample both ways and write the report")
    p.add_argument("dataset", nargs="?", metavar="dataset_path",
                   help="prepared dataset CSV")
    p.add_argument("library", nargs="?", metavar="library_path",
                   help="trained library JSON")

    p = sub.add_parser("inspect", parents=[common],
                       help="summarize a library or report JSON")
    p.add_argument("path", help="JSON document to summarize")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("ENQODE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.path)
        config = load_run_config(args)
        logger.info("seed %d", config.seed)
        if args.command == "prepare":
            return cmd_prepare(config)
        if args.command == "train":
            return cmd_train(config)
        return cmd_compare(config)
    except (OSError, ValueError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
