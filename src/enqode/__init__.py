"""Fixed-depth approximate amplitude embedding.

Classical vectors are compiled into short, constant-shape circuits: cluster
the dataset, train one parameter vector per cluster against a symbolically
tracked ansatz, then embed each sample online by warm-starting from its
nearest cluster. An exact multiplexed-rotation baseline and ideal/noisy
simulators support the comparison.
"""

from .ansatz import AnsatzConfig, AnsatzBundle, build
from .baseline import BasisConfig, SynthesisOutput, compile_exact
from .circuit import Circuit, Gate, GateCounts, GateKind, metrics
from .dataio import Dataset, l2_normalize, load_csv, pca_reduce
from .optimizer import ObjectiveError, OptimizeResult, OptimizerOptions, minimize
from .pipeline import (
    ClusteringResult,
    ClusterModel,
    EmbeddingResult,
    TrainedLibrary,
    cluster,
    embed_online,
    load_library,
    save_library,
    train_offline,
)
from .report import SampleRow, build_report, strip_volatile
from .simulator import (
    DensityMatrix,
    NoiseModel,
    fidelity_to_pure,
    simulate_ideal,
    simulate_noisy,
)
from .symbolic import OverlapModel, PhaseLinearState, init_plus_i

__version__ = "0.1.0"

__all__ = [
    "AnsatzBundle",
    "AnsatzConfig",
    "BasisConfig",
    "Circuit",
    "ClusteringResult",
    "ClusterModel",
    "Dataset",
    "DensityMatrix",
    "EmbeddingResult",
    "Gate",
    "GateCounts",
    "GateKind",
    "NoiseModel",
    "ObjectiveError",
    "OptimizeResult",
    "OptimizerOptions",
    "OverlapModel",
    "PhaseLinearState",
    "SampleRow",
    "SynthesisOutput",
    "TrainedLibrary",
    "build",
    "build_report",
    "cluster",
    "compile_exact",
    "embed_online",
    "fidelity_to_pure",
    "init_plus_i",
    "l2_normalize",
    "load_csv",
    "load_library",
    "metrics",
    "minimize",
    "pca_reduce",
    "save_library",
    "simulate_ideal",
    "simulate_noisy",
    "strip_volatile",
    "train_offline",
]
