"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's evaluation has one benchmark module:

* ``test_table1_dataset.py``   — dataset-properties columns of Table I
* ``test_table1_accuracy.py``  — total / dynamic power errors of Table I
* ``test_table1_runtime.py``   — runtime-speedup column of Table I
* ``test_table2_ablation.py``  — HEC-GNN ablation variants of Table II
* ``test_table3_dse.py``       — ADRS of the DSE case study (Table III)
* ``test_fig4_pareto.py``      — Pareto frontiers of Fig. 4

The benchmarks run a reduced configuration by default so the whole harness
finishes on a laptop; set the environment variables below to scale toward the
paper's setup (at a corresponding cost in wall-clock time):

* ``POWERGEAR_BENCH_KERNELS``  — comma-separated kernel list (default: a 4-kernel subset; use ``all`` for all nine)
* ``POWERGEAR_BENCH_DESIGNS``  — design points per kernel (default 24; paper ~500)
* ``POWERGEAR_BENCH_EPOCHS``   — GNN training epochs (default 120; paper 1200/2400)
* ``POWERGEAR_BENCH_SIZE``     — PolyBench problem size (default 8)
* ``POWERGEAR_BENCH_HIDDEN``   — hidden dimension (default 32; paper 128)
* ``POWERGEAR_BENCH_ENSEMBLE`` — ensemble folds, 0 disables the ensemble (default 0; paper 10 folds x 3 seeds)

Each benchmark prints the rows it regenerates in the same layout as the paper
table so the shape (ordering of methods, approximate ratios) can be compared
directly; ``latest_results.txt`` in this directory records the runs.

Wall-clock assertions (and the regression gate in ``check_regression.py``)
share one CI / core-count gating policy, defined once in :mod:`gating` —
benchmarks must import ``wall_clock_enforced`` / ``gate_reason`` from there
instead of re-deriving the check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.evaluation import EvaluationConfig
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig
from repro.graph.dataset import GraphDataset
from repro.kernels.polybench import polybench_names


@dataclass(frozen=True)
class BenchmarkScale:
    """Resolved benchmark sizing (reduced by default, overridable via env vars)."""

    kernels: tuple[str, ...]
    designs_per_kernel: int
    epochs: int
    kernel_size: int
    hidden_dim: int
    ensemble_members: int

    @staticmethod
    def from_environment() -> "BenchmarkScale":
        kernels_env = os.environ.get("POWERGEAR_BENCH_KERNELS", "atax,gemm,mvt,syrk")
        if kernels_env.strip().lower() == "all":
            kernels = tuple(polybench_names())
        else:
            kernels = tuple(k.strip() for k in kernels_env.split(",") if k.strip())
        return BenchmarkScale(
            kernels=kernels,
            designs_per_kernel=int(os.environ.get("POWERGEAR_BENCH_DESIGNS", "24")),
            epochs=int(os.environ.get("POWERGEAR_BENCH_EPOCHS", "120")),
            kernel_size=int(os.environ.get("POWERGEAR_BENCH_SIZE", "8")),
            hidden_dim=int(os.environ.get("POWERGEAR_BENCH_HIDDEN", "32")),
            ensemble_members=int(os.environ.get("POWERGEAR_BENCH_ENSEMBLE", "0")),
        )


@pytest.fixture(scope="session")
def bench_scale() -> BenchmarkScale:
    return BenchmarkScale.from_environment()


@pytest.fixture(scope="session")
def bench_dataset(bench_scale) -> GraphDataset:
    """The generated dataset shared by every benchmark in the session."""
    config = DatasetConfig(
        kernel_size=bench_scale.kernel_size,
        designs_per_kernel=bench_scale.designs_per_kernel,
    )
    return DatasetGenerator(config).generate(list(bench_scale.kernels))


def evaluation_config(bench_scale: BenchmarkScale, target: str) -> EvaluationConfig:
    """Evaluation configuration matching the benchmark scale."""
    ensemble = None
    if bench_scale.ensemble_members >= 2:
        ensemble = EnsembleConfig(folds=bench_scale.ensemble_members, seeds=(0,))
    return EvaluationConfig(
        target=target,
        gnn=GNNConfig(hidden_dim=bench_scale.hidden_dim, num_layers=3),
        training=TrainingConfig(
            epochs=bench_scale.epochs,
            batch_size=32,
            learning_rate=2e-3,
            target=target,
        ),
        ensemble=ensemble,
    )


#: Regenerated tables are also appended here so they survive pytest's output
#: capture (run with ``-s`` to see them live).
RESULTS_FILE = os.path.join(os.path.dirname(__file__), "latest_results.txt")


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Print an aligned table (the regenerated paper table) and log it to a file."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    text = "\n".join(lines)
    print(text)
    with open(RESULTS_FILE, "a", encoding="utf-8") as handle:
        handle.write(text + "\n")
