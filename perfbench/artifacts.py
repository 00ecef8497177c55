"""The benchmark's model artifacts: shapes, fixed training sets, training.

Prediction speed depends on the model's shape (members, hidden size), not on
how well it is trained, so each model is trained in set-up from a fixed seed
on a small fixed training set with a small fixed budget, saved to a
temporary :class:`~repro.serve.registry.ModelRegistry` and loaded back from
there.  Training runs in a child process (this file's ``__main__``) so it
can overlap the parent's input generation and stays out of the parent's
peak memory.

Run directly:  python3 perfbench/artifacts.py <default|paper> <registry-dir>
"""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BenchmarkError,
    dataset_config,
    design_space,
    kernels,
    log_tail,
    stop_process,
    use_program,
)

#: Designs per kernel of the fixed training set (the first of each space).
TRAINING_DESIGNS_PER_KERNEL = 3


def model_config(shape: str):
    """``default``: the shipped 6-member h48 ensemble; ``paper``: 30 x h128."""
    from repro import PowerGearConfig
    from repro.gnn.config import GNNConfig
    from repro.gnn.ensemble import EnsembleConfig
    from repro.gnn.trainer import TrainingConfig

    if shape == "default":
        return PowerGearConfig(training=TrainingConfig(epochs=2, seed=0))
    if shape == "paper":
        return PowerGearConfig(
            gnn=GNNConfig.paper(),
            training=TrainingConfig(epochs=1, batch_size=128, seed=0),
            ensemble=EnsembleConfig.paper(),
        )
    raise BenchmarkError(f"unknown model shape {shape!r}")


def model_shape(model) -> dict:
    ensemble = model.ensemble
    return {
        "hidden_dim": model.config.gnn.hidden_dim,
        "num_layers": model.config.gnn.num_layers,
        "members": len(ensemble.members) if ensemble is not None else 1,
        "fingerprint": model.fingerprint(),
    }


def artifact_name(shape: str) -> str:
    return f"bench-{shape}"


def training_samples() -> list:
    from repro import DatasetGenerator

    generator = DatasetGenerator(dataset_config())
    samples = []
    for kernel in kernels():
        points = design_space(kernel)[:TRAINING_DESIGNS_PER_KERNEL]
        samples.extend(generator.featurise(kernel, points))
    return samples


def train_and_save(shape: str, registry_dir: str) -> None:
    from repro import PowerGear
    from repro.serve import ModelRegistry

    model = PowerGear(model_config(shape)).fit(training_samples())
    ModelRegistry(registry_dir).save(model, artifact_name(shape))


@contextmanager
def training_in_background(shape: str, registry_dir: Path, env: dict, timeout: float = 300.0):
    """Train ``shape`` into ``registry_dir`` in a child process while the body runs.

    Leaving the body waits for the child and checks it succeeded; an error in
    the body stops the child instead.
    """
    log = registry_dir.parent / f"train-{shape}.log"
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), shape, str(registry_dir)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=handle,
            stderr=subprocess.STDOUT,
        )
    try:
        yield
        code = proc.wait(timeout=timeout)
        if code != 0:
            raise BenchmarkError(f"model training failed ({code}):\n{log_tail(log)}")
    finally:
        stop_process(proc)


if __name__ == "__main__":
    use_program()
    train_and_save(sys.argv[1], sys.argv[2])
