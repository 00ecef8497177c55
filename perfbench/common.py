"""Shared plumbing of the benchmark: paths, seeds, statistics, run records."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind lives under here (git-ignored).
WORK = ROOT / ".perfbench"
RECORDS = WORK / "records"

#: Design-space shape of every workload (PolyBench kernel size, points/kernel).
KERNEL_SIZE = 8
DESIGNS_PER_KERNEL = 60


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child...)."""


#: Thread-count variables of the BLAS libraries numpy may be built against.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_program() -> dict:
    """Put the program's ``src/`` on ``sys.path``; return a child environment.

    Also limits BLAS to one thread in this process and its children; call it
    before numpy is imported.  On the 2-core shared host the benchmark was
    tuned on, three alternating pairs of 10 s ``train_fit`` runs gave
    962-1314 designs/s with BLAS's default of one thread per core and
    1043-1087 with one thread.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"the program's sources are missing (no {SRC / 'repro'})")
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def derive_seed(seed: int, *tags: str) -> int:
    """A 32-bit seed derived from the run seed and a purpose tag."""
    import numpy as np

    words = [seed & 0xFFFFFFFF] + [zlib.crc32(tag.encode()) for tag in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def rng_for(seed: int, *tags: str):
    import numpy as np

    return np.random.default_rng(derive_seed(seed, *tags))


def kernels() -> list[str]:
    from repro.kernels.polybench import polybench_names

    return list(polybench_names())


def dataset_config():
    """The dataset configuration of every workload.

    Every workload draws its designs from the same nine design spaces (the
    default design-space seed); the run seed picks designs, orders and the
    DSE seed, never the spaces.  Featurisation cost follows the number of
    distinct unroll configurations a space holds, and letting the seed redraw
    the spaces moved ``dse_explore``'s designs_per_s by a quarter between
    seeds.
    """
    from repro import DatasetConfig

    return DatasetConfig(kernel_size=KERNEL_SIZE, designs_per_kernel=DESIGNS_PER_KERNEL)


def design_space(kernel: str) -> list:
    """The kernel's design points (``DesignDirectives``)."""
    from repro import DatasetGenerator
    from repro.kernels.polybench import polybench_kernel

    generator = DatasetGenerator(dataset_config())
    return list(generator.design_space_for(polybench_kernel(kernel, KERNEL_SIZE)))


def profile_reuse_share(designs: list, warmed: list = ()) -> float:
    """Share of ``(kernel, directives)`` whose unroll configuration repeats.

    The program simulates switching activity once per distinct unroll
    configuration of a kernel and reuses the profile for every other design
    point with the same loop pragmas; this is the share of ``designs`` (in
    featurisation order, on one service that already featurised ``warmed``)
    that can reuse a profile.
    """
    from repro.kernels.polybench import polybench_kernel

    def key(kernel, directives) -> tuple:
        loops = polybench_kernel(kernel, KERNEL_SIZE).all_loops()
        return kernel, tuple(directives.pragmas_for_loop(loop.var).unroll_factor for loop in loops)

    seen = {key(*design) for design in warmed}
    reused = 0
    for design in designs:
        reused += key(*design) in seen
        seen.add(key(*design))
    return reused / len(designs) if designs else 0.0


# ---------------------------------------------------------------- statistics


#: Fewest samples whose tail is not the maximum: from here on, ten samples
#: beyond the tail put it at or above the 90th percentile.
TAIL_MIN_SAMPLES = 100


def latency_summary(values_s: list[float]) -> dict:
    """Median and tail of per-operation latencies, in milliseconds.

    The tail is the highest percentile with at least ten samples beyond it:
    the order statistic with exactly ten larger samples.  With fewer than
    :data:`TAIL_MIN_SAMPLES` samples that statistic lies below the 90th
    percentile (with twelve, it is the second smallest), and the tail is the
    maximum instead.
    """
    ordered = sorted(values_s)
    n = len(ordered)
    if n == 0:
        raise BenchmarkError("no latency samples")
    p50 = statistics.median(ordered)
    if n >= TAIL_MIN_SAMPLES:
        tail, percentile = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return {
        "p50_ms": p50 * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": percentile,
        "samples": n,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_mismatch(served: float, reference: float, rtol: float = 1e-9) -> bool:
    return not abs(served - reference) <= rtol * abs(reference)


# ---------------------------------------------------------------- processes


@contextmanager
def scratch_dir():
    """A private directory under the checkout, removed afterwards."""
    path = WORK / "tmp" / f"run-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate ``proc`` if it is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def log_tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------- records


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_config() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"numpy_config": "unavailable"}
    blas = (config or {}).get("Build Dependencies", {}).get("blas", {})
    threads = {name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "thread_env": threads,
    }


def run_record(args, result: dict, model: dict, extra: dict) -> dict:
    """One machine-readable record of a run: environment, inputs, metrics."""
    import numpy as np

    # Only a checkout that is itself the work tree has a commit of its own.
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "model": model,
        "result": result,
        **extra,
    }


def write_record(record: dict) -> Path:
    RECORDS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RECORDS / (
        f"{stamp}-{record['workload']}-s{record['seed']}-t{int(record['trace'])}"
        f"-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path
