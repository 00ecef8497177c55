"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

One run:
    python3 perfbench/run.py --workload dse_explore --seed 0 --seconds 20 --trace 0

prints a few readable lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  Every
run also writes a machine-readable record under ``.perfbench/records/``.

Every workload, all metrics by name:
    python3 perfbench/run.py --all [--seed 0] [--seconds 20] [--trace 1]

Every stored record, by name:
    python3 perfbench/run.py --records

Run from the root of the checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    RECORDS,
    BenchmarkError,
    latency_summary,
    run_record,
    scratch_dir,
    use_program,
    write_record,
)

#: The end-to-end metrics every workload reports (untraced runs).
END_TO_END = {
    "setup_s": "s",
    "designs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics every workload reports (traced runs); 0 where the
#: workload does not reach the layer.
PER_LAYER = {
    "hls.lower.calls": "count",
    "hls.lower.busy_s": "s",
    "hls.backend.busy_s": "s",
    "activity.simulate.calls": "count",
    "activity.simulate.busy_s": "s",
    "activity.profile_reuse_share": "ratio",
    "graph.build.calls": "count",
    "graph.build.busy_s": "s",
    "power.labels.busy_s": "s",
    "flow.featurise.designs": "count",
    "flow.featurise.busy_s": "s",
    "flow.featurise.self_s": "s",
    "flow.predict.calls": "count",
    "flow.predict.designs": "count",
    "flow.predict.busy_s": "s",
    "flow.predict.mean_batch": "designs",
    "flow.batch_variant_answers": "count",
    "gnn.pack.busy_s": "s",
    "gnn.forward.busy_s": "s",
    "serve.cache.sample_hit_ratio": "ratio",
    "serve.cache.prediction_hit_ratio": "ratio",
    "serve.cache.busy_s": "s",
    "runtime.microbatch.wait_s": "s",
    "runtime.microbatch.mean_batch": "designs",
    "runtime.microbatch.wait_p50_ms": "ms",
    "runtime.gateway.wait_s": "s",
    "runtime.http.overhead_ms": "ms",
    "dse.step.calls": "count",
    "dse.step.self_s": "s",
    "gnn.trainer.epochs": "count",
    "gnn.trainer.busy_s": "s",
    "gnn.trainer.pack_busy_s": "s",
    "nn.backward.busy_s": "s",
    "nn.optim.step.busy_s": "s",
    "bench.window_s": "s",
    "bench.unattributed_share": "ratio",
    "bench.tracing_overhead_share": "ratio",
}

WORKLOADS = ("dse_explore", "paper_forward", "http_mixed", "train_fit")


def run_workload(args, env, tmp):
    from perfbench import http_mixed, workloads

    if args.workload == "http_mixed":
        return http_mixed.http_mixed(args, env, tmp)
    return getattr(workloads, args.workload)(args, env, tmp)


def named_metrics(outcome) -> dict:
    """Every end-to-end number of the run by name, as ``{value, unit, ...}``."""
    from perfbench.workloads import tally

    window = outcome.window
    latency = latency_summary(window.latencies_s)
    attempted, failed = tally(window)
    metrics = {
        "setup_s": {"value": outcome.setup_s, "unit": "s"},
        "designs_per_s": {"value": window.designs_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": latency["p50_ms"], "unit": "ms"},
        "latency_tail_ms": {
            "value": latency["tail_ms"],
            "unit": "ms",
            "percentile": latency["tail_percentile"],
            "samples": latency["samples"],
        },
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
    }
    for name, (value, unit) in outcome.specific.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def one_run(args) -> int:
    try:
        env = use_program()
        with scratch_dir() as tmp:
            outcome = run_workload(args, env, tmp)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from perfbench.workloads import tally

    attempted, failed = tally(outcome.window)
    named = named_metrics(outcome)
    if args.trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": named[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = run_record(
        args,
        result,
        outcome.model,
        {
            "end_to_end": named,
            "properties": outcome.properties,
            "per_layer": outcome.layers,
            "spans": [list(vars(span).values()) for span in outcome.spans],
        },
    )
    path = write_record(record)
    for name, entry in named.items():
        print(f"{args.workload:14s} {name:28s} {entry['value']:14.6g} {entry['unit']}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ report


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
        f"  {record['utc']}  commit {record['commit'] or 'unknown'}"
        f"{' (dirty)' if record['dirty'] else ''}  cores {record['usable_cores']}"
    )
    shape = record["model"]
    print(f"   model: {shape['members']} x h{shape['hidden_dim']}")
    for name, entry in record["end_to_end"].items():
        extra = (
            f"  (p{entry['percentile']:.1f} of {entry['samples']})" if "percentile" in entry else ""
        )
        print(f"   {name:32s} {entry['value']:14.6g} {entry['unit']}{extra}")
    for name, value in sorted((record.get("properties") or {}).items()):
        if isinstance(value, (int, float)):
            print(f"   {name:32s} {value:14.6g}")
    for name, value in (record.get("per_layer") or {}).items():
        print(f"   {name:32s} {value:14.6g} {PER_LAYER.get(name, '')}")


def print_records() -> int:
    paths = sorted(RECORDS.glob("*.json")) if RECORDS.is_dir() else []
    if not paths:
        print(f"perfbench: no records under {RECORDS}", file=sys.stderr)
        return 1
    for path in paths:
        print_record(json.loads(path.read_text()))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print every metric by name."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        records = [line[len("record: ") :] for line in lines if line.startswith("record: ")]
        if proc.returncode != 0 or not records:
            print(f"== {workload}: failed ({proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print_record(json.loads(Path(records[-1]).read_text()))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--records", action="store_true", help="print stored records")
    args = parser.parse_args()
    if args.records:
        return print_records()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --records")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
