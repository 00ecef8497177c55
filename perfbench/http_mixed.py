"""The ``http_mixed`` workload: closed-loop clients against the HTTP server.

The server (:mod:`perfbench.server`) runs in its own process; this process
is the load generator.  Two ``PowerClient`` connections (two = the cores the
benchmark was tuned on) each send single-design ``/v1/estimate`` requests
and wait for each reply before sending the next, as designers' tools do.

Nine in ten requests name a design of the hot set, warmed in set-up (a hit:
cache, gateway, coalescer and HTTP layers); one in ten names a design never
seen before (a miss: featurise, forward, cache insert).  Hot and cold
designs are spread evenly over the nine kernels, so the kernel mix — which
sets the cost of a miss — is the same for every seed.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import tracing
from perfbench.artifacts import artifact_name, model_shape, training_in_background
from perfbench.common import (
    BenchmarkError,
    dataset_config,
    design_space,
    kernels,
    latency_summary,
    log_tail,
    profile_reuse_share,
    relative_mismatch,
    rng_for,
    stop_process,
)
from perfbench.workloads import (
    SETUPS,
    VARIANCE_SUBSET,
    Outcome,
    Window,
    batch_variant_answers,
    workload_properties,
)

HOT_PER_KERNEL = 3
#: One request in this many names a never-seen design.
COLD_EVERY = 10
CLIENTS = 2


class ServerProcess:
    """Handle on one :mod:`perfbench.server` child."""

    def __init__(self, registry_dir: Path, env: dict, log: Path, trace: bool) -> None:
        command = [
            sys.executable,
            str(Path(__file__).resolve().parent / "server.py"),
            str(registry_dir),
            artifact_name("default"),
        ] + (["--trace"] if trace else [])
        self.log = log
        with open(log, "w") as handle:
            self.proc = subprocess.Popen(
                command,
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=handle,
                text=True,
            )
        try:
            self.ready = self.expect("ready")
        except BaseException:
            stop_process(self.proc)
            raise
        self.host, self.port = self.ready["host"], self.ready["port"]

    def expect(self, event: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH "):
                payload = json.loads(line[len("PERFBENCH ") :])
                if payload["event"] == event:
                    return payload
        raise BenchmarkError(
            f"server exited before {event!r}:\n{log_tail(self.log)}"
        )

    def command(self, text: str, event: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.expect(event)

    def stop(self) -> dict:
        try:
            stopped = self.command("stop", "stopped")
            self.proc.wait(timeout=30)
            return stopped
        finally:
            stop_process(self.proc)


def make_inputs(seed: int) -> tuple[list, list, list]:
    """``(hot designs, cold designs, request kinds)``; the seed picks the requests.

    A design is ``(kernel, DesignDirectives)``.  The hot set is the first
    :data:`HOT_PER_KERNEL` points of each kernel's space and the cold designs
    are the rest, interleaving the kernels round-robin.  Both are fixed: a miss
    costs between a few and a hundred milliseconds depending on the design,
    and letting the seed pick them moved ``latency_tail_ms`` by a quarter and
    ``setup_s`` by a third between seeds.  The seed picks the request
    sequence: one cold request at a seeded position in every block of
    :data:`COLD_EVERY`, and a seeded hot design for every other request.
    """
    rng = rng_for(seed, "http")
    hot, cold_by_kernel = [], []
    for kernel in kernels():
        points = design_space(kernel)
        hot.extend((kernel, point) for point in points[:HOT_PER_KERNEL])
        cold_by_kernel.append([(kernel, point) for point in points[HOT_PER_KERNEL:]])
    cold = [design for group in zip(*cold_by_kernel) for design in group]
    kinds = []
    for _ in range(len(cold)):
        block = ["hot"] * COLD_EVERY
        block[int(rng.integers(COLD_EVERY))] = "cold"
        kinds.extend(block)
    hot_picks = [int(i) for i in rng.integers(len(hot), size=len(kinds))]
    return hot, cold, [(kind, pick) for kind, pick in zip(kinds, hot_picks)]


def wire(design) -> dict:
    from repro.runtime.http import directives_to_json

    kernel, directives = design
    return {"kernel": kernel, "directives": directives_to_json(directives)}


async def fetch_metrics(host: str, port: int) -> dict:
    from repro.runtime.http import request_json

    status, payload = await request_json(host, port, "GET", "/metrics")
    if status != 200:
        raise BenchmarkError(f"GET /metrics answered {status}")
    return payload


async def send_batch(host: str, port: int, designs: list) -> list:
    """One ``/v1/estimate_many`` request for ``designs``; the answers in order."""
    from repro.client import PowerClient

    async with PowerClient(host, port, client_id="batch") as client:
        return await client.estimate_many([wire(design) for design in designs])


async def drive(host: str, port: int, hot: list, cold: list, kinds: list, seconds: float):
    """The closed loop; returns ``(results, wall seconds)``.

    ``results`` holds ``(design, kind, latency_s, payload or None)`` in send order.
    """
    from repro.client import PowerClient

    results: list = []
    state = {"next": 0, "cold": 0}
    deadline = time.perf_counter() + seconds

    async def client_loop(index: int) -> None:
        async with PowerClient(host, port, client_id=f"load-{index}") as client:
            while time.perf_counter() < deadline and state["next"] < len(kinds):
                kind, pick = kinds[state["next"]]
                state["next"] += 1
                if kind == "cold":
                    design = cold[state["cold"]]
                    state["cold"] += 1
                else:
                    design = hot[pick]
                body = wire(design)
                start = time.perf_counter()
                try:
                    payload = await client.estimate(body["kernel"], body["directives"])
                except Exception:  # noqa: BLE001 - a failed request is counted
                    payload = None
                results.append((design, kind, time.perf_counter() - start, payload))

    start = time.perf_counter()
    await asyncio.gather(*(client_loop(index) for index in range(CLIENTS)))
    return results, time.perf_counter() - start


def counter_delta(before: dict, after: dict) -> dict:
    coalescer = [s["runtime"]["coalescer"] for s in (before, after)]
    predictions = [s["runtime"]["cache"]["predictions"] for s in (before, after)]
    items = coalescer[1]["items"] - coalescer[0]["items"]
    batches = coalescer[1]["batches"] - coalescer[0]["batches"]
    hits = predictions[1]["hits"] - predictions[0]["hits"]
    lookups = hits + predictions[1]["misses"] - predictions[0]["misses"]
    return {
        "runtime.microbatch.mean_batch": items / batches if batches else 0.0,
        "serve.cache.prediction_hit_ratio": hits / lookups if lookups else 0.0,
    }


def run_phase(registry_dir, env, tmp, hot, cold, kinds, seconds, trace: bool, setups: int):
    """Set the server up ``setups`` times, then drive the last one for ``seconds``."""
    setup_times, warm_answers = [], []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                server.stop()
            server = None
            server = ServerProcess(
                registry_dir, env, tmp / f"server-{trace:d}-{attempt}.log", trace
            )
            start = time.perf_counter()
            warm_answers = asyncio.run(send_batch(server.host, server.port, hot))
            setup_times.append(server.ready["ready_s"] + time.perf_counter() - start)
        before = asyncio.run(fetch_metrics(server.host, server.port))
        if trace:
            server.command("mark", "marked")
        results, wall = asyncio.run(drive(server.host, server.port, hot, cold, kinds, seconds))
        spans = (
            [tracing.Span(*values) for values in server.command("report", "report")["spans"]]
            if trace
            else []
        )
        after = asyncio.run(fetch_metrics(server.host, server.port))
        variance = None
        if trace:
            unseen = cold[-VARIANCE_SUBSET:]
            variance = (unseen, asyncio.run(send_batch(server.host, server.port, unseen)))
        stopped = server.stop()
        server = None
    finally:
        if server is not None:
            stop_process(server.proc)
    return {
        "setup_s": statistics.median(setup_times),
        "warm_answers": warm_answers,
        "results": results,
        "wall_s": wall,
        "spans": spans,
        "counters": counter_delta(before, after),
        "variance": variance,
        "peak_rss_mb": stopped["peak_rss_mb"],
    }


def http_mixed(args, env, tmp) -> Outcome:
    from repro import DatasetGenerator
    from repro.serve import ModelRegistry

    registry_dir = tmp / "registry"
    hot, cold, kinds = make_inputs(args.seed)
    generator = DatasetGenerator(dataset_config())
    samples: dict = {}

    def featurise(designs: list) -> None:
        missing: dict = {}
        for kernel, directives in designs:
            if (kernel, directives.describe()) not in samples:
                missing.setdefault(kernel, []).append(directives)
        for kernel, points in missing.items():
            for sample in generator.featurise(kernel, points):
                samples[(kernel, sample.directives)] = sample

    with training_in_background("default", registry_dir, env):
        featurise(hot)
    reference = ModelRegistry(registry_dir).load(artifact_name("default"))
    artifact = ModelRegistry(registry_dir).load_artifact(artifact_name("default"))

    phases = [run_phase(registry_dir, env, tmp, hot, cold, kinds, args.seconds, False, SETUPS)]
    if args.trace:
        phases.append(
            run_phase(registry_dir, env, tmp, hot, cold, kinds, args.seconds, True, 1)
        )

    # The check, outside the timed window: every answer against the
    # reference model's prediction on the same design.
    for phase in phases:
        featurise([design for design, kind, _, payload in phase["results"]])
    keys = sorted(samples)
    expected = dict(
        zip(keys, (float(v) for v in reference.predict_batch([samples[k] for k in keys])))
    )

    def answer_ok(design, payload) -> bool:
        if payload is None:
            return False
        power = payload.get("power")
        return (
            isinstance(power, float)
            and math.isfinite(power)
            and power > 0
            and payload.get("model_fingerprint") == artifact.fingerprint
            and not relative_mismatch(power, expected[(design[0], design[1].describe())])
        )

    plain = phases[0]
    window = Window(timed_s=plain["wall_s"])
    for phase in phases:
        for design, payload in zip(hot, phase["warm_answers"]):
            window.checks.append(answer_ok(design, payload))
        for design, kind, latency, payload in phase["results"]:
            window.checks.append(answer_ok(design, payload))
    for design, kind, latency, payload in plain["results"]:
        if payload is not None:
            window.designs += 1
            window.latencies_s.append(latency)
    hits = [lat for _, kind, lat, p in plain["results"] if kind == "hot" and p is not None]
    misses = [lat for _, kind, lat, p in plain["results"] if kind == "cold" and p is not None]
    hit, miss = latency_summary(hits), latency_summary(misses)
    outcome = Outcome(
        setup_s=plain["setup_s"],
        window=window,
        peak_rss_mb=plain["peak_rss_mb"],
        model=model_shape(reference),
        specific={
            "hit_latency_p50_ms": (hit["p50_ms"], "ms"),
            "hit_latency_tail_ms": (hit["tail_ms"], "ms"),
            "miss_latency_p50_ms": (miss["p50_ms"], "ms"),
            "miss_latency_tail_ms": (miss["tail_ms"], "ms"),
        },
        properties=workload_properties(
            reuse=profile_reuse_share(
                [design for design, kind, _, _ in plain["results"] if kind == "cold"], hot
            ),
            hit_ratio=plain["counters"]["serve.cache.prediction_hit_ratio"],
            mean_batch=plain["counters"]["runtime.microbatch.mean_batch"],
            intended_prediction_hit_ratio=1.0 - 1.0 / COLD_EVERY,
            hit_latency=hit,
            miss_latency=miss,
        ),
    )
    if args.trace:
        traced = phases[1]
        completed = [(lat, p) for _, _, lat, p in traced["results"] if p is not None]
        client_s = sum(lat for lat, _ in completed)
        gateway_s = sum(s.duration for s in traced["spans"] if s.layer == "runtime.gateway")
        layers = tracing.layer_metrics(
            traced["spans"], client_s, extra_attributed_s=client_s - gateway_s
        )
        layers.update(traced["counters"])
        layers["runtime.http.overhead_ms"] = 1e3 * (client_s - gateway_s) / len(completed)
        waits = tracing.self_times(traced["spans"], "runtime.microbatch")
        layers["runtime.microbatch.wait_p50_ms"] = 1e3 * statistics.median(waits)
        layers["bench.tracing_overhead_share"] = 1.0 - (
            len(completed) / traced["wall_s"]
        ) / window.designs_per_s
        unseen, answers = traced["variance"]
        featurise(unseen)
        unseen_samples = [samples[(k, d.describe())] for k, d in unseen]
        layers["flow.batch_variant_answers"] = batch_variant_answers(
            reference, unseen_samples, [a["power"] for a in answers]
        )
        outcome.layers = layers
        outcome.spans = traced["spans"]
    return outcome
