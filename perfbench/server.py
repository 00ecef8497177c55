"""The ``http_mixed`` server process: the program served as in production.

Loads the model from the registry, builds the service with the settings of
``examples/gateway_server.py`` (coalescing window 5 ms, max batch 16), wraps
it in an :class:`~repro.runtime.gateway.AsyncPowerGateway` and serves it with
:class:`~repro.runtime.http.GatewayHTTPServer` on an ephemeral port.  With
``--trace`` the per-layer shims are installed before anything is built.

It talks to the benchmark over its standard streams, one line each way:

* it prints ``PERFBENCH {"event": "ready", "port": ..., "ready_s": ...}``
  once it accepts requests (``ready_s`` runs from the registry load);
* ``mark`` drops the spans recorded so far (the timed window starts);
* ``report`` prints the spans recorded since the mark;
* ``stop`` (or end of input) closes the server, prints its peak resident
  memory and exits.

Run by the benchmark:  python3 perfbench/server.py <registry-dir> <model> [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing  # noqa: E402
from perfbench.common import dataset_config, peak_rss_mb, use_program  # noqa: E402

COALESCE_WINDOW_MS = 5.0
COALESCE_MAX_BATCH = 16


def emit(payload: dict) -> None:
    sys.stdout.write("PERFBENCH " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def read_commands(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "stop")


async def serve(registry_dir: str, model_name: str, tracer) -> None:
    from repro import DatasetGenerator
    from repro.runtime import RuntimeConfig
    from repro.runtime.gateway import AsyncPowerGateway
    from repro.runtime.http import GatewayHTTPServer
    from repro.serve import ModelRegistry, PowerEstimationService

    start = time.perf_counter()
    registry = ModelRegistry(registry_dir)
    service = PowerEstimationService(
        registry=registry,
        model_name=model_name,
        generator=DatasetGenerator(dataset_config()),
        runtime=RuntimeConfig(
            coalesce_window_ms=COALESCE_WINDOW_MS, coalesce_max_batch=COALESCE_MAX_BATCH
        ),
    )
    server = GatewayHTTPServer(AsyncPowerGateway(service), port=0, registry=registry)
    host, port = await server.start()
    emit(
        {
            "event": "ready",
            "host": host,
            "port": port,
            "ready_s": time.perf_counter() - start,
            "fingerprint": service.model_fingerprint,
        }
    )
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(
        target=read_commands, args=(asyncio.get_running_loop(), queue), daemon=True
    ).start()
    try:
        while True:
            command = await queue.get()
            if command == "mark":
                if tracer is not None:
                    tracer.clear()
                emit({"event": "marked"})
            elif command == "report":
                spans = [list(vars(span).values()) for span in tracer.spans] if tracer else []
                emit({"event": "report", "spans": spans})
            elif command == "stop":
                break
    finally:
        await server.aclose(close_gateway=True)
    emit({"event": "stopped", "peak_rss_mb": peak_rss_mb()})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("registry")
    parser.add_argument("model")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    use_program()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    asyncio.run(serve(args.registry, args.model, tracer))


if __name__ == "__main__":
    main()
