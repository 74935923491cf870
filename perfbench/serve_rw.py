"""The ``serve_rw`` workload: ``repro serve`` under a reader and a writer.

``repro serve GRAPH.json`` runs as its own process on a person/city data
graph (the ``benchmarks/bench_serve.py`` schema, scaled up and derived from
the workload seed). This process is the load generator, with two threads on
two connections:

* a closed-loop reader that validates one fixed rule set, again and again;
* an open-loop writer that streams ``add_node``/``add_edge`` batches at a
  fixed rate, each timed from when it was due.

Every validate answer is checked afterwards against ``detect_errors_store``
on a sequential rebuild of the graph at the answer's pinned version; the
writer's acknowledgements must land at contiguous versions and the server
must report no failed query.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro import build_canonical_graph, detect_errors_store, parse_gfds
from repro.graph.io import load_graph
from repro.serve import ServeClient
from repro.serve.protocol import apply_wire_ops

from batch import LayerProbe, match_layers, probe_results, vm_hwm_mb
from refclock import RefClock
from tracer import Tracer

PERSONS = 800
CITIES = 80
NAMES = 30
COUNTRIES = 7
#: Writer batches per second (each: 3 nodes, 3 edges).
WRITE_RATE = 8.0
#: Server launches per run; the last one carries the traffic.
SETUP_LAUNCHES = 5

RULES = """
gfd same_name_same_zip {
    x: person; y: person; z: city;
    x -[lives_in]-> z; y -[lives_in]-> z;
    when x.name = y.name;
    then x.zip = y.zip;
}
gfd home_country {
    x: person; y: city;
    x -[lives_in]-> y;
    then x.country = y.country;
}
gfd friends_share_zip {
    x: person; y: person; z: city;
    x -[knows]-> y; x -[lives_in]-> z; y -[lives_in]-> z;
    then x.zip = y.zip;
}
"""


def person(rng: random.Random, node_id: str, city: int) -> Dict[str, object]:
    """A person whose zip and country mostly agree with its city's."""
    zip_code = city if rng.random() > 0.02 else city + 1
    country = f"k{city % COUNTRIES}" if rng.random() > 0.01 else "kx"
    return {
        "id": node_id,
        "label": "person",
        "attrs": {"name": f"n{rng.randrange(NAMES)}", "zip": zip_code, "country": country},
    }


def seed_graph(seed: int) -> Dict[str, object]:
    rng = random.Random(f"serve_rw:{seed}")
    nodes: List[Dict[str, object]] = [
        {"id": f"c{c}", "label": "city", "attrs": {"country": f"k{c % COUNTRIES}"}}
        for c in range(CITIES)
    ]
    edges: List[Dict[str, object]] = []
    for p in range(PERSONS):
        city = rng.randrange(CITIES)
        nodes.append(person(rng, f"p{p}", city))
        edges.append({"src": f"p{p}", "dst": f"c{city}", "label": "lives_in"})
    for _ in range(PERSONS):
        edges.append(
            {"src": f"p{rng.randrange(PERSONS)}", "dst": f"p{rng.randrange(PERSONS)}", "label": "knows"}
        )
    return {"nodes": nodes, "edges": edges}


def writer_batch(seed: int, index: int) -> List[Dict[str, object]]:
    """Batch *index* of the write stream: a new city with two residents, one
    of whom befriends an existing person (explicit ids: replayable)."""
    rng = random.Random(f"serve_rw:{seed}:batch:{index}")
    city = CITIES + index
    ops: List[Dict[str, object]] = [
        {"kind": "add_node", "id": f"c{city}", "label": "city",
         "attrs": {"country": f"k{city % COUNTRIES}"}},
    ]
    for suffix in ("a", "b"):
        node = person(rng, f"w{index}{suffix}", city)
        ops.append({"kind": "add_node", **node})
        ops.append({"kind": "add_edge", "src": node["id"], "dst": f"c{city}", "label": "lives_in"})
    ops.append({"kind": "add_edge", "src": f"w{index}a", "dst": f"p{rng.randrange(PERSONS)}", "label": "knows"})
    return ops


class Server:
    """One ``repro serve`` process, up to its banner and a first ``ping``."""

    def __init__(self, src: str, graph_path: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=src)
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", graph_path, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        try:
            banner = self.proc.stdout.readline().decode()
            if not banner.startswith("serving on "):
                raise RuntimeError(f"server did not start: {banner!r}")
            host, port = banner.split()[-1].rsplit(":", 1)
            self.host, self.port = host, int(port)
            with ServeClient(self.host, self.port) as probe:
                self.base_version = probe.ping()["version"]
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=120)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Traffic:
    """What the reader and writer saw, for the checks and the metrics."""

    def __init__(self) -> None:
        self.validates: List[Tuple[float, float, int, str, int]] = []
        self.mutates: List[Tuple[float, float]] = []
        self.batches: List[List[Dict[str, object]]] = []
        self.acks: List[int] = []
        self.lateness: List[float] = []
        self.response_bytes: List[int] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def reader(server: Server, clock: RefClock, tracer: Tracer, traffic: Traffic,
           deadline: float, traced_run: bool) -> None:
    with server.client() as client:
        op = 0
        while time.perf_counter() < deadline:
            with traffic.lock:
                traffic.attempted += 1
            window = clock.before()
            traced = traced_run and op % 2 == 1
            started = time.perf_counter()
            span = tracer.span("serve.validate", op=op) if traced else nullcontext()
            try:
                with span:
                    response = client.validate(RULES)
            except Exception as exc:
                clock.after(window)
                traffic.fail(f"validate: {type(exc).__name__}: {exc}")
                op += 1
                continue
            raw = time.perf_counter() - started
            factor = clock.after(window)
            violations = json.dumps(response["violations"], sort_keys=True)
            traffic.validates.append(
                (raw, raw * factor, response["pinned_version"], violations,
                 1 if traced else 0)
            )
            traffic.response_bytes.append(len(json.dumps(response)))
            op += 1


def writer(server: Server, clock: RefClock, tracer: Tracer, traffic: Traffic,
           seed: int, deadline: float) -> None:
    with server.client() as client:
        version = server.base_version
        start = time.perf_counter() + 0.05
        index = 0
        while True:
            due = start + index / WRITE_RATE
            if due >= deadline:
                break
            lead = due - 0.03 - time.perf_counter()
            if lead > 0:
                time.sleep(lead)
            window = clock.before()
            batch = writer_batch(seed, index)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            with traffic.lock:
                traffic.attempted += 1
            try:
                with tracer.span("serve.mutate", op=index):
                    ack = client.mutate(batch)
            except Exception as exc:
                clock.after(window)
                traffic.fail(f"mutate {index}: {type(exc).__name__}: {exc}")
                break
            raw = time.perf_counter() - due
            factor = clock.after(window)
            traffic.lateness.append(max(0.0, sent - due))
            version += len(batch)
            if ack["version"] != version or ack["applied"] != len(batch):
                traffic.fail(f"mutate {index}: acknowledged version {ack['version']}, expected {version}")
                break
            traffic.batches.append(batch)
            traffic.acks.append(ack["version"])
            traffic.mutates.append((raw, raw * factor))
            index += 1


def check_answers(graph_path: str, base_version: int, traffic: Traffic, sigma,
                  tracer: Tracer, probe: LayerProbe, factor: float):
    """Compare every validate answer with a sequential rebuild at its pinned
    version. Returns the rebuilt graph at the last batch and, per pinned
    version, the normalized seconds ``detect_errors_store`` took there."""
    graph, seconds = tracer.timed("graph.load", lambda: load_graph(graph_path))
    probe.add("graph.load_s", seconds * factor)
    probe.add("graph.index_build_s", tracer.timed("graph.index_build", graph.index)[1] * factor)
    if graph.mutation_count != base_version:
        traffic.fail(f"rebuilt seed graph at version {graph.mutation_count}, server at {base_version}")
        return graph, {}

    wanted: Dict[int, List[int]] = {}
    for position, entry in enumerate(traffic.validates):
        wanted.setdefault(entry[2], []).append(position)
    expected: Dict[int, str] = {}
    detect_seconds: Dict[int, float] = {}

    def record(version: int) -> None:
        if version not in wanted:
            return
        store, seconds = tracer.timed("serve.detect", lambda: detect_errors_store(graph, sigma))
        detect_seconds[version] = seconds * factor
        expected[version] = json.dumps([v.to_json() for v in store.violations], sort_keys=True)

    record(base_version)
    for batch, ack in zip(traffic.batches, traffic.acks):
        def apply():
            result = apply_wire_ops(graph, batch)
            graph.index()
            return result

        (_, _, error), seconds = tracer.timed("graph.delta", apply)
        probe.add("graph.delta_us", seconds * factor * 1e6)
        if error is not None or graph.mutation_count != ack:
            traffic.fail(f"rebuild diverged at version {ack}: {error}")
            return graph, detect_seconds
        record(ack)
    for version, positions in wanted.items():
        answer = expected.get(version)
        for position in positions:
            if answer is None:
                traffic.fail(f"validate pinned version {version}, which no batch produced")
            elif traffic.validates[position][3] != answer:
                traffic.fail(f"validate at version {version} differs from the rebuild")
    return graph, detect_seconds


def run_serve(seed: int, seconds: float, tracer: Tracer, src: str, workdir: str) -> Dict[str, object]:
    graph_path = os.path.join(workdir, f"serve-graph-{seed}.json")
    with open(graph_path, "w") as handle:
        json.dump(seed_graph(seed), handle)
    log_path = os.path.join(workdir, "serve.log")
    clock = RefClock()
    probe = LayerProbe()
    traced_run = tracer.enabled

    setup: List[float] = []
    server: Optional[Server] = None
    for launch in range(SETUP_LAUNCHES):
        with tracer.span("serve.launch"):
            candidate = Server(src, graph_path, log_path)
        setup.append(candidate.setup_seconds)
        if launch < SETUP_LAUNCHES - 1:
            candidate.stop()
        else:
            server = candidate

    traffic = Traffic()
    try:
        clock.watch_pid = server.proc.pid
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=reader, args=(server, clock, tracer, traffic, deadline, traced_run)),
            threading.Thread(target=writer, args=(server, clock, tracer, traffic, seed, deadline)),
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        with server.client() as client:
            stats = client.stats()
        server_hwm = vm_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    clock.watch_pid = None

    views, counters = stats["views"], stats["counters"]
    if counters.get("queries_failed", 0):
        traffic.fail(f"server reports {counters['queries_failed']} failed queries")
    sigma = parse_gfds(RULES)

    # The checks run alone on the host: scale them by the kernel timed now.
    factor = clock.after(clock.before())
    graph, detect_seconds = check_answers(
        graph_path, server.base_version, traffic, sigma, tracer, probe, factor
    )
    os.remove(graph_path)
    probe.samples["serve.detect_s"] = list(detect_seconds.values())
    # What a validate costs beyond detection at the same version: queueing,
    # view pinning, protocol encoding and the round trip.
    probe.samples["serve.overhead_ms"] = [
        (entry[1] - detect_seconds[entry[2]]) * 1e3
        for entry in traffic.validates
        if entry[2] in detect_seconds
    ]

    if traced_run:
        for _ in range(5):
            probe.add("gfd.parse_s", tracer.timed("gfd.parse", lambda: parse_gfds(RULES))[1] * factor)
        canonical, seconds = tracer.timed("gfd.canonical", lambda: build_canonical_graph(sigma))
        probe.add("gfd.canonical_s", seconds * factor)
        probe.add("gfd.canonical_nodes", canonical.graph.num_nodes)
        match_layers(tracer, probe, sigma, graph, factor)
        probe_results(tracer, probe, detect_errors_store(graph, sigma), factor)

    for name in ("pins_total", "forks", "full_copies", "ops_replayed"):
        probe.add(f"serve.{name.replace('_total', '')}", views[name])
    probe.add("serve.queries_failed", counters.get("queries_failed", 0))
    achieved = len(traffic.mutates) / elapsed if elapsed else 0.0
    probe.add("serve.write_rate", achieved)
    probe.add("serve.write_rate_share", achieved / WRITE_RATE)
    probe.samples["serve.response_bytes"] = traffic.response_bytes
    return {
        "traffic": traffic,
        "clock": clock,
        "probe": probe,
        "setup": setup,
        "peak_rss_mb": server_hwm,
        "stats": stats,
    }
