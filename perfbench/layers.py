"""Which entry points the traced run wraps, and the per-layer metrics.

Each layer of the program is timed at its public entry points, patched
where the caller resolves them; counts come from the engines' public
result objects (``RoundRecord``, ``TrafficCounters``,
``SliceActivation``, worker stats, ``CycleResult``) or from the calls
themselves.  ``METRICS`` lists every per-layer metric with its unit, in
the order ``BENCHMARK.json`` lists them.
"""

from __future__ import annotations

import os
from multiprocessing import connection as mp_connection
from typing import Any, Dict, Optional, Tuple

from repro import ioutil
from repro.core import accelerator, functional, hostsliced
from repro.core.engines import RunResult
from repro.core.queue import CoalescingQueue
from repro.memory.dram import DRAMSystem
from repro.network.crossbar import Crossbar
from repro.resilience import journal
from repro.resilience.durable import DurableCheckpointStore
from repro.resilience.lease import SliceLease

from tracer import Tracer

#: (name, unit) of every per-layer metric
METRICS: Tuple[Tuple[str, str], ...] = (
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.build_s", "s"),
    ("kernel.events_processed", "count"),
    ("kernel.events_produced", "count"),
    ("kernel.edges_scanned", "count"),
    ("kernel.rounds", "count"),
    ("kernel.useful_ratio", "ratio"),
    ("kernel.self_s", "s"),
    ("queue.insert_calls", "count"),
    ("queue.insert_s", "s"),
    ("queue.drain_calls", "count"),
    ("queue.drain_s", "s"),
    ("queue.coalesce_rate", "ratio"),
    ("spec.apply_calls", "count"),
    ("spec.apply_s", "s"),
    ("spec.propagate_calls", "count"),
    ("spec.propagate_s", "s"),
    ("traffic.offchip_bytes", "B"),
    ("traffic.utilization", "ratio"),
    ("spill.events", "count"),
    ("spill.bytes", "B"),
    ("slicing.passes", "count"),
    ("slicing.activations", "count"),
    ("journal.spills", "count"),
    ("journal.bytes_written", "B"),
    ("journal.commits", "count"),
    ("journal.commit_s", "s"),
    ("journal.scans", "count"),
    ("journal.bytes_scanned", "B"),
    ("journal.scan_s", "s"),
    ("journal.compact_s", "s"),
    ("journal.scan_ratio", "ratio"),
    ("io.fsyncs", "count"),
    ("io.fsync_s", "s"),
    ("io.atomic_writes", "count"),
    ("io.bytes_written", "B"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.write_s", "s"),
    ("lease.acquires", "count"),
    ("lease.acquire_s", "s"),
    ("lease.refreshes", "count"),
    ("ipc.messages", "count"),
    ("ipc.bytes", "B"),
    ("ipc.send_s", "s"),
    ("ipc.recv_wait_s", "s"),
    ("ipc.max_inflight", "count"),
    ("ipc.barrier_wait_rounds", "count"),
    ("hosts.steps", "count"),
    ("shard.encodes", "count"),
    ("shard.parses", "count"),
    ("shard.bytes", "B"),
    ("shard.s", "s"),
    ("cycle.sim_cycles", "cycles"),
    ("cycle.events_processed", "count"),
    ("cycle.offchip_bytes", "B"),
    ("cycle.data_utilization", "ratio"),
    ("cycle.self_s", "s"),
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.access_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("xbar.sends", "count"),
    ("xbar.send_s", "s"),
    ("cycle.host_us_per_sim_event", "us"),
    ("run.self_s", "s"),
    ("run.wall_s", "s"),
    ("host.probe_unit_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

def _journal_commit(tracer: Tracer) -> None:
    counts = tracer.counts

    def make(fn):
        def commit(self, commit_id):
            before = self.bytes_flushed
            fn(self, commit_id)
            counts["journal.bytes_written"] += self.bytes_flushed - before

        return commit

    tracer.replace(journal.SpillJournal, "commit", make)


def install(tracer: Tracer, spec: Any) -> None:
    """Wrap every layer entry point; ``tracer.uninstall()`` undoes it."""
    patch = tracer.patch
    # kernel: the functional drain loop, and the slice drain loop where
    # the cross-host engine resolves it (sliced-mp drains in its workers)
    patch(functional.FunctionalGraphPulse, "run", "kernel")
    patch(hostsliced, "run_slice_activation", "kernel")
    patch(accelerator.GraphPulseAccelerator, "run", "cycle")
    patch(
        CoalescingQueue,
        "insert",
        "queue.insert",
        counter="queue.coalesced",
        measure=lambda args, coalesced: coalesced,
    )
    patch(CoalescingQueue, "drain_bin", "queue.drain")
    patch(spec, "apply", "spec.apply")
    patch(spec, "propagate", "spec.propagate")
    # journal and storage
    tracer.patch_count(journal.SpillJournal, "spill", "journal.spills")
    _journal_commit(tracer)
    patch(journal.SpillJournal, "commit", "journal.commit")
    patch(
        journal,
        "scan_bytes",
        "journal.scan",
        counter="journal.bytes_scanned",
        measure=lambda args, _: len(args[0]),
    )
    patch(journal.SpillJournal, "compact_file", "journal.compact")
    patch(os, "fsync", "io.fsync")
    tracer.patch_count(ioutil, "atomic_open", "io.atomic_writes")
    patch(
        DurableCheckpointStore,
        "write",
        "checkpoint.write",
        counter="checkpoint.bytes",
        measure=lambda args, path: os.path.getsize(path),
    )
    patch(SliceLease, "acquire", "lease.acquire")
    tracer.patch_count(
        SliceLease, "refresh", "lease.refreshes", any_thread=True
    )
    # IPC, parent side: pickled bytes through the pipe, send and wait
    Connection = mp_connection.Connection
    tracer.patch_count(
        Connection,
        "_send_bytes",
        "ipc.bytes",
        measure=lambda args, _: memoryview(args[1]).nbytes,
    )
    tracer.patch_count(
        Connection,
        "_recv_bytes",
        "ipc.bytes",
        measure=lambda _, buffer: buffer.getbuffer().nbytes,
    )
    patch(Connection, "send", "ipc.send")
    patch(Connection, "recv", "ipc.recv")
    patch(mp_connection, "wait", "ipc.wait")
    # cross-host shards
    patch(
        hostsliced,
        "encode_shard",
        "shard.encode",
        counter="shard.bytes",
        measure=lambda args, blob: len(blob),
    )
    patch(hostsliced, "parse_shard", "shard.parse")
    # cycle model
    patch(DRAMSystem, "access", "dram.access")
    patch(DRAMSystem, "access_lines", "dram.access")
    patch(Crossbar, "send", "xbar.send")


def _ratio(numerator: Optional[float], denominator: Optional[float]):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def metrics(
    tracer: Tracer,
    handle: Any,
    result: RunResult,
    units: Dict[str, Optional[float]],
    extra: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced run; None where absent.

    ``units`` are the common work units of the run, ``extra`` the
    values measured outside it (graph size and build time).
    """
    times = tracer.layer_times()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(times.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(times.get(n, (0, 0.0))[1] for n in names)

    raw, stats = result.raw, result.stats
    out: Dict[str, Optional[float]] = dict(extra)
    out.update(units)
    out["kernel.self_s"] = self_s("kernel")
    inserts = calls("queue.insert")
    out.update(
        {
            "queue.insert_calls": inserts,
            "queue.insert_s": self_s("queue.insert"),
            "queue.drain_calls": calls("queue.drain"),
            "queue.drain_s": self_s("queue.drain"),
            "queue.coalesce_rate": _ratio(counts["queue.coalesced"], inserts),
            "spec.apply_calls": calls("spec.apply"),
            "spec.apply_s": self_s("spec.apply"),
            "spec.propagate_calls": calls("spec.propagate"),
            "spec.propagate_s": self_s("spec.propagate"),
        }
    )
    traffic = getattr(raw, "traffic", None)
    if traffic is not None:
        out["traffic.offchip_bytes"] = traffic.total_bytes_fetched
        out["traffic.utilization"] = traffic.utilization()
    activations = getattr(raw, "activations", None)
    if activations is not None:
        out["spill.events"] = sum(a.events_spilled for a in activations)
        out["slicing.activations"] = len(activations)
    if hasattr(raw, "events_spilled"):
        out["spill.events"] = raw.events_spilled
    if "spill_bytes" in stats:
        out["spill.bytes"] = stats["spill_bytes"]
        out["slicing.passes"] = result.passes
    out.update(
        {
            "journal.spills": counts["journal.spills"],
            "journal.bytes_written": counts["journal.bytes_written"],
            "journal.commits": calls("journal.commit"),
            "journal.commit_s": self_s("journal.commit"),
            "journal.scans": calls("journal.scan"),
            "journal.bytes_scanned": counts["journal.bytes_scanned"],
            "journal.scan_s": self_s("journal.scan"),
            "journal.compact_s": self_s("journal.compact"),
            "journal.scan_ratio": _ratio(
                counts["journal.bytes_scanned"],
                counts["journal.bytes_written"],
            ),
            "io.fsyncs": calls("io.fsync"),
            "io.fsync_s": self_s("io.fsync"),
            "io.atomic_writes": counts["io.atomic_writes"],
            "checkpoint.writes": calls("checkpoint.write"),
            "checkpoint.bytes": counts["checkpoint.bytes"],
            "checkpoint.write_s": self_s("checkpoint.write"),
            "lease.acquires": calls("lease.acquire"),
            "lease.acquire_s": self_s("lease.acquire"),
            "lease.refreshes": counts["lease.refreshes"],
            "ipc.messages": calls("ipc.send", "ipc.recv"),
            "ipc.bytes": counts["ipc.bytes"],
            "ipc.send_s": self_s("ipc.send"),
            "ipc.recv_wait_s": self_s("ipc.recv", "ipc.wait"),
            "shard.encodes": calls("shard.encode"),
            "shard.parses": calls("shard.parse"),
            "shard.bytes": counts["shard.bytes"],
            "shard.s": self_s("shard.encode", "shard.parse"),
            "run.self_s": self_s("run"),
        }
    )
    if result.engine == "sliced-mp":
        out["ipc.max_inflight"] = stats["max_inflight"]
        out["ipc.barrier_wait_rounds"] = sum(
            w["barrier_wait_rounds"] for w in stats["worker_stats"]
        )
    if result.engine == "sliced-hosts":
        out["hosts.steps"] = stats["steps"]
    if result.engine == "cycle":
        runner = handle.runner
        hits = sum(c.stats.get("hits") for c in runner.edge_caches)
        misses = sum(c.stats.get("misses") for c in runner.edge_caches)
        out.update(
            {
                "cycle.sim_cycles": raw.total_cycles,
                "cycle.events_processed": raw.events_processed,
                "cycle.offchip_bytes": raw.offchip_bytes,
                "cycle.data_utilization": raw.data_utilization(),
                "cycle.self_s": self_s("cycle"),
                "dram.accesses": raw.dram_stats.get("accesses", 0),
                "dram.row_hit_rate": runner.dram.row_hit_rate(),
                "dram.access_s": self_s("dram.access"),
                "cache.hit_rate": _ratio(hits, hits + misses),
                "xbar.sends": calls("xbar.send"),
                "xbar.send_s": self_s("xbar.send"),
            }
        )
    return out
