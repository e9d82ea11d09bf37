"""The drain kernel: one round of Algorithm 1 over a coalescing queue.

Every engine of the functional family — ``functional``, ``sliced``,
``sliced-mp`` workers, ``sliced-hosts`` steps and ``parallel-sliced`` —
processes events through :func:`drain_round` and nothing else.  A round
drains the given bins in visit order; each event is reduced into its
vertex (lines 4-7), the new value is guarded and written back, and a
change that passes the local termination test is propagated along the
vertex's out-edges (lines 8-14) as coalescing inserts.  Events produced
for a bin later in the visit order are processed in the same round — the
paper's *lookahead*.

The callers differ only in what they pass:

- the bin visit order (a scheduling policy, or round-robin);
- ``route``: slice-partitioned engines hand events owned by another
  slice to ``emit`` instead of the local queue;
- ``lookahead``: a Figure 8 histogram to fill, keyed by bucket label.

The cycle model (:mod:`repro.core.accelerator`) keeps its own path: it
times every event individually.  So does the BSP baseline, which is
frontier-synchronous and has no queue.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from .event import Event

if TYPE_CHECKING:
    from ..algorithms.base import AlgorithmSpec
    from ..graph import CSRGraph
    from .functional import TrafficCounters
    from .queue import CoalescingQueue

__all__ = ["CACHE_LINE", "LOOKAHEAD_BUCKETS", "SliceRoute", "drain_round"]

#: Histogram bucket upper bounds for Figure 8 (the paper buckets lookahead
#: as 0, <100, <200, <300, <400, >400).
LOOKAHEAD_BUCKETS = (0, 100, 200, 300, 400)

#: off-chip transfer granularity in bytes
CACHE_LINE = 64

#: ``(slice_of_vertex, own_slice, emit)``: events for vertices outside
#: ``own_slice`` go to ``emit(target_slice, event)`` in production order
SliceRoute = Tuple[np.ndarray, int, Callable[[int, Event], None]]


def _lookahead_bucket(lookahead: int) -> str:
    """Bucket label in the paper's Figure 8 style."""
    if lookahead <= 0:
        return "0"
    for bound in LOOKAHEAD_BUCKETS[1:]:
        if lookahead < bound:
            return f"<{bound}"
    return f">{LOOKAHEAD_BUCKETS[-1]}"


def drain_round(
    graph: "CSRGraph",
    spec: "AlgorithmSpec",
    state: np.ndarray,
    traffic: "TrafficCounters",
    queue: "CoalescingQueue",
    bins: Iterable[int],
    now: float,
    *,
    resilience=None,
    route: Optional[SliceRoute] = None,
    lookahead: Optional[Dict[str, int]] = None,
) -> Tuple[int, int, float]:
    """Drain ``bins`` of ``queue`` once, in order, applying every event.

    Returns ``(events_processed, events_spilled, progress)`` where
    ``progress`` sums the finite |change| of every state update and
    ``events_spilled`` counts events handed to ``route``'s ``emit`` (or
    lost on the way).  Traffic is accounted at cache-line granularity:
    each drained batch reads and writes back the unique vertex lines it
    touches, each propagating vertex streams the lines covering its CSR
    edge slice.  ``resilience`` is the optional fault harness; its
    ``guard_value``, ``filter_insert`` and ``spill_lost`` sites are
    consulted per event in a fixed order, so seeded fault trajectories
    replay exactly.

    The spec's callables and ``queue.insert`` are looked up per call,
    so instrumentation that wraps them takes effect on the next round.
    """
    apply, propagate = spec.apply, spec.propagate
    should_propagate, identity = spec.should_propagate, spec.identity
    insert, drain_bin = queue.insert, queue.drain_bin
    offsets, adjacency = graph.offsets, graph.adjacency
    vertex_bytes, edge_bytes = graph.vertex_bytes, graph.edge_bytes
    edge_base = graph.edge_region_base
    weighted = spec.uses_weights
    if route is not None:
        slice_of_vertex, own_slice, emit = route
    round_index = int(now)

    processed = spilled = 0
    writes = edge_reads = edge_fetched = edge_useful = 0
    vertex_fetched = vertex_useful = 0
    progress = 0.0
    for bin_index in bins:
        batch = drain_bin(bin_index)
        if not batch:
            continue
        processed += len(batch)
        # read + write-back of the unique vertex lines the batch touches
        lines = {e.vertex * vertex_bytes // CACHE_LINE for e in batch}
        vertex_fetched += 2 * len(lines) * CACHE_LINE
        vertex_useful += 2 * len(batch) * vertex_bytes
        for event in batch:
            if lookahead is not None:
                bucket = _lookahead_bucket(event.generation - round_index)
                lookahead[bucket] = lookahead.get(bucket, 0) + 1
            u = event.vertex
            result = apply(float(state[u]), event.delta)
            if not result.changed:
                continue
            new_state = result.state
            if resilience is not None:
                ok, new_state = resilience.guard_value(u, new_state, now)
                if not ok:
                    # quarantine: reset to identity, never propagate
                    # garbage; the quiescent invariant sweep repairs it
                    state[u] = new_state
                    writes += 1
                    continue
            state[u] = new_state
            writes += 1
            change = result.change
            if math.isfinite(change):
                progress += abs(change)
            if not should_propagate(change):
                continue
            start, stop = int(offsets[u]), int(offsets[u + 1])
            degree = stop - start
            if degree == 0:
                continue
            edge_reads += degree
            first = (edge_base + start * edge_bytes) // CACHE_LINE
            last = (edge_base + stop * edge_bytes - 1) // CACHE_LINE
            edge_fetched += (last - first + 1) * CACHE_LINE
            edge_useful += degree * edge_bytes
            weights = graph.edge_weights(u).tolist() if weighted else None
            generation = event.generation + 1
            for k, dst in enumerate(adjacency[start:stop].tolist()):
                weight = weights[k] if weights is not None else 1.0
                delta = propagate(change, u, dst, weight, degree)
                if delta == identity:
                    continue  # Simplification property: identity is a no-op
                produced = Event(
                    vertex=dst, delta=delta, generation=generation
                )
                if route is not None:
                    target = int(slice_of_vertex[dst])
                    if target != own_slice:
                        spilled += 1
                        if resilience is not None and resilience.spill_lost(
                            produced, now
                        ):
                            # lost in the DRAM spill buffer (not journaled)
                            continue
                        emit(target, produced)
                        continue
                if resilience is not None:
                    for survivor in resilience.filter_insert(produced, now):
                        insert(survivor)
                else:
                    insert(produced)

    traffic.vertex_reads += processed
    traffic.vertex_writes += writes
    traffic.edge_reads += edge_reads
    traffic.vertex_bytes_fetched += vertex_fetched
    traffic.vertex_bytes_useful += vertex_useful
    traffic.edge_bytes_fetched += edge_fetched
    traffic.edge_bytes_useful += edge_useful
    return processed, spilled, progress
