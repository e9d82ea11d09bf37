"""The benchmark's workloads: seeded inputs, engine set-up, answer check.

Every workload goes through the public API only: ``load_dataset`` makes
the graph from the benchmark seed, ``build_engine(...).run()`` computes
the answer, and the answer is checked against
``algorithms.reference_for`` with the rule of
``repro.analysis.experiments._verify_values``.  The engines receive only
the generated graph and algorithm spec, never the seed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import algorithms
from repro.core.engines import RunResult, build_engine
from repro.graph import CSRGraph, load_dataset
from repro.resilience import ResilienceConfig
from repro.resilience.durable import MANIFEST_NAME


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (``BENCHMARK.json`` lists the same)."""

    name: str
    engine: str
    algorithm: str
    dataset: str
    scale: float
    options: Dict[str, Any] = field(default_factory=dict)
    #: graphs drawn from the seed and run, one after another, in every
    #: repetition: the work of one graph differs by 5-16% between seeds,
    #: and a repetition that sums several spreads less between seeds
    graphs: int = 1


#: the five workloads; ``BENCHMARK.json`` and ``METHOD.md`` say why each
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pr-wg", "functional", "pagerank", "WG", 0.1, graphs=3),
        Workload("sssp-tw", "functional", "sssp", "TW", 0.2),
        Workload(
            "pr-mp-durable",
            "sliced-mp",
            "pagerank",
            "LJ",
            0.01,
            options={"num_slices": 8, "num_workers": 2, "dispatch": "barrier"},
            graphs=3,
        ),
        Workload(
            "pr-hosts",
            "sliced-hosts",
            "pagerank",
            "FB",
            0.015,
            options={"num_slices": 2},
        ),
        Workload("pr-cycle", "cycle", "pagerank", "WG", 0.1, graphs=3),
    )
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def make_inputs(
    workload: Workload, seed: int, index: int = 0
) -> Tuple[CSRGraph, Any, Optional[int]]:
    """Generate ``(graph, spec, root)`` of graph ``index`` of ``seed``.

    ``prepare_workload`` takes no seed, so this re-applies its
    conventions over ``load_dataset(seed_offset=...)``: SSSP gets random
    weights and the root is the highest-out-degree vertex.  Graph
    ``index`` of ``seed`` uses the offset ``seed * graphs + index``, so
    every (seed, index) pair has its own graph and graph 0 of seed 0 is
    ``prepare_workload``'s.
    """
    weighted = workload.algorithm == "sssp"
    graph = load_dataset(
        workload.dataset,
        scale=workload.scale,
        weighted=weighted,
        seed_offset=seed * workload.graphs + index,
    )
    if workload.algorithm == "sssp":
        root = int(np.argmax(graph.out_degrees()))
        spec = algorithms.get_algorithm("sssp", graph, root=root)
        return graph, spec, root
    return graph, algorithms.get_algorithm(workload.algorithm, graph), None


def reference_values(
    workload: Workload, graph: CSRGraph, root: Optional[int]
) -> np.ndarray:
    return algorithms.reference_for(
        workload.algorithm, graph, root=0 if root is None else root
    )


def check_values(
    values: np.ndarray, reference: np.ndarray, tolerance: float
) -> Optional[str]:
    """The ``_verify_values`` rule; returns a reason, or None when correct.

    Reachable vertices match within ``spec.comparison_tolerance`` (x100
    absolute, 1e-4 relative); unreachable ones stay unreachable.
    """
    finite = np.isfinite(reference)
    atol = max(tolerance, 1e-12) * 100
    if not np.allclose(values[finite], reference[finite], atol=atol, rtol=1e-4):
        worst = float(np.max(np.abs(values[finite] - reference[finite])))
        return f"diverged from reference: max error {worst:g}"
    if not np.all(np.isinf(values[~finite])):
        return "marked unreachable vertices reachable"
    return None


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# One run: fresh directories, set-up, run
# ----------------------------------------------------------------------


class RunDirs:
    """Fresh checkpoint/hosts/lease directories under one temp root.

    The root lives under ``base`` (inside the checkout), so every
    directory of a run shares one filesystem.  ``close`` records the
    tree's size as ``bytes_written`` and removes it; leaving a ``with``
    block closes it.
    """

    def __init__(self, base: Path):
        base.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.checkpoint = self.root / "checkpoint"
        self.hosts = self.root / "hosts"
        self.leases = self.root / "leases"
        self.bytes_written = 0

    def __enter__(self) -> "RunDirs":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self.bytes_written = sum(
            os.path.getsize(os.path.join(parent, name))
            for parent, _, names in os.walk(self.root)
            for name in names
        )
        shutil.rmtree(self.root, ignore_errors=True)


def build(workload: Workload, graph: CSRGraph, spec: Any, dirs: RunDirs):
    """``build_engine`` for ``workload`` with its per-run directories.

    ``sliced-mp`` runs durable (checkpoints, spill journal and leases in
    the run directory); ``sliced-hosts`` gets a fresh ``hosts_dir``.
    """
    options = dict(workload.options)
    resilience = None
    if workload.engine == "sliced-mp":
        if (dirs.checkpoint / MANIFEST_NAME).exists():
            raise RuntimeError(f"{dirs.checkpoint}: manifest already exists")
        options["lease_dir"] = str(dirs.leases)
        resilience = ResilienceConfig(checkpoint_dir=str(dirs.checkpoint))
    if workload.engine == "sliced-hosts":
        options["hosts_dir"] = str(dirs.hosts)
    return build_engine(
        workload.engine, (graph, spec), options, resilience=resilience
    )


def run_problem(result: RunResult) -> Optional[str]:
    """Engine-level reasons a finished run does not count."""
    if not result.converged:
        return "converged=False"
    stats = result.stats
    if result.engine == "sliced-hosts" and stats["steps_executed"] != stats["steps"]:
        return (
            f"executed {stats['steps_executed']} of {stats['steps']} steps "
            "(reused hosts_dir?)"
        )
    return None


# ----------------------------------------------------------------------
# Common work units
# ----------------------------------------------------------------------


def work_units(result: RunResult) -> Dict[str, Optional[float]]:
    """Kernel counts from the engine's public result; None where absent.

    No unit stands in for another: an engine that does not expose
    produced events or scanned edges reports them absent.
    """
    raw = result.raw
    units: Dict[str, Optional[float]] = {
        "kernel.events_processed": result.stats.get("events_processed"),
        "kernel.events_produced": result.stats.get("events_produced"),
        "kernel.edges_scanned": None,
        "kernel.rounds": result.rounds,
        "kernel.useful_ratio": None,
    }
    traffic = getattr(raw, "traffic", None)
    if result.engine == "functional":
        units["kernel.edges_scanned"] = sum(r.edges_scanned for r in raw.rounds)
    elif traffic is not None:
        units["kernel.edges_scanned"] = traffic.edge_reads
    processed = units["kernel.events_processed"]
    if traffic is not None and processed:
        units["kernel.useful_ratio"] = traffic.vertex_writes / processed
    return units
