"""The repository benchmark: time to a checked answer, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pr-wg --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop of one: each repetition
generates the workload's graph (or its ``graphs`` graphs, one after
another) from ``--seed`` (set-up), runs the engine through
``build_engine(...).run()``, and checks the answer against the
reference and against the values digest of the workload's other
repetitions.  Repetitions continue until ``--seconds`` have passed.
While a run is timed, ``hostspeed.Sampler`` times a fixed probe 40
times a second; ``wall_ref_s`` is the run's wall time less the probe's,
rescaled to the sizing host's speed.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions.  ``--trace 1`` runs untraced repetitions for half the
time, then one repetition with every layer entry point wrapped
(``layers.install``), and reports the per-layer metrics; its spans are
written to ``.perfbench_out/spans-<workload>.npz``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/METHOD.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: scratch space inside the checkout: run directories and span files
OUT_DIR = Path(".perfbench_out")

#: set-ups per process; ``setup_s`` is their median
SETUP_SAMPLES = 5

#: the end-to-end metrics, in ``BENCHMARK.json`` order
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """VmHWM since the last reset, plus the largest worker's peak."""
    with open("/proc/self/status") as handle:
        hwm_kb = next(
            int(line.split()[1]) for line in handle if line.startswith("VmHWM:")
        )
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (hwm_kb + children_kb) / 1024.0


@dataclass
class Repetition:
    #: per graph of the repetition (the traced one runs graph 0 only)
    walls: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    units: List[Dict[str, Optional[float]]] = field(default_factory=list)
    #: set-up of every graph, at the sizing host's speed
    setup_s: float = 0.0
    #: host-speed probe during the runs: its total time and median unit
    probe_s: float = 0.0
    unit_s: float = 0.0
    peak_rss_mb: float = 0.0
    problem: Optional[str] = None
    layer: Optional[Dict[str, Optional[float]]] = None

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        #: per graph: the reference values and their tolerance
        self.references: List[Tuple[np.ndarray, float]] = []
        for index in range(workload.graphs):
            graph, spec, root = workloads.make_inputs(workload, seed, index)
            reference = workloads.reference_values(workload, graph, root)
            self.references.append((reference, spec.comparison_tolerance))
            if index == 0:
                self.vertices, self.edges = graph.num_vertices, graph.num_edges
        #: set-up times of every repetition and of the extra set-ups
        self.setups: List[float] = []
        #: the first checked repetition; every later one must match it
        self.first: Optional[Repetition] = None
        self.reps: List[Repetition] = []

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        """Set up, run and check every graph once (traced: graph 0 only).

        Failures are recorded, not raised.
        """
        rep = Repetition()
        sampler = hostspeed.Sampler()
        try:
            for index in range(1 if tracer else self.workload.graphs):
                with workloads.RunDirs(OUT_DIR / "runs") as dirs:
                    rep.problem = self._run_one(rep, index, dirs, sampler, tracer)
                if rep.layer is not None:
                    rep.layer["io.bytes_written"] = dirs.bytes_written
                if rep.problem:
                    break
            self.setups.append(rep.setup_s)
        except Exception as exc:  # any raise is a failed run, not a crash
            rep.problem = f"{type(exc).__name__}: {exc}"
        if sampler.units:
            rep.probe_s, rep.unit_s = sampler.probe_s, sampler.unit_s
        rep.problem = rep.problem or self._check_repeats(rep)
        self.reps.append(rep)
        if rep.problem:
            print(f"run failed: {rep.problem}", file=sys.stderr)
        return rep

    def setup_only(self) -> None:
        """One more set-up sample: generate every graph and build, no run."""
        setup_s = 0.0
        for index in range(self.workload.graphs):
            with workloads.RunDirs(OUT_DIR / "runs") as dirs:
                setup_s += self._set_up(index, dirs)[3]
        self.setups.append(setup_s)

    def _set_up(self, index: int, dirs: workloads.RunDirs):
        """Generate graph ``index`` and build the engine.

        Returns ``(spec, handle, generation seconds, set-up seconds at the
        sizing host's speed)``.
        """
        unit_s = hostspeed.unit_now()
        start = time.perf_counter()
        graph, spec, _ = workloads.make_inputs(self.workload, self.seed, index)
        graph_s = time.perf_counter() - start
        handle = workloads.build(self.workload, graph, spec, dirs)
        setup_s = time.perf_counter() - start
        return spec, handle, graph_s, setup_s * hostspeed.REFERENCE_UNIT_S / unit_s

    def _run_one(
        self,
        rep: Repetition,
        index: int,
        dirs: workloads.RunDirs,
        sampler: hostspeed.Sampler,
        tracer: Optional[Tracer],
    ) -> Optional[str]:
        """Set up, run and check graph ``index``; returns the problem."""
        spec, handle, graph_s, setup_s = self._set_up(index, dirs)
        rep.setup_s += setup_s
        if tracer is None:
            reset_peak_rss()
            with sampler:
                start = time.perf_counter()
                result = handle.run()
                wall_s = time.perf_counter() - start
        else:
            try:
                layers.install(tracer, spec)
                run = tracer.wrap("run", handle.run)
                reset_peak_rss()
                start = time.perf_counter()
                result = run()
                wall_s = time.perf_counter() - start
            finally:
                tracer.uninstall()
        rep.walls.append(wall_s)
        rep.peak_rss_mb = max(rep.peak_rss_mb, peak_rss_mb())
        units = workloads.work_units(result)
        rep.digests.append(workloads.digest(result.values))
        rep.units.append(units)
        if tracer is not None:
            extra = {
                "graph.vertices": self.vertices,
                "graph.edges": self.edges,
                "graph.build_s": graph_s,
            }
            rep.layer = layers.metrics(tracer, handle, result, units, extra)
        reference, tolerance = self.references[index]
        return workloads.run_problem(result) or workloads.check_values(
            result.values, reference, tolerance
        )

    def _check_repeats(self, rep: Repetition) -> Optional[str]:
        """Every repetition must give the same values and counts per graph."""
        if rep.problem:
            return None
        if self.first is None:
            self.first = rep
            return None
        pairs = zip(rep.digests, rep.units, self.first.digests, self.first.units)
        for index, (digest, units, first_digest, first_units) in enumerate(pairs):
            if digest != first_digest:
                return (
                    f"graph {index}: values digest {digest[:12]} != "
                    f"{first_digest[:12]}"
                )
            if units != first_units:
                return f"graph {index}: work units {units} != {first_units}"
        return None

    def passed(self) -> List[Repetition]:
        return [r for r in self.reps if r.problem is None]


def run_for(bench: Bench, seconds: float, minimum: int) -> None:
    deadline = time.perf_counter() + seconds
    while len(bench.reps) < minimum or time.perf_counter() < deadline:
        bench.repeat()
    while len(bench.setups) < SETUP_SAMPLES:
        bench.setup_only()


def wall_ref_s(rep: Repetition) -> float:
    """The run's wall time, less the probe's, at the sizing host's speed."""
    return (rep.wall_s - rep.probe_s) * hostspeed.REFERENCE_UNIT_S / rep.unit_s


def end_to_end(bench: Bench) -> Dict[str, Any]:
    """Medians over the checked repetitions (set-ups: every sample)."""
    ok = bench.passed()
    if not ok:
        return {}
    return {
        "wall_ref_s": statistics.median(wall_ref_s(r) for r in ok),
        "wall_s": statistics.median(r.wall_s for r in ok),
        "unit_s": statistics.median(r.unit_s for r in ok),
        "setup_s": statistics.median(bench.setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
    }


def per_layer(bench: Bench, seconds: float) -> Dict[str, Any]:
    """Untraced repetitions for half the time, then one traced one."""
    run_for(bench, seconds / 2, minimum=1)
    untraced = end_to_end(bench)
    if not untraced:
        return {}
    # the traced repetition runs graph 0 only: compare it with graph 0
    graph0_s = statistics.median(r.walls[0] for r in bench.passed())
    tracer = Tracer(run_id=len(bench.reps))
    traced = bench.repeat(tracer)
    tracer.write(OUT_DIR / f"spans-{bench.workload.name}.npz")
    if traced.layer is None:
        return {}
    metrics = dict(traced.layer)
    metrics["trace.overhead_ratio"] = traced.wall_s / graph0_s
    metrics["run.wall_s"] = untraced["wall_s"]
    metrics["host.probe_unit_s"] = untraced["unit_s"]
    processed = metrics.get("cycle.events_processed")
    if processed:
        metrics["cycle.host_us_per_sim_event"] = graph0_s * 1e6 / processed
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        values = per_layer(bench, args.seconds)
        names = layers.METRICS
    else:
        run_for(bench, args.seconds, minimum=2)
        values = end_to_end(bench)
        names = END_TO_END
    walls = " ".join(f"{r.wall_s:.3f}/{r.unit_s * 1e3:.3f}ms" for r in bench.reps)
    print(f"{args.workload} seed {args.seed}: wall_s/probe unit of each run {walls}")
    absent = [name for name, _ in names if values.get(name) is None]
    for name, unit in names:
        if values.get(name) is not None:
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if absent:
        print(f"{args.workload} absent (reported as 0): {', '.join(absent)}")
    failed = sum(r.problem is not None for r in bench.reps)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(bench.reps),
                "failed": failed,
                "metrics": {
                    name: {"value": float(values.get(name) or 0), "unit": unit}
                    for name, unit in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
