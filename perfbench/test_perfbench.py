"""Checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.analysis.experiments import prepare_workload  # noqa: E402
from repro.core.engines import build_engine  # noqa: E402
from repro.core.queue import CoalescingQueue  # noqa: E402
from repro.resilience import ResilienceConfig  # noqa: E402


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_matches_prepare_workload(name):
    workload = WORKLOADS[name]
    graph, spec, root = workloads.make_inputs(workload, 0)
    expected, expected_spec = prepare_workload(
        workload.dataset, workload.algorithm, scale=workload.scale
    )
    np.testing.assert_array_equal(graph.offsets, expected.offsets)
    np.testing.assert_array_equal(graph.adjacency, expected.adjacency)
    if expected.weights is None:
        assert graph.weights is None
    else:
        np.testing.assert_array_equal(graph.weights, expected.weights)
    if root is not None:
        assert root == int(np.argmax(expected.out_degrees()))
    assert spec.name == expected_spec.name


def test_seeds_give_distinct_inputs():
    workload = WORKLOADS["pr-wg"]
    first, _, _ = workloads.make_inputs(workload, 1)
    again, _, _ = workloads.make_inputs(workload, 1)
    other, _, _ = workloads.make_inputs(workload, 2)
    np.testing.assert_array_equal(first.adjacency, again.adjacency)
    assert not np.array_equal(first.adjacency, other.adjacency)


def test_graphs_of_one_seed_are_distinct_and_repeatable():
    workload = WORKLOADS["pr-mp-durable"]
    assert workload.graphs > 1
    graphs = [
        workloads.make_inputs(workload, 1, index)[0]
        for index in range(workload.graphs)
    ]
    again, _, _ = workloads.make_inputs(workload, 1, 1)
    np.testing.assert_array_equal(graphs[1].adjacency, again.adjacency)
    for first, second in zip(graphs, graphs[1:]):
        assert not np.array_equal(first.adjacency, second.adjacency)


def test_sampler_times_the_probe_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.units) >= 5
    assert 0 < sampler.unit_s <= sampler.probe_s < 0.3


def _run_workload(name, seed, tmp_path):
    workload = WORKLOADS[name]
    graph, spec, _ = workloads.make_inputs(workload, seed)
    with workloads.RunDirs(tmp_path / "runs") as dirs:
        result = workloads.build(workload, graph, spec, dirs).run()
    return graph, spec, result


def test_mp_durable_is_bit_identical_to_in_process_sliced(tmp_path):
    graph, spec, result = _run_workload("pr-mp-durable", 0, tmp_path)
    options = dict(WORKLOADS["pr-mp-durable"].options)
    del options["num_workers"]
    reference = build_engine(
        "sliced",
        (graph, spec),
        options,
        resilience=ResilienceConfig(checkpoint_dir=str(tmp_path / "sliced")),
    ).run()
    assert workloads.digest(result.values) == workloads.digest(reference.values)


def test_hosts_is_bit_identical_to_chained_sliced(tmp_path):
    graph, spec, result = _run_workload("pr-hosts", 0, tmp_path)
    assert result.stats["steps_executed"] == result.stats["steps"]
    reference = build_engine(
        "sliced",
        (graph, spec),
        {**WORKLOADS["pr-hosts"].options, "dispatch": "chained"},
    ).run()
    assert workloads.digest(result.values) == workloads.digest(reference.values)


def test_reused_directories_fail(tmp_path):
    workload = WORKLOADS["pr-hosts"]
    graph, spec, _ = workloads.make_inputs(workload, 0)
    with workloads.RunDirs(tmp_path / "runs") as dirs:
        first = workloads.build(workload, graph, spec, dirs).run()
        again = workloads.build(workload, graph, spec, dirs).run()
    assert dirs.bytes_written > 0
    assert workloads.run_problem(first) is None
    assert "steps" in workloads.run_problem(again)


def test_answer_check_rejects_wrong_values():
    reference = np.array([0.0, 1.0, np.inf])
    assert workloads.check_values(reference.copy(), reference, 1e-6) is None
    assert workloads.check_values(np.array([0.0, 2.0, np.inf]), reference, 1e-6)
    assert workloads.check_values(np.array([0.0, 1.0, 5.0]), reference, 1e-6)


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", lambda: (leaf(), leaf()))
    root()
    times = tracer.layer_times()
    assert times["leaf"] == (2, 4.0)
    assert times["root"] == (1, 6.0)


def test_install_then_uninstall_restores_every_entry_point():
    workload = WORKLOADS["pr-wg"]
    _, spec, _ = workloads.make_inputs(workload, 0)
    before_insert = CoalescingQueue.__dict__["insert"]
    before_propagate = spec.propagate
    tracer = Tracer()
    layers.install(tracer, spec)
    assert CoalescingQueue.__dict__["insert"] is not before_insert
    tracer.uninstall()
    assert CoalescingQueue.__dict__["insert"] is before_insert
    assert spec.propagate is before_propagate
    assert "apply" not in vars(spec)


@pytest.mark.parametrize(
    "name, busy", [("pr-mp-durable", "ipc.messages"), ("pr-cycle", "xbar.sends")]
)
def test_traced_run_reproduces_untraced_digest_and_counts(name, busy):
    bench = run.Bench(WORKLOADS[name], 0)
    metrics = run.per_layer(bench, seconds=0.0)
    untraced, traced = bench.reps
    assert [untraced.problem, traced.problem] == [None, None]
    assert len(untraced.digests) == WORKLOADS[name].graphs
    assert traced.digests == untraced.digests[:1]
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics[busy] > 0
    for unit, value in untraced.units[0].items():
        assert metrics[unit] == value


def test_benchmark_json_lists_what_the_benchmark_prints():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.METRICS
    )
