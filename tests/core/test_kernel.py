"""The drain kernel oracle: one Algorithm-1 path for the functional family.

With a single slice, ``sliced`` (either dispatch mode) and
``parallel-sliced`` drain exactly the rounds ``functional`` drains, through
the same kernel, so values, work and traffic agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro import algorithms
from repro.core import build_engine
from repro.graph import random_weights, rmat_graph

ALGORITHMS = ("pagerank", "sssp", "bfs", "cc", "adsorption")


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=121)


def _workload(graph, name):
    root = int(np.argmax(graph.out_degrees()))
    if name == "pagerank":
        return graph, algorithms.make_pagerank_delta()
    if name == "sssp":
        return random_weights(graph, seed=12), algorithms.make_sssp(root=root)
    if name == "bfs":
        return graph, algorithms.make_bfs(root=root)
    if name == "cc":
        spec = algorithms.make_connected_components()
        return algorithms.symmetrize(graph), spec
    return graph, algorithms.make_adsorption(graph)


def _observed(engine, workload, options):
    raw = build_engine(engine, workload, options).run().raw
    if engine == "functional":
        processed, rounds = raw.total_events_processed, raw.num_rounds
    elif engine == "parallel-sliced":
        processed = sum(
            sum(r.events_processed_per_slice) for r in raw.super_rounds
        )
        rounds = raw.num_super_rounds
    else:
        processed = sum(a.events_processed for a in raw.activations)
        rounds = raw.total_rounds
    return {
        "values": raw.values.tobytes(),
        "events_processed": processed,
        "rounds": rounds,
        "traffic": dataclasses.asdict(raw.traffic),
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_slice_engines_match_functional(graph, algorithm):
    workload = _workload(graph, algorithm)
    reference = _observed("functional", workload, {})
    assert reference["events_processed"] > 0
    assert reference["traffic"]["edge_bytes_fetched"] > 0
    for engine, options in (
        ("sliced", {"num_slices": 1, "dispatch": "barrier"}),
        ("sliced", {"num_slices": 1, "dispatch": "chained"}),
        ("parallel-sliced", {"num_slices": 1}),
    ):
        observed = _observed(engine, workload, options)
        for key, expected in reference.items():
            assert observed[key] == expected, (engine, options, key)
