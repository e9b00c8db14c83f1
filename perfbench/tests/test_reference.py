"""The reference checker rejects every corrupted answer it is shown."""

import random

import pytest

from perfbench import workloads
from perfbench.reference import (
    REL_TOL,
    ShadowState,
    Snapshot,
    compare,
    result_points,
    skyline,
)

from repro.core import LBC
from repro.datasets import select_query_points


@pytest.fixture(scope="module")
def case():
    workspace = workloads.build_workspace(
        "NA", workloads.SMALL.na_scale, "dijkstra"
    )
    queries = select_query_points(workspace.network, 3, seed=4)
    points = result_points(LBC().run(workspace, queries))
    shadow = ShadowState(Snapshot.of(workspace.network, workspace.objects))
    nodes = [q.node_id for q in queries]
    assert len(points) >= 3
    return workspace, shadow, nodes, points


def test_program_answer_matches_reference(case):
    _, shadow, nodes, points = case
    assert shadow.check(points, nodes, [0]) is None


def test_dropped_member_is_rejected(case):
    _, shadow, nodes, points = case
    assert "missing" in shadow.check(points[1:], nodes, [0])


def test_added_dominated_object_is_rejected(case):
    _, shadow, nodes, points = case
    expected, vectors = shadow.answer(0, nodes)
    dominated = min(set(vectors) - expected)
    corrupt = list(points) + [(dominated, vectors[dominated])]
    assert "extra" in shadow.check(corrupt, nodes, [0])


def test_vector_perturbed_beyond_tolerance_is_rejected(case):
    _, shadow, nodes, points = case
    object_id, vector = points[0]
    beyond = (vector[0] * (1 + 1000 * REL_TOL),) + vector[1:]
    within = (vector[0] * (1 + REL_TOL / 10),) + vector[1:]
    assert "vector" in shadow.check([(object_id, beyond)] + points[1:], nodes, [0])
    assert shadow.check([(object_id, within)] + points[1:], nodes, [0]) is None


def test_member_dominating_another_is_rejected():
    # Two incomparable reference vectors; the answer stays within the
    # tolerance of both, yet its first member dominates its second.
    expected = {1, 2}
    vectors = {1: (1.0, 2.0), 2: (1.0 + 1e-13, 2.0 - 1e-13)}
    assert compare([(1, vectors[1]), (2, vectors[2])], expected, vectors) is None
    torn = [(1, (1.0, 2.0)), (2, (1.0 + 1e-13, 2.0 + 1e-13))]
    assert "dominates" in compare(torn, expected, vectors)


def test_answer_must_match_a_state_it_could_observe(case):
    workspace, _, nodes, _ = case
    shadow = ShadowState(Snapshot.of(workspace.network, workspace.objects))
    before, vectors = shadow.answer(0, nodes)
    old = [(i, vectors[i]) for i in sorted(before)]
    # Lengthen every edge at the first query point: its distances change.
    for _, edge_id in workspace.network.neighbors(nodes[0]):
        shadow.reweight(edge_id, workspace.network.edge(edge_id).length * 1.5)
    last = shadow.version
    assert shadow.check(old, nodes, range(0, last + 1)) is None
    assert shadow.check(old, nodes, [last]) is not None


def test_skyline_matches_quadratic_definition():
    rng = random.Random(3)
    vectors = {
        i: tuple(float(rng.randrange(6)) for _ in range(3)) for i in range(60)
    }
    quadratic = {
        i
        for i, v in vectors.items()
        if not any(
            all(x <= y for x, y in zip(w, v)) and w != v
            for j, w in vectors.items()
            if j != i
        )
    }
    assert skyline(vectors) == quadratic
