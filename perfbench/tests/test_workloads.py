"""Small sizes of every workload run the same checks end to end."""

import json
import os
from dataclasses import replace

import pytest

from perfbench import workloads
from perfbench.workloads import SMALL

from repro.core import SkylinePoint

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def _names(section: str) -> set[str]:
    with open(BENCHMARK) as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_runs_checked_and_traced(name):
    outcome = workloads.WORKLOADS[name](seed=3, seconds=0.5, trace=True, size=SMALL)
    assert outcome.errors == [] and outcome.wrong == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert set(workloads.end_to_end(outcome)) == _names("end_to_end")
    gated, _ = workloads.per_layer(outcome)
    assert set(gated) == _names("per_layer")
    # Per query, the layer self times fit inside the measured time.
    assert outcome.tracer.roots
    assert workloads.trace_consistency(outcome) == []
    if name != "serve-mixed":
        measured = [s.seconds for s in outcome.traced_samples]
        roots = [r.duration_s for r in outcome.tracer.roots]
        assert all(r <= m for r, m in zip(roots, measured))


def test_cold_paper_counts_repeat_exactly():
    def counts(seconds):
        outcome = workloads.cold_paper(seed=5, seconds=seconds, trace=False, size=SMALL)
        per_query = [
            (s.algorithm, s.stats.total_pages, s.stats.nodes_settled)
            for s in outcome.samples
        ]
        return outcome, per_query

    one, first = counts(0.001)
    again, second = counts(0.001)
    longer, third = counts(2.5)
    # A longer run draws more rounds of new query sets; the rounds it
    # shares with a shorter run repeat their counts exactly.
    assert longer.attempted > one.attempted == again.attempted
    assert first == second == third[: len(first)]
    pages = workloads.end_to_end
    assert pages(one)["pages_per_query"] == pages(again)["pages_per_query"]


def _corrupt(kind):
    base = workloads.ALGORITHMS["LBC"]

    class Corrupt(base):
        def run(self, workspace, queries):
            result = super().run(workspace, queries)
            points = list(result.points)
            if kind == "drop":
                points = points[1:]
            elif kind == "perturb":
                first = points[0]
                vector = (first.vector[0] * 1.001,) + tuple(first.vector[1:])
                points[0] = replace(first, vector=vector)
            else:
                members = {p.object_id for p in points}
                obj = next(o for o in workspace.objects if o.object_id not in members)
                points.append(SkylinePoint(obj, workspace.engine.vector(queries, obj)))
            result.points = points
            return result

    return Corrupt


@pytest.mark.parametrize("kind", ["drop", "add-dominated", "perturb"])
def test_each_corruption_counts_as_failed(monkeypatch, kind):
    monkeypatch.setitem(workloads.ALGORITHMS, "LBC", _corrupt(kind))
    outcome = workloads.cold_paper(seed=5, seconds=0.001, trace=False, size=SMALL)
    lbc = sum(1 for s in outcome.samples if s.algorithm == "LBC")
    assert lbc > 0
    # Every LBC attempt of every round fails, and each is reported.
    assert outcome.failed == outcome.attempted // 3
    assert len(outcome.wrong) == lbc
