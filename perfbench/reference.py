"""An independent skyline reference for checking every answer.

Nothing here uses ``repro.skyline``, ``repro.columnar`` or the
program's distance code.  Shortest paths come from ``networkx`` over a
multigraph built from :meth:`RoadNetwork.edges`; the distance from a
junction ``q`` to an object at ``offset`` along edge ``(u, v)`` is
``min(d(q, u) + offset, d(q, v) + length - offset)``; the skyline is
found by pairwise tuple dominance.

:class:`ShadowState` mirrors the network and object set through a
sequence of writes, so an answer from a concurrent service can be
checked against every state that existed while it was in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Relative tolerance on every vector component, fixed before any run:
#: shortest-path sums taken in another order may differ in the last bits.
REL_TOL = 1e-9


def dominates(a, b) -> bool:
    """``a`` dominates ``b``: no worse anywhere, strictly better somewhere."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def skyline(vectors: dict[int, tuple[float, ...]]) -> set[int]:
    """Ids whose vector no other vector dominates.

    Pairwise dominance tests in ascending order of component sum: a
    dominator's sum is never larger than the dominated vector's sum, and
    dominance is transitive, so testing against the members kept so far
    gives the same set as testing against every other vector.
    """
    order = sorted(vectors, key=lambda i: (sum(vectors[i]), i))
    kept: list[tuple[float, ...]] = []
    ids: set[int] = set()
    for object_id in order:
        vector = vectors[object_id]
        if any(dominates(other, vector) for other in kept):
            continue
        kept.append(vector)
        ids.add(object_id)
    return ids


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def compare(points, expected: set[int], vectors: dict[int, tuple]) -> str | None:
    """Why the answer ``points`` is wrong, or ``None`` when it is right.

    ``points`` is a sequence of ``(object_id, vector)``; ``expected`` the
    reference skyline ids; ``vectors`` the reference vectors of every
    object.
    """
    got = [object_id for object_id, _ in points]
    if len(got) != len(set(got)):
        return "duplicate object ids in the answer"
    if set(got) != expected:
        missing = sorted(expected - set(got))[:5]
        extra = sorted(set(got) - expected)[:5]
        return f"skyline ids differ: missing {missing}, extra {extra}"
    for object_id, vector in points:
        reference = vectors[object_id]
        if len(vector) != len(reference) or not all(
            _close(a, b) for a, b in zip(vector, reference)
        ):
            return f"object {object_id}: vector {vector} != reference {reference}"
    returned = [vector for _, vector in points]
    for i, a in enumerate(returned):
        for j, b in enumerate(returned):
            if i != j and dominates(a, b):
                return f"answer member {got[i]} dominates member {got[j]}"
    return None


@dataclass(frozen=True)
class Placement:
    """Where an object sits: a junction, or an offset along an edge."""

    node: int | None
    edge: int | None
    offset: float


def placement_of(location) -> Placement:
    if location.node_id is not None:
        return Placement(location.node_id, None, 0.0)
    return Placement(None, location.edge_id, location.offset)


@dataclass(frozen=True)
class Snapshot:
    """Plain copy of a network and object set, taken before any write."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int, float], ...]
    objects: tuple[tuple[int, Placement], ...]

    @classmethod
    def of(cls, network, objects) -> "Snapshot":
        return cls(
            nodes=tuple(network.node_ids()),
            edges=tuple((e.edge_id, e.u, e.v, e.length) for e in network.edges()),
            objects=tuple(
                (obj.object_id, placement_of(obj.location)) for obj in objects
            ),
        )


class ShadowState:
    """Network lengths and objects as a list of versions.

    Version ``j`` is the state after the first ``j`` writes.  Writes are
    recorded with :meth:`reweight`, :meth:`add` and :meth:`remove` in the
    order the program applied them.
    """

    def __init__(self, snapshot: "Snapshot") -> None:
        import networkx as nx

        self.graph = nx.MultiGraph()
        self.ends: dict[int, tuple[int, int]] = {}
        self.base_length: dict[int, float] = {}
        self.graph.add_nodes_from(snapshot.nodes)
        for edge_id, u, v, length in snapshot.edges:
            self.graph.add_edge(u, v, key=edge_id, weight=length)
            self.ends[edge_id] = (u, v)
            self.base_length[edge_id] = length
        base_objects = dict(snapshot.objects)
        # Per version: edge-length overrides and the object placements.
        self._lengths: list[dict[int, float]] = [{}]
        self._objects: list[dict[int, Placement]] = [base_objects]
        # Versions with equal edge lengths share node distances: the key
        # is the lengths themselves, so a reweight that restores an
        # earlier state (the same write replayed) finds its distances.
        self._length_state: list[tuple] = [()]
        self._applied: int | None = None
        self._cache: dict[tuple[int, int], dict[int, float]] = {}
        self._vector_cache: dict[tuple[int, int], dict[int, float]] = {}
        self._answers: dict[tuple, tuple[set[int], dict[int, tuple]]] = {}

    @property
    def version(self) -> int:
        return len(self._objects) - 1

    def reweight(self, edge_id: int, length: float) -> None:
        lengths = dict(self._lengths[-1])
        lengths[edge_id] = length
        self._lengths.append(lengths)
        self._objects.append(self._objects[-1])
        self._length_state.append(tuple(sorted(lengths.items())))

    def add(self, object_id: int, location) -> None:
        objects = dict(self._objects[-1])
        objects[object_id] = placement_of(location)
        self._lengths.append(self._lengths[-1])
        self._objects.append(objects)
        self._length_state.append(self._length_state[-1])

    def remove(self, object_id: int) -> None:
        objects = dict(self._objects[-1])
        del objects[object_id]
        self._lengths.append(self._lengths[-1])
        self._objects.append(objects)
        self._length_state.append(self._length_state[-1])

    # -- distances ---------------------------------------------------------
    def _length(self, version: int, edge_id: int) -> float:
        return self._lengths[version].get(edge_id, self.base_length[edge_id])

    def _apply(self, version: int) -> None:
        if self._applied == version:
            return
        touched = set(self._lengths[version])
        if self._applied is not None:
            touched |= set(self._lengths[self._applied])
        for edge_id in touched:
            u, v = self.ends[edge_id]
            self.graph[u][v][edge_id]["weight"] = self._length(version, edge_id)
        self._applied = version

    def node_distances(self, version: int, source: int) -> dict[int, float]:
        key = (self._length_state[version], source)
        cached = self._cache.get(key)
        if cached is None:
            import networkx as nx

            self._apply(version)
            cached = nx.single_source_dijkstra_path_length(
                self.graph, source, weight="weight"
            )
            self._cache[key] = cached
        return cached

    def object_distances(self, version: int, source: int) -> dict[int, float]:
        """Distance from junction ``source`` to every object of ``version``."""
        key = (version, source)
        cached = self._vector_cache.get(key)
        if cached is not None:
            return cached
        dist = self.node_distances(version, source)
        inf = math.inf
        out: dict[int, float] = {}
        for object_id, place in self._objects[version].items():
            if place.node is not None:
                out[object_id] = dist.get(place.node, inf)
                continue
            u, v = self.ends[place.edge]
            length = self._length(version, place.edge)
            out[object_id] = min(
                dist.get(u, inf) + place.offset,
                dist.get(v, inf) + (length - place.offset),
            )
        self._vector_cache[key] = out
        return out

    def vectors(self, version: int, sources: list[int]) -> dict[int, tuple]:
        columns = [self.object_distances(version, s) for s in sources]
        return {
            object_id: tuple(column[object_id] for column in columns)
            for object_id in self._objects[version]
        }

    def answer(self, version: int, sources: list[int]):
        """``(skyline ids, vectors)`` for junction query points at ``version``."""
        key = (version, tuple(sources))
        cached = self._answers.get(key)
        if cached is None:
            vectors = self.vectors(version, sources)
            cached = self._answers[key] = (skyline(vectors), vectors)
        return cached

    def check(self, points, sources: list[int], versions) -> str | None:
        """``None`` when ``points`` equals the reference at one of
        ``versions``, otherwise the reason it matched none of them."""
        reason = None
        for version in versions:
            expected, vectors = self.answer(version, sources)
            reason = compare(points, expected, vectors)
            if reason is None:
                return None
        return reason


def result_points(result) -> list[tuple[int, tuple[float, ...]]]:
    """``(object_id, vector)`` pairs of a program answer."""
    return [(point.object_id, tuple(point.vector)) for point in result.points]
