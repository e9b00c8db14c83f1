"""The three benchmark workloads.

Each workload builds its inputs from the seed, loads the program only
through its public API (``repro.datasets``, ``repro.core``,
``repro.service``), times every operation from outside, and checks
every answer against :mod:`perfbench.reference`.  The network and the
object set are fixed (preset seed 7, object seed 1, as in the paper
experiments of ``repro.experiments``), and so are the query windows and
the venue pools; the seed draws the query points, the query sets and
the writes.

A run is whole rounds of the same kinds of operation: every round
draws new query sets in the same windows or pools (and, on
``serve-mixed``, new client scripts of the same shape), as many rounds
as fit in ``seconds`` at the nominal round length (:func:`round_count`)
and at least :data:`MIN_ROUNDS`.  Each operation runs once, and the
latency figures are medians over all of them.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from perfbench.layers import LayerTracer, install
from perfbench.reference import ShadowState, Snapshot, result_points

from repro.core import CE, EDC, LBC, Workspace
from repro.datasets import build_preset, extract_objects
from repro.network import SpatialObject

ALGORITHMS = {"CE": CE, "EDC": EDC, "LBC": LBC}
clock = time.process_time
"""The clock of every timed figure: CPU seconds of this process.

On a shared host the process waits for a core whenever its neighbours
are busy, and wall time measures those waits more than the program: a
fixed CPU loop took 26 to 180 ms of wall time and 24 to 36 ms of CPU
time over the same minute.  The process clock advances only while a
thread of the process runs, so it still counts the time a request waits
behind another one (queue, locks, the service's other requests) and
leaves out only the time the whole process was idle or descheduled
(of the service, its 2 ms batch window)."""
MIN_ROUNDS = 3
"""``hot-oracle`` spends its first round filling the warm state."""
QUERY_MIX = (2, 4, 4, 8)
"""|Q| of the query sets drawn per window: half of them at |Q| = 4, so the
median and the 90th percentile of the latencies fall inside one |Q|
group each rather than in the gap between two."""
OMEGA = 0.5
NETWORK_SEED = 7
OBJECT_SEED = 1
VENUE_SEED = 0
VENUES_PER_POOL = 8
CLIENTS = 2
WORKERS = 2
"""``serve-mixed``: closed-loop clients and service workers, one per core."""
PAGE_SIZE = 1024
BUFFER_BYTES = 8 * 1024
"""Eight 1 KiB frames per pool.  The network stores of the networks
below have 34 (NA) and 58 (AU) pages, four to seven times their pool,
so every workload reads pages past its buffer pools, as the paper's
full-size networks do past a 256 KiB buffer."""


@dataclass(frozen=True)
class Size:
    """How much work one run does; :data:`FULL` is the benchmark."""

    na_scale: float = 0.005
    au_scale: float = 0.03
    setups: int = 11
    cold_grid: int = 5
    venue_grid: int = 4
    reads_per_round: int = 19
    write_rounds: int = 6
    reweight_edges: int = 16
    cold_round_s: float = 6.8
    hot_round_s: float = 2.2
    serve_phase_s: float = 8.0
    """Nominal process time of a round (a phase of ``serve-mixed``) on
    the machine the benchmark was tuned on; see :func:`round_count`."""


FULL = Size()
SMALL = Size(
    na_scale=0.0025,
    au_scale=0.01,
    setups=2,
    cold_grid=2,
    venue_grid=2,
    reads_per_round=5,
    write_rounds=3,
    reweight_edges=4,
    cold_round_s=0.6,
    hot_round_s=0.3,
    serve_phase_s=0.25,
)


@dataclass
class Sample:
    """One timed read: algorithm, latency and the counters it reported."""

    algorithm: str
    seconds: float
    stats: object
    dominance_checks: int


@dataclass
class Outcome:
    """What a run measured, before it is turned into metrics."""

    setup_s: float
    measured_s: float = 0.0
    """Process seconds of the timed rounds (set-ups between them excluded)."""
    rate: float = 0.0
    """Completed reads per second: for one closed-loop caller, over the
    sum of its latencies; for the service, over the timed phases."""
    samples: list[Sample] = field(default_factory=list)
    mutations_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    """Operations that raised: counted as failed."""
    wrong: list[str] = field(default_factory=list)
    """Answers that match no reference: failed, and the run is not correct."""
    peak_rss_mib: float = 0.0
    tracer: LayerTracer | None = None
    traced_samples: list[Sample] = field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0
    traced_ops: int = 0
    untraced_ops: int = 0
    edge_writes_traced: int = 0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build_workspace(preset: str, scale: float, backend: str) -> Workspace:
    """Network, objects, workspace and, for an oracle backend, its index."""
    network = build_preset(preset, scale=scale, seed=NETWORK_SEED)
    objects = extract_objects(network, omega=OMEGA, seed=OBJECT_SEED)
    workspace = Workspace.build(
        network,
        objects,
        page_size=PAGE_SIZE,
        buffer_bytes=BUFFER_BYTES,
        distance_backend=backend,
    )
    workspace.engine.ensure_oracle()
    return workspace


class SetupClock:
    """Times set-ups spread over the run, not only before it.

    ``setup_s`` is the median of all of them.  Set-ups taken in one burst
    before the run all fall into one phase of a shared machine, and
    moved by 30 % between two sets of runs whose query figures moved by
    a few per cent; spread between the rounds, they meet the phases the
    queries meet.
    """

    BEFORE = 3

    def __init__(self, preset: str, scale: float, backend: str, size: Size):
        self.args = (preset, scale, backend)
        self.total = size.setups
        self.times: list[float] = []

    def build(self) -> Workspace:
        gc.collect()
        started = clock()
        workspace = build_workspace(*self.args)
        self.times.append(clock() - started)
        return workspace

    def first(self) -> Workspace:
        """:data:`BEFORE` set-ups; the last one is the workspace to use."""
        for _ in range(self.BEFORE - 1):
            self.build()
        return self.build()

    def between(self, rounds: int) -> None:
        """This round's share of the remaining set-ups (discarded)."""
        for _ in range(math.ceil((self.total - self.BEFORE) / rounds)):
            self.build()

    def median(self) -> float:
        return statistics.median(self.times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_count(seconds: float, nominal_s: float) -> int:
    """Rounds for a run of ``seconds``, from the nominal round length.

    The count follows from the arguments, not from the clock, so every
    run of one length and seed draws the same operations;
    :func:`rounds` cuts it short only on a host so busy that the run
    would overstay its length by far.
    """
    return max(MIN_ROUNDS, round(seconds / nominal_s))


WALL_LIMIT = 1.25
"""A run starts no round after ``WALL_LIMIT * seconds`` of wall time."""


def rounds(seconds: float, nominal_s: float):
    """Yield the index of each round to run (see :func:`round_count`).

    The count is in process time; while the host lends the process less
    than a core, wall time runs ahead of it, and past the wall limit
    (after :data:`MIN_ROUNDS`) no further round starts.
    """
    started = time.perf_counter()
    for index in range(round_count(seconds, nominal_s)):
        late = time.perf_counter() - started > WALL_LIMIT * seconds
        if index >= MIN_ROUNDS and late:
            return
        yield index


def _dominance_checks(result) -> int:
    return int(result.trace.totals().get("dominance_checks", 0))


def _node_ids(locations) -> list[int]:
    return [location.node_id for location in locations]


# ---------------------------------------------------------------------------
# Direct workloads: cold-paper and hot-oracle
# ---------------------------------------------------------------------------


def _play(workspace, ops, cold, outcome, answers, run=None):
    """Run every op once; yields a :class:`Sample` for each that returned.

    ``cold`` empties every buffer pool and the engine before each query,
    as the paper measures.  ``run`` wraps the algorithm call (the traced
    round makes it a root span); the latency is timed around it.  Every
    answer goes to ``answers`` as ``(algorithm, query nodes, points)``.
    """
    for name, locations in ops:
        algorithm = ALGORITHMS[name]()
        call = functools.partial(algorithm.run, workspace, locations)
        if cold:
            workspace.reset_io(cold=True)
        outcome.attempted += 1
        t0 = clock()
        try:
            result = run(call, name) if run else call()
        except Exception as exc:  # counted, and the run goes on
            outcome.failed += 1
            outcome.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - t0
        answers.append((name, _node_ids(locations), tuple(result_points(result))))
        yield Sample(name, elapsed, result.stats, _dominance_checks(result))


def _trace_direct(workspace, ops, cold: bool, outcome: Outcome, answers):
    """The last round once more with layer spans; one root span per query."""
    tracer = LayerTracer()

    def traced(call, name):
        return tracer.root(f"query.{name}", call, meta={"algorithm": name})[0]

    installation = install(tracer)
    try:
        started = clock()
        outcome.traced_samples = list(
            _play(workspace, ops, cold, outcome, answers, traced)
        )
        outcome.traced_s = clock() - started
        outcome.traced_ops = len(ops)
    finally:
        installation.restore()
    outcome.tracer = tracer


def _check_direct(workspace, answers, outcome: Outcome) -> None:
    """Every answer against the reference; each wrong one is a failure."""
    shadow = ShadowState(Snapshot.of(workspace.network, workspace.objects))
    for name, nodes, points in answers:
        reason = shadow.check(points, nodes, [0])
        if reason is not None:
            outcome.failed += 1
            outcome.wrong.append(f"{name} at {nodes}: {reason}")


def _direct(workspace, setups, draw, seconds, nominal_s, trace, cold, warm_up):
    """Rounds of the ops ``draw()`` returns, each op once, then the check.

    With ``warm_up`` the first round fills the warm state and is not
    timed.  An op's latency is its one run: each round draws new query
    sets, and a median over many sets moves less with the seed, and with
    the slow and fast stretches of a shared host, than a fastest of a few
    repeats of fewer sets did.
    """
    outcome = Outcome(setup_s=0.0)
    answers: list[tuple] = []
    count = round_count(seconds, nominal_s)
    ops: list[tuple] = []
    for index in rounds(seconds, nominal_s):
        ops = draw()
        started = clock()
        samples = list(_play(workspace, ops, cold, outcome, answers))
        elapsed = clock() - started
        if not (warm_up and index == 0):
            outcome.samples.extend(samples)
            outcome.measured_s += elapsed
        outcome.untraced_s = elapsed
        outcome.untraced_ops = len(ops)
        setups.between(count)
    outcome.setup_s = setups.median()
    outcome.rate = len(outcome.samples) / math.fsum(
        s.seconds for s in outcome.samples
    )
    if trace:
        _trace_direct(workspace, ops, cold, outcome, answers)
    outcome.peak_rss_mib = peak_rss_mib()
    _check_direct(workspace, answers, outcome)
    return outcome


def grid_windows(network, side: int, count: int) -> list[tuple[int, list[int]]]:
    """Fixed query windows: ``(anchor, junctions)`` for a ``side`` x ``side`` grid.

    The anchor of a window is the junction nearest a grid cell's centre
    (cells whose nearest junction anchors another cell are skipped); the
    window is the paper's 10 % region around it (Section 6.1, as
    :func:`repro.datasets.select_query_points` draws it), widened until
    it holds ``count`` junctions.  The windows do not depend on the seed:
    like the templates of a query benchmark, they fix where the queries
    go, and the seed draws the query points inside them.  A seed then
    moves the figures by the spread within a window, not by which parts
    of the network it happened to visit.
    """
    box = network.mbr()
    points = {node: network.node_point(node) for node in sorted(network.node_ids())}
    windows = []
    anchors = set()
    for i in range(side):
        for j in range(side):
            cx = box.min_x + (i + 0.5) * box.width / side
            cy = box.min_y + (j + 0.5) * box.height / side
            anchor = min(
                points,
                key=lambda n: (points[n].x - cx) ** 2 + (points[n].y - cy) ** 2,
            )
            if anchor in anchors:
                continue
            anchors.add(anchor)
            a = points[anchor]
            fraction = 0.10
            while True:
                half_x = box.width * fraction**0.5 / 2
                half_y = box.height * fraction**0.5 / 2
                inside = [
                    node
                    for node, p in points.items()
                    if abs(p.x - a.x) <= half_x and abs(p.y - a.y) <= half_y
                ]
                if len(inside) >= count or fraction >= 1.0:
                    break
                fraction = min(1.0, fraction * 2.0)
            windows.append((anchor, inside))
    return windows


def draw_points(network, rng: random.Random, window, count: int) -> list[int]:
    """``count`` junctions of ``window``, one from each angular sector
    around its anchor, so a set's points spread over the whole window."""
    anchor, inside = window
    a = network.node_point(anchor)
    chosen: list[int] = []
    for sector in range(count):
        low = 2 * math.pi * sector / count
        high = 2 * math.pi * (sector + 1) / count
        candidates = [
            node
            for node in inside
            if node not in chosen
            and low
            <= math.atan2(
                network.node_point(node).y - a.y, network.node_point(node).x - a.x
            )
            % (2 * math.pi)
            < high
        ]
        if not candidates:
            candidates = [node for node in inside if node not in chosen]
        chosen.append(rng.choice(candidates))
    return chosen


def _locations(network, nodes) -> list:
    return [network.location_at_node(node) for node in nodes]


def cold_paper_round(network, windows, rng: random.Random):
    """Per window, one query set for each |Q| of :data:`QUERY_MIX`; CE,
    EDC and LBC each run on every set.  ``windows`` maps |Q| to the
    windows of :func:`grid_windows`."""
    ops = []
    for count in QUERY_MIX:
        for window in windows[count]:
            locations = _locations(network, draw_points(network, rng, window, count))
            ops.extend((name, locations) for name in ALGORITHMS)
    return ops


def cold_paper(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Outcome:
    setups = SetupClock("NA", size.na_scale, "dijkstra", size)
    workspace = setups.first()
    network = workspace.network
    windows = {c: grid_windows(network, size.cold_grid, c) for c in set(QUERY_MIX)}
    rng = random.Random(seed)
    return _direct(
        workspace,
        setups,
        lambda: cold_paper_round(network, windows, rng),
        seconds,
        size.cold_round_s,
        trace,
        cold=True,
        warm_up=False,
    )


def venue_pools(network, size: Size) -> list[list]:
    """Popular venues: a few junctions spread over each window of a small
    grid.  They are a property of the city, not of a run, so they are
    drawn once with :data:`VENUE_SEED`; the run's seed draws which venues
    each query uses."""
    rng = random.Random(VENUE_SEED)
    return [
        _locations(
            network, draw_points(network, rng, window, VENUES_PER_POOL)
        )
        for window in grid_windows(network, size.venue_grid, VENUES_PER_POOL)
    ]


def hot_oracle_round(pools, rng: random.Random):
    """Per venue pool, one query set for each |Q| of :data:`QUERY_MIX`."""
    ops = []
    for pool in pools:
        for count in QUERY_MIX:
            locations = rng.sample(pool, count)
            ops.extend((name, locations) for name in ALGORITHMS)
    return ops


def hot_oracle(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Outcome:
    """Warm state, never reset: the first round fills the memo, the
    wavefront pool and the buffers and is not timed."""
    setups = SetupClock("NA", size.na_scale, "hublabel", size)
    workspace = setups.first()
    pools = venue_pools(workspace.network, size)
    rng = random.Random(seed)
    return _direct(
        workspace,
        setups,
        lambda: hot_oracle_round(pools, rng),
        seconds,
        size.hot_round_s,
        trace,
        cold=False,
        warm_up=True,
    )


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class _Writes:
    """Shared write state of the clients; one write at a time.

    The benchmark's own lock serialises the writes, so the order in
    which they are recorded in the shadow state is the order the
    program applied them.  ``started`` and ``committed`` count writes
    entered and finished, which bound the versions a read can see.
    """

    def __init__(self, workspace, rng: random.Random, size: Size) -> None:
        network = workspace.network
        edge_ids = sorted(network.edge_ids())
        self.reweightable = rng.sample(edge_ids, size.reweight_edges)
        blocked = set(self.reweightable)
        # Objects go on other edges only, so a reweight never has to fit
        # an object the benchmark placed.
        self.add_edges = [e for e in edge_ids if e not in blocked]
        self.base_length = {e: network.edge(e).length for e in self.reweightable}
        self.next_id = max(obj.object_id for obj in workspace.objects) + 1
        self.lock = threading.Lock()
        self.started = 0
        self.committed = 0
        self.log: list[tuple] = []
        self.edge_writes = 0


WRITE_KINDS = 3
"""The writes of a script cycle through reweight, add, and the removal
of the object added, so the object set is back to its start at the end
of every phase."""
SERVE_Q = 4
"""|Q| of every ``serve-mixed`` read.  A read's latency there also holds
whatever the other client ran beside it, which spreads the latencies of
one algorithm widely; a |Q| mix on top left so few of ~40 reads per
algorithm near the median that it moved by a quarter between runs."""


def client_script(index, network, pools, writes, size, seed, phase) -> list[tuple]:
    """The steps one client plays in one phase, drawn from the seed.

    ``write_rounds`` rounds of ``reads_per_round`` reads and one write
    (kinds in the order of :data:`WRITE_KINDS`), the writes of client
    ``i`` moved ``i / CLIENTS`` of a round earlier so that each write
    meets a read of the other client.  The
    algorithm and venue pool of a read follow from its step: at a step
    both clients run one algorithm, on one pool at even steps (the two
    requests share query points, so the service's conflict isolation
    runs them one after the other) and on pools half the grid apart at
    odd steps (two workers run at once).  Two reads side by side split
    the process between them as the host's scheduling goes; with one
    algorithm on both sides that split cannot move time from one
    algorithm's figures to another's, as it did with different ones
    (between two sets of runs, ``ce_query_ms_p50`` fell by a fifth while
    ``lbc_query_ms_p50`` rose).  |Q| is :data:`SERVE_Q`.  The seed draws
    the venues of each read, the reweighted edges and lengths and where
    objects are added.
    """
    rng = random.Random(f"{seed}/{phase}/{index}")
    period = size.reads_per_round + 1
    # The write kind at each step (None: a read), moved earlier by
    # ``shift`` steps: the reads cut off the front go to the end, so the
    # writes keep their order.
    kinds = [
        step // period % WRITE_KINDS if step % period == period - 1 else None
        for step in range(size.write_rounds * period)
    ]
    shift = index * period // CLIENTS
    kinds = kinds[shift:] + kinds[:shift]
    script: list[tuple] = []
    for step, kind in enumerate(kinds):
        if kind is None:
            name = tuple(ALGORITHMS)[step % len(ALGORITHMS)]
            apart = (step % 2) * index * len(pools) // CLIENTS
            pool = pools[(step + apart) % len(pools)]
            script.append(("read", name, rng.sample(pool, SERVE_Q)))
        elif kind == 0:
            edge_id = rng.choice(writes.reweightable)
            length = writes.base_length[edge_id] * rng.uniform(1.0, 1.6)
            script.append(("reweight", edge_id, length))
        elif kind == 1:
            edge = network.edge(rng.choice(writes.add_edges))
            offset = edge.length * rng.uniform(0.001, 0.999)
            script.append(("add", network.location_on_edge(edge.edge_id, offset)))
        else:
            script.append(("remove",))
    return script


class _Client(threading.Thread):
    """One closed-loop caller: it waits for every answer before the next op.

    The clients go in lock step: at each step every client sends one
    request, and the next step starts when all have their answers.  Two
    free-running clients pair each read with whichever request of the
    other happened to run beside it, and that pairing, not the program,
    set the medians of a run; in lock step the script fixes which
    requests run side by side.
    """

    def __init__(self, index, service, script, writes, barrier):
        super().__init__(name=f"bench-client-{index}", daemon=True)
        self.service = service
        self.script = script
        self.writes = writes
        self.barrier = barrier
        self.reads: list[tuple] = []  # (op, name, nodes, lo, hi, sample, points)
        self.mutations: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.added: list[int] = []
        self.finished = False

    def run(self) -> None:
        try:
            for op, step in enumerate(self.script):
                self.barrier.wait()
                if step[0] == "read":
                    self._read(op, step[1], step[2])
                else:
                    self._write(op, step)
        except threading.BrokenBarrierError:
            return
        self.finished = True

    def _read(self, op: int, name: str, locations) -> None:
        writes = self.writes
        self.attempted += 1
        lo = writes.committed
        t0 = clock()
        try:
            result = self.service.query(name, locations)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        elapsed = clock() - t0
        hi = writes.started
        sample = Sample(name, elapsed, result.stats, _dominance_checks(result))
        points = tuple(result_points(result))
        self.reads.append((op, name, _node_ids(locations), lo, hi, sample, points))

    def _write(self, op: int, step: tuple) -> None:
        writes = self.writes
        self.attempted += 1
        with writes.lock:
            writes.started += 1
            t0 = clock()
            try:
                record = self._apply(step)
            except Exception as exc:
                writes.started -= 1
                self.failed += 1
                self.errors.append(f"write: {type(exc).__name__}: {exc}")
                return
            self.mutations.append((op, clock() - t0))
            writes.log.append(record)
            writes.committed += 1

    def _apply(self, step: tuple) -> tuple:
        writes = self.writes
        if step[0] == "reweight":
            _, edge_id, length = step
            self.service.update_edge_length(edge_id, length)
            writes.edge_writes += 1
            return step
        if step[0] == "add":
            obj = SpatialObject(object_id=writes.next_id, location=step[1])
            writes.next_id += 1
            self.service.add_object(obj)
            self.added.append(obj.object_id)
            return ("add", obj.object_id, step[1])
        object_id = self.added.pop()
        self.service.remove_object(object_id)
        return ("remove", object_id)


def _flat(phases):
    return [client for clients in phases for client in clients]


def _serve_phase(service, scripts, writes, outcome):
    """Every client plays its script once; returns (CPU seconds, clients)."""
    barrier = threading.Barrier(len(scripts), timeout=60.0)
    clients = [
        _Client(i, service, script, writes, barrier)
        for i, script in enumerate(scripts)
    ]
    started = clock()
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=150.0)
    for client in clients:
        if client.is_alive() or not client.finished:
            barrier.abort()
            raise RuntimeError(f"{client.name} did not finish")
    busy = clock() - started
    for client in clients:
        outcome.attempted += client.attempted
        outcome.failed += client.failed
        outcome.errors.extend(client.errors)
    return busy, clients


def serve_mixed(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Outcome:
    """Phases of client scripts against one running service.

    Every phase draws new scripts of the same shape, and every read of
    every phase is a sample.  A read waits for the service as a whole
    (queue, batch, locks, the write or read of the other client), so its
    latency counts what ran beside it.
    """
    from repro.service import QueryService

    setups = SetupClock("AU", size.au_scale, "hublabel", size)
    workspace = setups.first()
    network = workspace.network
    outcome = Outcome(setup_s=0.0)
    snapshot = Snapshot.of(network, workspace.objects)
    pools = venue_pools(network, size)
    writes = _Writes(workspace, random.Random(seed), size)

    def phase(service, index):
        scripts = [
            client_script(i, network, pools, writes, size, seed, index)
            for i in range(CLIENTS)
        ]
        return _serve_phase(service, scripts, writes, outcome)

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, f"serve-mixed-events-{os.getpid()}.jsonl")
    phases: list[list[_Client]] = []
    try:
        with QueryService(
            workspace, workers=WORKERS, event_log_path=events_path
        ) as service:
            count = round_count(seconds, size.serve_phase_s)
            for index in rounds(seconds, size.serve_phase_s):
                busy, clients = phase(service, index)
                phases.append(clients)
                outcome.measured_s += busy
                outcome.untraced_s = busy
                outcome.untraced_ops = sum(c.attempted for c in clients)
                setups.between(count)
            outcome.setup_s = setups.median()
            outcome.samples = [r[5] for c in _flat(phases) for r in c.reads]
            outcome.mutations_s = [m for c in _flat(phases) for _, m in c.mutations]
            outcome.rate = len(outcome.samples) / outcome.measured_s
            if trace:
                tracer = LayerTracer()
                installation = install(tracer)
                edge_writes_before = writes.edge_writes
                try:
                    busy, clients = phase(service, len(phases))
                finally:
                    installation.restore()
                phases.append(clients)
                outcome.tracer = tracer
                outcome.traced_s = busy
                outcome.traced_ops = sum(c.attempted for c in clients)
                outcome.traced_samples = [r[5] for c in clients for r in c.reads]
                outcome.edge_writes_traced = writes.edge_writes - edge_writes_before
            outcome.peak_rss_mib = peak_rss_mib()
    finally:
        for name in os.listdir(out_dir):
            if name.startswith(f"serve-mixed-events-{os.getpid()}"):
                os.remove(os.path.join(out_dir, name))

    shadow = ShadowState(snapshot)
    for record in writes.log:
        if record[0] == "reweight":
            shadow.reweight(record[1], record[2])
        elif record[0] == "add":
            shadow.add(record[1], record[2])
        else:
            shadow.remove(record[1])
    for clients in phases:
        for client in clients:
            for _, name, nodes, lo, hi, _, points in client.reads:
                reason = shadow.check(points, nodes, range(lo, hi + 1))
                if reason is not None:
                    outcome.failed += 1
                    outcome.wrong.append(f"{name} (versions {lo}..{hi}): {reason}")
    return outcome


WORKLOADS = {
    "cold-paper": cold_paper,
    "hot-oracle": hot_oracle,
    "serve-mixed": serve_mixed,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def _p90_ms(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] * 1e3


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    samples = outcome.samples
    times = [s.seconds for s in samples]
    metrics = {
        "setup_s": (outcome.setup_s, "s"),
        "queries_per_s": (outcome.rate, "1/s"),
        "query_ms_p50": (_median_ms(times), "ms"),
        "query_ms_p90": (_p90_ms(times), "ms"),
    }
    for name in ALGORITHMS:
        own = [s.seconds for s in samples if s.algorithm == name]
        metrics[f"{name.lower()}_query_ms_p50"] = (_median_ms(own), "ms")
    metrics["pages_per_query"] = (
        statistics.fmean(s.stats.total_pages for s in samples),
        "pages",
    )
    metrics["peak_rss_mib"] = (outcome.peak_rss_mib, "MiB")
    return metrics


def workload_only(outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Figures that exist on some workloads only (printed, not gated)."""
    out = {}
    if outcome.mutations_s:
        out["mutation_ms_p50"] = (_median_ms(outcome.mutations_s), "ms")
    return out


def _per_query(total: float, queries: int) -> float:
    return total / queries if queries else 0.0


def per_layer(outcome: Outcome) -> tuple[dict, dict]:
    """``(gated, extra)``: per-layer metrics of the traced phase.

    ``gated`` holds the metrics every workload reports; ``extra`` the
    self times of layers that only some workloads enter, which read 0
    elsewhere.
    """
    tracer = outcome.tracer
    samples = outcome.traced_samples
    queries = len(samples)
    totals = tracer.layer_totals()

    def self_ms(layer: str) -> float:
        return _per_query(totals.get(layer, (0.0, 0))[0] * 1e3, queries)

    def stat_sum(name: str) -> float:
        return float(sum(getattr(s.stats, name) for s in samples))

    candidates = stat_sum("candidate_count")
    hits = stat_sum("engine_hits")
    lookups = hits + stat_sum("engine_misses")
    fetches = tracer.counters.get("fetches", 0)
    misses = tracer.counters.get("misses", 0)
    plans = tracer.durations.get("service", [])
    plan_roots = [r for r in tracer.roots if r.name == "execute_plan"]
    builds = tracer.durations.get("oracle_build", [])
    gated = {
        "core.self_ms_per_query": (self_ms("core"), "ms"),
        "core.candidates_per_query": (_per_query(candidates, queries), "count"),
        "core.skyline_per_candidate": (
            stat_sum("skyline_count") / candidates if candidates else 0.0,
            "ratio",
        ),
        "columnar.self_ms_per_query": (self_ms("columnar"), "ms"),
        "columnar.dominance_checks_per_query": (
            _per_query(sum(s.dominance_checks for s in samples), queries),
            "count",
        ),
        "skyline.self_ms_per_query": (self_ms("skyline"), "ms"),
        "engine.self_ms_per_query": (self_ms("engine"), "ms"),
        "engine.distance_requests_per_query": (_per_query(lookups, queries), "count"),
        "engine.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "network.self_ms_per_query": (self_ms("network"), "ms"),
        "network.nodes_settled_per_query": (
            _per_query(stat_sum("nodes_settled"), queries),
            "count",
        ),
        "storage.self_ms_per_query": (self_ms("storage"), "ms"),
    }
    for pool in ("network", "index", "middle", "oracle"):
        gated[f"storage.page_misses_per_query.{pool}"] = (
            _per_query(stat_sum(f"{pool}_pages"), queries),
            "count",
        )
    gated.update(
        {
            "storage.hit_ratio": (1.0 - misses / fetches if fetches else 0.0, "ratio"),
            "index.self_ms_per_query": (self_ms("index"), "ms"),
            "index.pages_per_query": (
                _per_query(stat_sum("index_pages") + stat_sum("middle_pages"), queries),
                "count",
            ),
            "oracle.label_entries_per_query": (
                _per_query(stat_sum("oracle_label_entries"), queries),
                "count",
            ),
            "oracle.builds": (float(len(builds)), "count"),
            "oracle.fallbacks": (stat_sum("oracle_fallbacks"), "count"),
            "service.edge_writes": (float(outcome.edge_writes_traced), "count"),
            "service.requests_per_batch": (
                statistics.fmean(r.meta["requests"] for r in plan_roots)
                if plan_roots
                else 0.0,
                "count",
            ),
            "obs.sink_calls_per_query": (
                _per_query(totals.get("obs", (0.0, 0))[1], queries),
                "count",
            ),
            "trace.overhead_ratio": (
                (outcome.traced_s / outcome.traced_ops)
                / (outcome.untraced_s / outcome.untraced_ops),
                "ratio",
            ),
        }
    )
    waits = [w for r in plan_roots for w in r.meta["queue_wait_s"]]
    extra = {
        "oracle.self_ms_per_query": (self_ms("oracle"), "ms"),
        "oracle.build_s": (math.fsum(builds), "s"),
        "obs.self_ms_per_query": (self_ms("obs"), "ms"),
        "service.exec_ms_p50": (_median_ms(plans) if plans else 0.0, "ms"),
        "service.queue_wait_ms_p50": (_median_ms(waits) if waits else 0.0, "ms"),
    }
    return gated, extra


def trace_consistency(outcome: Outcome) -> list[str]:
    """Roots whose summed layer self times exceed their measured time."""
    bad = []
    for record in outcome.tracer.roots:
        if record.layer_self_s() > record.duration_s + 1e-9:
            bad.append(
                f"{record.name}: layer self {record.layer_self_s():.6f}s > "
                f"measured {record.duration_s:.6f}s"
            )
    return bad
