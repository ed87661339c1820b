"""Information flow graphs and the max-flow verification oracle.

The analytic machinery predicts the minimum source-to-collector mincut over
all failure scenarios. This module checks that prediction independently: it
materializes explicit flow graphs for enumerated scenarios, contracts their
unbounded arcs, computes exact min cuts via integer-scaled max-flow, and
minimizes over scenarios.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterator, Mapping, Optional, Sequence

from .config import SystemConfig
from .errors import Disconnected, EnumerationTooLarge, InvalidScenario
from .incomes import (
    CoeffList,
    involved_rack_count,
    min_mincut_incomes,
    rack_coeff_list,
    trim_bound,
)
from .threshold import alpha_star

__all__ = [
    "Scenario",
    "FlowGraph",
    "build_flow_graph",
    "min_cut_value",
    "candidate_rack_sequences",
    "structured_scenarios",
    "exhaustive_scenarios",
    "oracle_min_mincut",
    "analytic_min_cut",
    "VerificationReport",
    "verify",
]

# Arc capacity kinds in scenario templates; None marks an unbounded arc.
_INF, _ALPHA, _CHEAP, _EXP = None, 1, 2, 3

_EXHAUSTIVE_MAX_NODES = 8
_EXHAUSTIVE_MAX_K = 4
_EXHAUSTIVE_BUDGET = 250_000


@dataclass(frozen=True)
class Scenario:
    """One failure/wiring history plus the data collector's attachment.

    Node ids: originals are 0..n-1 (rack by rack), newcomer t is n + t.
    helpers[t] = (same-rack helper ids, cross-rack helper ids) of newcomer t.
    """

    rack_of_newcomer: tuple[int, ...]
    replaced: tuple[int, ...]
    helpers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    dc_attach: tuple[int, ...]


@dataclass(frozen=True)
class FlowGraph:
    """Directed graph with exact-rational capacities (None = unbounded)."""

    num_vertices: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, Optional[Fraction]], ...]


def _rack_of_original(cfg: SystemConfig, node: int) -> int:
    for j, rack in enumerate(cfg.racks):
        if node < rack.nodes:
            return j
        node -= rack.nodes
    raise ValueError(f"node {node} out of range")


def _scenario_arcs(
    cfg: SystemConfig, scenario: Scenario
) -> list[tuple[int, int, Optional[int]]]:
    """Arc template (u, v, kind) for a scenario, validating it along the way.

    Vertex layout: 0 = source, 1 = collector, node v gets inner 2 + 2v and
    outer 3 + 2v.
    """
    n, k = cfg.total_nodes, cfg.k
    if len(scenario.rack_of_newcomer) != k:
        raise InvalidScenario(f"expected {k} newcomers, got {len(scenario.rack_of_newcomer)}")
    if len(scenario.replaced) != k or len(scenario.helpers) != k:
        raise InvalidScenario("replaced/helpers must list every newcomer")
    if len(set(scenario.replaced)) != k:
        raise InvalidScenario("duplicate replacement")

    def inner(v: int) -> int:
        return 2 + 2 * v

    def outer(v: int) -> int:
        return 3 + 2 * v

    arcs: list[tuple[int, int, Optional[int]]] = []
    for v in range(n):
        arcs.append((0, inner(v), _INF))
        # Originals hold given data; only newcomer storage constrains the cut.
        arcs.append((inner(v), outer(v), _INF))
    for v in range(n, n + k):
        arcs.append((inner(v), outer(v), _ALPHA))

    rack_of = dict(enumerate(scenario.rack_of_newcomer, start=n))
    alive = set(range(n))
    for t in range(k):
        rack = scenario.rack_of_newcomer[t]
        newcomer = n + t
        dead = scenario.replaced[t]
        if dead >= n or _rack_of_original(cfg, dead) != rack:
            raise InvalidScenario(f"newcomer {t} must replace an original node in rack {rack}")
        if dead not in alive:
            raise InvalidScenario(f"newcomer {t} replaces node {dead} which is not alive")
        alive.discard(dead)
        same, cross = scenario.helpers[t]
        if len(same) != cfg.cheap_degrees[rack] or len(cross) != cfg.expensive_degrees[rack]:
            raise InvalidScenario(
                f"newcomer {t} needs {cfg.cheap_degrees[rack]} same-rack and "
                f"{cfg.expensive_degrees[rack]} cross-rack helpers"
            )
        if len(set(same) | set(cross)) != len(same) + len(cross):
            raise InvalidScenario(f"newcomer {t} has duplicate helpers")
        for h in same + cross:
            if not (h in alive or (n <= h < newcomer)):
                raise InvalidScenario(f"newcomer {t} helper {h} is not alive")
            h_rack = rack_of[h] if h >= n else _rack_of_original(cfg, h)
            if (h in same) != (h_rack == rack):
                raise InvalidScenario(f"newcomer {t} helper {h} is in the wrong rack group")
            arcs.append((outer(h), inner(newcomer), _CHEAP if h in same else _EXP))
        alive.add(newcomer)

    if sorted(scenario.dc_attach) != list(range(n, n + k)):
        raise InvalidScenario("data collector must attach to exactly the k newcomers")
    for v in scenario.dc_attach:
        arcs.append((outer(v), 1, _INF))
    return arcs


def build_flow_graph(
    cfg: SystemConfig, scenario: Scenario, alpha: Fraction, beta_e: Fraction
) -> FlowGraph:
    """Materialize the information flow graph for one scenario."""
    if alpha <= 0 or beta_e <= 0:
        raise InvalidScenario("alpha and beta_e must be positive")
    weights = {_INF: None, _ALPHA: alpha, _CHEAP: cfg.tau * beta_e, _EXP: beta_e}
    arcs = tuple((u, v, weights[kind]) for u, v, kind in _scenario_arcs(cfg, scenario))
    return FlowGraph(
        num_vertices=2 + 2 * (cfg.total_nodes + cfg.k), source=0, sink=1, arcs=arcs
    )


def _dinic(num_vertices: int, arcs: Sequence[tuple[int, int, int]], s: int, t: int) -> int:
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    # upper bound on any augmenting path; capacities are arbitrary-size ints
    limit = sum(c for _, _, c in arcs) + 1

    flow = 0
    while True:
        level = [-1] * num_vertices
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * num_vertices

        def augment(u: int, pushed: int) -> int:
            if u == t:
                return pushed
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    got = augment(v, min(pushed, cap[e]))
                    if got:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = augment(s, limit)
            if not pushed:
                break
            flow += pushed


def _closure(adj: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


# A graph for `_max_flow`: vertex count and arcs (u, v, ((label, count), ...)),
# source 0 and sink 1 unless stated otherwise.
_LabelledGraph = tuple[int, list[tuple[int, int, tuple[tuple[Hashable, int], ...]]]]


def _contract(
    num_vertices: int, arcs: Sequence[tuple[int, int, Hashable]], source: int, sink: int
) -> Optional[_LabelledGraph]:
    """Exact reduction of a max-flow instance whose unbounded arcs have label None.

    Every vertex the source reaches over unbounded arcs lies on the source
    side of every finite cut, and every vertex that reaches the sink over
    unbounded arcs lies on the sink side, so each set is merged into its
    terminal. Self-loops, arcs into the source and arcs out of the sink can
    then cross no cut and are dropped; parallel arcs become one arc with a
    count per label. The result has source 0, sink 1 and the same max-flow
    value. None means the source reaches the sink over unbounded arcs alone,
    so no finite cut exists.
    """
    forward: list[list[int]] = [[] for _ in range(num_vertices)]
    backward: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v, label in arcs:
        if label is None:
            forward[u].append(v)
            backward[v].append(u)
    source_side = _closure(forward, source)
    if sink in source_side:
        return None
    index = [-1] * num_vertices
    for v in source_side:
        index[v] = 0
    for v in _closure(backward, sink):
        index[v] = 1
    count = 2
    merged: dict[tuple[int, int], dict[Hashable, int]] = {}
    for u, v, label in arcs:
        for w in (u, v):
            if index[w] < 0:
                index[w] = count
                count += 1
        a, b = index[u], index[v]
        if a == b or a == 1 or b == 0:
            continue
        labels = merged.setdefault((a, b), {})
        labels[label] = labels.get(label, 0) + 1
    return count, [(a, b, tuple(labels.items())) for (a, b), labels in merged.items()]


def _max_flow(
    graph: _LabelledGraph,
    weights: Mapping[Hashable, Fraction],
    source: int = 0,
    sink: int = 1,
) -> Fraction:
    """Exact max-flow value with each arc's capacity the weighted sum of its labels.

    Weights are scaled to integers by the LCM of their denominators. An arc
    with an unbounded label (None) gets a finite surrogate exceeding the sum
    of all finite capacities, which no minimum cut crosses when a finite cut
    exists.
    """
    num_vertices, arcs = graph
    scale = math.lcm(*(w.denominator for w in weights.values()))
    ints = {label: int(w * scale) for label, w in weights.items()}
    caps = [
        None if any(label is None for label, _ in labels) else sum(ints[label] * n for label, n in labels)
        for _, _, labels in arcs
    ]
    surrogate = sum(c for c in caps if c is not None) + 1
    int_arcs = [(u, v, surrogate if c is None else c) for (u, v, _), c in zip(arcs, caps)]
    return Fraction(_dinic(num_vertices, int_arcs, source, sink), scale)


def min_cut_value(graph: FlowGraph) -> Fraction:
    """Exact max-flow value from source to collector on the explicit graph."""
    adj: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for u, v, _ in graph.arcs:
        adj[u].append(v)
    if graph.sink not in _closure(adj, graph.source):
        raise Disconnected("no path from source to collector")

    weights = {c: c for _, _, c in graph.arcs if c is not None}
    explicit = [(u, v, ((c, 1),)) for u, v, c in graph.arcs]
    return _max_flow((graph.num_vertices, explicit), weights, graph.source, graph.sink)


def _rack_ranges(cfg: SystemConfig) -> list[range]:
    ranges = []
    start = 0
    for rack in cfg.racks:
        ranges.append(range(start, start + rack.nodes))
        start += rack.nodes
    return ranges


def candidate_rack_sequences(cfg: SystemConfig) -> list[tuple[int, ...]]:
    """Failure orders examined by the minimum-mincut-set analysis.

    Racks fail in ascending cheap-degree order. Each involved rack loses its
    first d_c^j + 1 nodes, optionally followed by the rest of the rack (the
    leftover block), and the order is truncated to the first k failures. This
    is exactly the candidate family the block selection minimizes over;
    failure orders outside it are not covered by the analytic curve.
    """
    s = involved_rack_count(cfg)
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for size in range(s):
        for subset in combinations(range(1, s), size):
            seq: list[int] = []
            for j in range(s):
                copies = cfg.cheap_degrees[j] + 1
                if (j + 1) in subset:
                    copies += cfg.racks[j].nodes - cfg.cheap_degrees[j] - 1
                seq += [j] * copies
            truncated = tuple(seq[: cfg.k])
            if len(truncated) == cfg.k and truncated not in seen:
                seen.add(truncated)
                out.append(truncated)
    return out


def structured_scenarios(cfg: SystemConfig) -> Iterator[Scenario]:
    """Candidate failure orders with deterministic newcomers-first wiring.

    Each newcomer replaces the lowest-index alive original in its rack and
    prefers previously replaced nodes (most recent first) as helpers, on both
    the same-rack and the cross-rack side.
    """
    n, k, r = cfg.total_nodes, cfg.k, cfg.num_racks
    ranges = _rack_ranges(cfg)
    for seq in candidate_rack_sequences(cfg):
        alive_orig = [list(rng) for rng in ranges]
        newcomers: list[list[int]] = [[] for _ in range(r)]
        replaced: list[int] = []
        helpers: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for t, rack in enumerate(seq):
            replaced.append(alive_orig[rack].pop(0))
            same_pool = list(reversed(newcomers[rack])) + alive_orig[rack]
            cross_new = sorted(
                (v for j in range(r) if j != rack for v in newcomers[j]), reverse=True
            )
            cross_orig = sorted(v for j in range(r) if j != rack for v in alive_orig[j])
            cross_pool = cross_new + cross_orig
            same = tuple(same_pool[: cfg.cheap_degrees[rack]])
            cross = tuple(cross_pool[: cfg.expensive_degrees[rack]])
            helpers.append((same, cross))
            newcomers[rack].append(n + t)
        yield Scenario(
            rack_of_newcomer=seq,
            replaced=tuple(replaced),
            helpers=tuple(helpers),
            dc_attach=tuple(range(n, n + k)),
        )


def _choice_sets(
    touched: Sequence[int], untouched: Sequence[int], size: int
) -> Iterator[tuple[int, ...]]:
    """Subsets of a helper pool, up to interchangeability of untouched nodes.

    Touched nodes (previous newcomers or originals with history) are all
    distinguishable; untouched originals are symmetric, so only the
    lowest-index representatives are taken.
    """
    for j in range(max(size - len(untouched), 0), min(size, len(touched)) + 1):
        fill = tuple(untouched[: size - j])
        for chosen in combinations(touched, j):
            yield chosen + fill


def exhaustive_scenarios(cfg: SystemConfig) -> Iterator[Scenario]:
    """Candidate failure orders with every replacement and helper choice.

    Scenarios are enumerated up to original-node interchangeability and the
    instance size is guarded to desk scale.
    """
    if cfg.total_nodes > _EXHAUSTIVE_MAX_NODES or cfg.k > _EXHAUSTIVE_MAX_K:
        raise EnumerationTooLarge(
            f"exhaustive mode needs total nodes <= {_EXHAUSTIVE_MAX_NODES} "
            f"and k <= {_EXHAUSTIVE_MAX_K}"
        )
    n, k, r = cfg.total_nodes, cfg.k, cfg.num_racks
    ranges = _rack_ranges(cfg)
    emitted = 0

    for seq in candidate_rack_sequences(cfg):

        def walk(
            t: int,
            alive_orig: tuple[tuple[int, ...], ...],
            touched: frozenset[int],
            newcomers: tuple[tuple[int, ...], ...],
            replaced: tuple[int, ...],
            helpers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
        ) -> Iterator[Scenario]:
            nonlocal emitted
            if t == k:
                emitted += 1
                if emitted > _EXHAUSTIVE_BUDGET:
                    raise EnumerationTooLarge(
                        f"exhaustive enumeration exceeds {_EXHAUSTIVE_BUDGET} scenarios"
                    )
                yield Scenario(
                    rack_of_newcomer=seq,
                    replaced=replaced,
                    helpers=helpers,
                    dc_attach=tuple(range(n, n + k)),
                )
                return
            rack = seq[t]
            rack_alive = alive_orig[rack]
            dead_choices = [v for v in rack_alive if v in touched]
            fresh = [v for v in rack_alive if v not in touched]
            if fresh:
                dead_choices.append(fresh[0])
            for dead in dead_choices:
                next_alive = tuple(
                    tuple(v for v in vs if v != dead) if j == rack else vs
                    for j, vs in enumerate(alive_orig)
                )
                same_orig = next_alive[rack]
                same_touch = list(newcomers[rack]) + [v for v in same_orig if v in touched]
                same_fresh = [v for v in same_orig if v not in touched]
                cross_touch = [v for j in range(r) if j != rack for v in newcomers[j]]
                cross_fresh_all = [
                    v for j in range(r) if j != rack for v in next_alive[j]
                ]
                cross_touch += [v for v in cross_fresh_all if v in touched]
                cross_fresh = [v for v in cross_fresh_all if v not in touched]
                for same in _choice_sets(same_touch, same_fresh, cfg.cheap_degrees[rack]):
                    for cross in _choice_sets(cross_touch, cross_fresh, cfg.expensive_degrees[rack]):
                        next_newcomers = tuple(
                            vs + (n + t,) if j == rack else vs for j, vs in enumerate(newcomers)
                        )
                        yield from walk(
                            t + 1,
                            next_alive,
                            touched | set(same) | set(cross) | {dead},
                            next_newcomers,
                            replaced + (dead,),
                            helpers + ((same, cross),),
                        )

        yield from walk(0, tuple(tuple(rng) for rng in ranges), frozenset(), tuple(() for _ in range(r)), (), ())


def _scenario_templates(cfg: SystemConfig, mode: str) -> list[tuple[Scenario, _LabelledGraph]]:
    """Contracted arc templates for a mode, deduplicated by helper-count profile.

    With uncapped originals the mincut depends only on how many original
    (as opposed to newcomer) helpers each newcomer has on each side, so
    scenarios sharing that profile share their mincut at every (alpha, beta).
    The first scenario in enumeration order represents each profile.

    Contraction merges the originals into the source and every newcomer's
    outer vertex into the collector, which leaves newcomer t's inner vertex
    with one arc in (its original helpers, counted per kind) and its alpha
    arc out: k + 2 vertices and at most 2k arcs.
    """
    if mode == "structured":
        scenarios: Iterator[Scenario] = structured_scenarios(cfg)
    elif mode == "exhaustive":
        scenarios = exhaustive_scenarios(cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = cfg.total_nodes
    num_vertices = 2 + 2 * (n + cfg.k)
    templates: list[tuple[Scenario, _LabelledGraph]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for sc in scenarios:
        profile = tuple(
            sorted(
                (sum(1 for h in same if h < n), sum(1 for h in cross if h < n))
                for same, cross in sc.helpers
            )
        )
        if profile in seen:
            continue
        seen.add(profile)
        graph = _contract(num_vertices, _scenario_arcs(cfg, sc), 0, 1)
        assert graph is not None  # every collector path crosses a newcomer's alpha arc
        templates.append((sc, graph))
    return templates


def _min_over_templates(
    templates: Sequence[tuple[Scenario, _LabelledGraph]],
    alpha: Fraction,
    beta_e: Fraction,
    tau: Fraction,
) -> tuple[Fraction, Scenario]:
    """Smallest template mincut at one point, with its scenario.

    Ties go to the first template in enumeration order, which is deterministic.
    """
    weights = {_ALPHA: alpha, _CHEAP: tau * beta_e, _EXP: beta_e}
    return min(((_max_flow(graph, weights), sc) for sc, graph in templates), key=lambda pair: pair[0])


def oracle_min_mincut(
    cfg: SystemConfig, alpha: Fraction, beta_e: Fraction, mode: str = "structured"
) -> tuple[Fraction, Scenario]:
    """Minimum mincut over all enumerated scenarios, with its witness.

    Ties are resolved by enumeration order, which is deterministic.
    """
    return _min_over_templates(_scenario_templates(cfg, mode), alpha, beta_e, cfg.tau)


def analytic_min_cut(
    cfg: SystemConfig,
    alpha: Fraction,
    beta_e: Fraction,
    coeffs: Optional[CoeffList] = None,
) -> Fraction:
    """Predicted minimum mincut from the trimmed coefficient list.

    The k - m trimmed newcomers contribute like the feasibility bound; on the
    feasible region (alpha <= bound * beta_e) that equals their own income.
    """
    L = coeffs if coeffs is not None else rack_coeff_list(cfg)
    bound = trim_bound(cfg)
    total = sum((min(c * beta_e, alpha) for c in L.values), Fraction(0))
    return total + (cfg.k - len(L)) * min(bound * beta_e, alpha)


@dataclass(frozen=True)
class SamplePoint:
    beta_e: Fraction
    alpha: Fraction
    analytic: Fraction
    oracle: Fraction
    witness: Scenario


@dataclass(frozen=True)
class VerificationReport:
    """Oracle-vs-analytic comparison over sampled points."""

    samples: tuple[SamplePoint, ...]
    candidate_audit: tuple[tuple[tuple[int, ...], Fraction], ...]
    greedy_sum: Fraction
    exhaustive_sum: Fraction

    @property
    def mismatches(self) -> tuple[SamplePoint, ...]:
        return tuple(s for s in self.samples if s.analytic != s.oracle)

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.greedy_sum == self.exhaustive_sum


def _sample_grid(cfg: SystemConfig, coeffs: CoeffList, count: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    from .threshold import threshold_curve  # local: avoids a cycle at import time

    curve = threshold_curve(coeffs, cfg.k, cfg.file_size)
    points: list[tuple[Fraction, Fraction]] = []
    knee_betas = [s.beta_lo for s in curve.segments]
    for beta in knee_betas:
        points.append((beta, alpha_star(curve, beta)))
    ascending = sorted(knee_betas)
    for lo, hi in zip(ascending, ascending[1:]):
        mid = (lo + hi) / 2
        points.append((mid, alpha_star(curve, mid)))
    plateau = 2 * curve.msr_beta
    points.append((plateau, alpha_star(curve, plateau)))

    rng = random.Random(seed)
    lo, hi = curve.mbr_beta, 2 * curve.msr_beta
    for _ in range(count):
        beta = lo + (hi - lo) * Fraction(rng.randrange(0, 1025), 1024)
        alpha = alpha_star(curve, beta)
        if rng.randrange(2):
            alpha *= Fraction(rng.randrange(512, 1025), 1024)
        points.append((beta, alpha))
    return points


def verify(
    cfg: SystemConfig,
    count: int = 10,
    seed: int = 0,
    mode: str = "structured",
    coeffs: Optional[CoeffList] = None,
) -> VerificationReport:
    """Sample the tradeoff curve and compare analytics against the oracle.

    Samples every exposed knee, every segment midpoint, a plateau point, and
    `count` seeded random points on or below the curve; also cross-audits the
    greedy block selection against the exhaustive one.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    L = coeffs if coeffs is not None else rack_coeff_list(cfg)
    # the exhaustive audit refuses oversized block searches before any
    # template, which enumerates the same 2^(s-1) subsets, is built
    greedy_seq, greedy_audit = min_mincut_incomes(cfg, mode="greedy")
    exhaustive_seq, exhaustive_audit = min_mincut_incomes(cfg, mode="exhaustive")
    templates = _scenario_templates(cfg, mode)

    samples: list[SamplePoint] = []
    for beta_e, alpha in _sample_grid(cfg, L, count, seed):
        oracle, witness = _min_over_templates(templates, alpha, beta_e, cfg.tau)
        samples.append(
            SamplePoint(
                beta_e=beta_e,
                alpha=alpha,
                analytic=analytic_min_cut(cfg, alpha, beta_e, coeffs=L),
                oracle=oracle,
                witness=witness,
            )
        )

    return VerificationReport(
        samples=tuple(samples),
        candidate_audit=tuple(greedy_audit + exhaustive_audit),
        greedy_sum=greedy_seq.total(),
        exhaustive_sum=exhaustive_seq.total(),
    )
