from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racktradeoff.errors import Disconnected, EnumerationTooLarge, InvalidScenario
from racktradeoff.flowgraph import (
    _ALPHA,
    _CHEAP,
    _EXP,
    FlowGraph,
    Scenario,
    _contract,
    _dinic,
    _max_flow,
    _scenario_templates,
    analytic_min_cut,
    build_flow_graph,
    candidate_rack_sequences,
    exhaustive_scenarios,
    min_cut_value,
    oracle_min_mincut,
    structured_scenarios,
    verify,
)
from racktradeoff.incomes import CoeffList, rack_coeff_list
from racktradeoff.threshold import alpha_star, rack_curve

from conftest import build_config

F = Fraction


def _first_scenario(cfg) -> Scenario:
    return next(iter(structured_scenarios(cfg)))


def test_candidate_rack_sequences(example1):
    assert candidate_rack_sequences(example1) == [(0, 0, 1, 1), (0, 0, 0, 1)]


def test_candidate_rack_sequences_single_rack():
    cfg = build_config(2, 3, [(4, 3)], 1)
    assert candidate_rack_sequences(cfg) == [(0, 0)]


def test_graph_shape(example1):
    sc = _first_scenario(example1)
    graph = build_flow_graph(example1, sc, F(1, 4), F(1, 10))
    assert graph.num_vertices == 2 + 2 * (6 + 4)
    alpha_arcs = [a for a in graph.arcs if a[2] == F(1, 4)]
    assert len(alpha_arcs) == example1.k  # only newcomers are storage-capped
    assert sum(1 for a in graph.arcs if a[2] is None) >= 2 * example1.total_nodes


def test_min_cut_matches_oracle_path(example1):
    sc = _first_scenario(example1)
    graph = build_flow_graph(example1, sc, F(7, 20), F(1, 10))
    value, _ = oracle_min_mincut(example1, F(7, 20), F(1, 10))
    assert min_cut_value(graph) >= value


def test_oracle_point_values(example1):
    # incomes {5,3,4,2}: at beta=1/10, alpha=7/20 the cut is 2b+3b+min(4b,a)+min(5b,a)
    value, witness = oracle_min_mincut(example1, F(7, 20), F(1, 10))
    assert value == F(6, 5)
    assert value == analytic_min_cut(example1, F(7, 20), F(1, 10))
    assert len(witness.rack_of_newcomer) == example1.k
    exh, _ = oracle_min_mincut(example1, F(7, 20), F(1, 10), mode="exhaustive")
    assert exh == F(6, 5)


def test_oracle_saturations(example1):
    # huge alpha: every income counts in full; tiny alpha: k newcomer arcs
    assert oracle_min_mincut(example1, F(100), F(1))[0] == F(14)
    assert oracle_min_mincut(example1, F(1, 1000), F(1))[0] == F(4, 1000)


def test_oracle_scaling_invariance(example1):
    base, _ = oracle_min_mincut(example1, F(7, 20), F(1, 10))
    doubled, _ = oracle_min_mincut(example1, F(7, 10), F(1, 5))
    assert doubled == 2 * base


def test_single_rack_matches_uniform_model():
    cfg = build_config(2, 3, [(4, 3)], 1)
    assert oracle_min_mincut(cfg, F(1), F(1))[0] == F(2)  # min(3b,a)+min(2b,a)
    assert verify(cfg, count=5, seed=1, mode="exhaustive").passed


def test_min_cut_disconnected():
    graph = FlowGraph(num_vertices=4, source=0, sink=1, arcs=((0, 2, F(1)), (3, 1, F(1))))
    with pytest.raises(Disconnected):
        min_cut_value(graph)


def test_min_cut_manual_graph():
    arcs = ((0, 2, None), (2, 3, F(1, 3)), (3, 1, None), (0, 1, F(1, 7)))
    graph = FlowGraph(num_vertices=4, source=0, sink=1, arcs=arcs)
    assert min_cut_value(graph) == F(1, 3) + F(1, 7)


def test_build_rejects_nonpositive_rates(example1):
    sc = _first_scenario(example1)
    with pytest.raises(InvalidScenario):
        build_flow_graph(example1, sc, F(0), F(1))
    with pytest.raises(InvalidScenario):
        build_flow_graph(example1, sc, F(1), F(-1))


def _mutate(sc: Scenario, **changes) -> Scenario:
    fields = {
        "rack_of_newcomer": sc.rack_of_newcomer,
        "replaced": sc.replaced,
        "helpers": sc.helpers,
        "dc_attach": sc.dc_attach,
    }
    fields.update(changes)
    return Scenario(**fields)


def test_scenario_validation(example1):
    sc = _first_scenario(example1)
    a, b = F(1, 4), F(1, 10)
    with pytest.raises(InvalidScenario, match="newcomers"):
        build_flow_graph(example1, _mutate(sc, rack_of_newcomer=sc.rack_of_newcomer[:-1]), a, b)
    with pytest.raises(InvalidScenario, match="duplicate replacement"):
        build_flow_graph(example1, _mutate(sc, replaced=(0, 0) + sc.replaced[2:]), a, b)
    wrong_rack = (5,) + sc.replaced[1:]  # node 5 sits in rack 1, newcomer 0 in rack 0
    with pytest.raises(InvalidScenario, match="rack"):
        build_flow_graph(example1, _mutate(sc, replaced=wrong_rack), a, b)
    helpers = list(sc.helpers)
    helpers[1] = ((sc.replaced[0],) + helpers[1][0][1:], helpers[1][1])
    with pytest.raises(InvalidScenario, match="not alive"):
        build_flow_graph(example1, _mutate(sc, helpers=tuple(helpers)), a, b)
    helpers = list(sc.helpers)
    helpers[0] = (helpers[0][1][:1] + helpers[0][0][1:], helpers[0][1])
    with pytest.raises(InvalidScenario, match="wrong rack group|duplicate helpers"):
        build_flow_graph(example1, _mutate(sc, helpers=tuple(helpers)), a, b)
    with pytest.raises(InvalidScenario, match="collector"):
        build_flow_graph(example1, _mutate(sc, dc_attach=sc.dc_attach[:-1] + (0,)), a, b)


def test_exhaustive_guard():
    cfg = build_config(4, 11, [(6, 5), (6, 5)], 2)
    with pytest.raises(EnumerationTooLarge):
        next(iter(exhaustive_scenarios(cfg)))


def test_exhaustive_covers_structured(example1):
    assert sum(1 for _ in structured_scenarios(example1)) == 2
    assert sum(1 for _ in exhaustive_scenarios(example1)) == 288


def test_verify_passes_both_modes(example1):
    for mode in ("structured", "exhaustive"):
        report = verify(example1, count=5, seed=3, mode=mode)
        assert report.passed
        assert report.greedy_sum == report.exhaustive_sum == F(14)
        assert not report.mismatches


def test_verify_rejects_bad_count(example1):
    with pytest.raises(ValueError):
        verify(example1, count=0)


def test_negative_control_detects_corruption(example1):
    good = rack_coeff_list(example1)
    bad = CoeffList(values=good.values[:-1] + (good.values[-1] + 1,), k=good.k)
    report = verify(example1, count=5, seed=3, coeffs=bad)
    assert not report.passed
    assert len(report.mismatches) >= 1


def test_analytic_counts_trimmed_terms(trimming_config):
    # trimmed list has 2 of k=3 entries; the third contributes at the bound
    beta = F(1, 19)
    alpha = F(7, 19)
    assert analytic_min_cut(trimming_config, alpha, beta) == 5 * beta + 7 * beta + 7 * beta


def test_known_gap_sparse_rack_high_tau():
    # a rack with no same-rack helpers at tau=3: the block selection is not
    # pointwise minimal and the oracle finds a strictly cheaper scenario
    cfg = build_config(4, 4, [(3, 0), (4, 3)], 3)
    beta = F(1, 16)
    alpha = F(1, 4)
    assert analytic_min_cut(cfg, alpha, beta) == F(1)
    for mode in ("structured", "exhaustive"):
        value, _ = oracle_min_mincut(cfg, alpha, beta, mode=mode)
        assert value == F(15, 16)


def test_known_gap_three_rack_leftovers(three_rack_config):
    # with three racks the income offsets ignore free arcs from included
    # leftover blocks, so some scenarios undercut the analytic curve
    report = verify(three_rack_config, count=3, seed=0, mode="structured")
    assert report.mismatches
    assert all(s.oracle < s.analytic for s in report.mismatches)
    assert report.greedy_sum == report.exhaustive_sum


def _explicit_max_flow(graph: FlowGraph) -> Fraction:
    # the uncontracted reference: integer scaling, unbounded arcs at a
    # surrogate above the sum of every finite capacity, then max-flow
    finite = [c for _, _, c in graph.arcs if c is not None]
    scale = math.lcm(*(c.denominator for c in finite))
    surrogate = sum(int(c * scale) for c in finite) + 1
    arcs = [(u, v, surrogate if c is None else int(c * scale)) for u, v, c in graph.arcs]
    return Fraction(_dinic(graph.num_vertices, arcs, graph.source, graph.sink), scale)


def _networkx_max_flow(graph: FlowGraph) -> Fraction:
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for u, v, cap in graph.arcs:
        assert not g.has_edge(u, v)
        if cap is None:
            g.add_edge(u, v)  # no capacity attribute: unbounded
        else:
            g.add_edge(u, v, capacity=cap)
    return Fraction(nx.maximum_flow_value(g, graph.source, graph.sink))


def _curve_points(cfg) -> list[tuple[Fraction, Fraction]]:
    """Every knee, every knee midpoint, and a point below the curve at each."""
    curve = rack_curve(cfg)
    betas = sorted(beta for _, beta, _ in curve.knees)
    betas += [(lo + hi) / 2 for lo, hi in zip(betas, betas[1:])]
    points = []
    for beta in betas:
        alpha = alpha_star(curve, beta)
        points += [(beta, alpha), (beta, alpha * 3 / 4)]
    return points


@pytest.mark.parametrize(
    "k, d, racks, tau",
    [
        (4, 4, [(3, 1), (3, 2)], 2),
        (3, 4, [(3, 1), (3, 2)], 3),
        (3, 6, [(2, 1), (5, 4)], 2),
        (4, 4, [(3, 0), (4, 3)], 3),
        (4, 4, [(2, 1), (4, 2)], Fraction(3, 2)),
        (2, 3, [(2, 1), (2, 1)], 1),
    ],
)
def test_contraction_is_exact_on_every_template(k, d, racks, tau):
    cfg = build_config(k, d, racks, tau)
    for mode in ("structured", "exhaustive"):
        for beta, alpha in _curve_points(cfg):
            weights = {_ALPHA: alpha, _CHEAP: cfg.tau * beta, _EXP: beta}
            for scenario, contracted in _scenario_templates(cfg, mode):
                assert contracted[0] <= cfg.k + 2 and len(contracted[1]) <= 2 * cfg.k
                value = _max_flow(contracted, weights)
                graph = build_flow_graph(cfg, scenario, alpha, beta)
                assert value == _explicit_max_flow(graph) == _networkx_max_flow(graph)


_CAPS = st.one_of(st.none(), st.fractions(min_value=0, max_value=5, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _CAPS), max_size=12),
    )
))
def test_min_cut_value_and_contraction_match_explicit_max_flow(graph_spec):
    # parallel arcs, self-loops and all-unbounded source->sink paths included
    num_vertices, arcs = graph_spec
    graph = FlowGraph(num_vertices=num_vertices, source=0, sink=1, arcs=tuple(arcs))
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b, _ in arcs:
            if a == u and b not in reached:
                reached.add(b)
                frontier.append(b)
    if 1 not in reached:
        with pytest.raises(Disconnected):
            min_cut_value(graph)
    else:
        expected = _explicit_max_flow(graph)
        assert min_cut_value(graph) == expected
        contracted = _contract(num_vertices, arcs, 0, 1)
        if contracted is not None:  # None: an all-unbounded path, no finite cut
            weights = {c: c for _, _, c in arcs if c is not None}
            assert _max_flow(contracted, weights) == expected


def test_verify_large_k_matches_cut_lemma():
    # guaranteed family d = d_c^1 + d_c^2 + 1 with racks of d_c + 1 nodes:
    # one template whose flow graph has 2 + 2(n + k) = 164 vertices
    cfg = build_config(40, 40, [(20, 19), (21, 20)], 2)
    report = verify(cfg, count=10, seed=5)
    assert report.passed
    n = cfg.total_nodes
    for sample in report.samples:
        incomes = [
            cfg.tau * sum(1 for h in same if h < n) + sum(1 for h in cross if h < n)
            for same, cross in sample.witness.helpers
        ]
        expected = sum((min(sample.alpha, c * sample.beta_e) for c in incomes), Fraction(0))
        assert sample.oracle == expected
