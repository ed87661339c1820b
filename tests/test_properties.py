from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from racktradeoff.config import SystemConfig
from racktradeoff.errors import InvalidConfig
from racktradeoff.flowgraph import FlowGraph, analytic_min_cut, min_cut_value
from racktradeoff.incomes import (
    IncomeSequence,
    IncomeTerm,
    candidate_sequence,
    feasibility_trim,
    involved_rack_count,
    min_mincut_incomes,
    rack_coeff_list,
    trim_bound,
    two_rack_min_incomes,
)
from racktradeoff.threshold import alpha_star, rack_curve, reference_curve, threshold_curve

from conftest import build_config

F = Fraction

TAUS = (F(1), F(3, 2), F(2), F(3))


@st.composite
def two_rack_configs(draw) -> SystemConfig:
    # adjacent-rack degree identity d = (d_c^1 + 1) + (d_c^2 + 1) - 1
    dc1 = draw(st.integers(1, 2))
    dc2 = draw(st.integers(dc1, 3))
    d = dc1 + dc2 + 1
    n1 = draw(st.integers(dc1 + 1, 4))
    n2 = draw(st.integers(dc2 + 1, 4))
    k = draw(st.integers(1, min(4, d, n1 + n2)))
    tau = draw(st.sampled_from(TAUS))
    try:
        return build_config(k, d, [(n1, dc1), (n2, dc2)], tau)
    except InvalidConfig:
        assume(False)


@st.composite
def multi_rack_configs(draw) -> SystemConfig:
    r = draw(st.integers(2, 4))
    dcs = sorted(draw(st.lists(st.integers(1, 2), min_size=r, max_size=r)))
    d = sum(dcs) + r - 1
    racks = []
    for dc in dcs:
        racks.append((draw(st.integers(dc + 1, dc + 3)), dc))
    n = sum(nodes for nodes, _ in racks)
    k = draw(st.integers(1, min(d, n)))
    tau = draw(st.sampled_from(TAUS))
    try:
        return build_config(k, d, racks, tau)
    except InvalidConfig:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(two_rack_configs())
def test_knees_monotone_and_continuous(cfg):
    curve = rack_curve(cfg)
    segments = curve.segments
    for left, right in zip(segments, segments[1:]):
        # segments run from the storage plateau toward the bandwidth extreme
        assert right.beta_lo < left.beta_lo
        assert right.beta_hi == left.beta_lo
        assert right.alpha_at(left.beta_lo) == left.alpha_at(left.beta_lo)
    for seg in segments:
        assert seg.alpha_at(seg.beta_lo) >= curve.M / curve.k


@settings(max_examples=60, deadline=None)
@given(two_rack_configs())
def test_curve_points_are_tight(cfg):
    curve = rack_curve(cfg)
    betas = [s.beta_lo for s in curve.segments]
    betas += [(a + b) / 2 for a, b in zip(betas, betas[1:])]
    betas.append(2 * curve.msr_beta)
    for beta in betas:
        alpha = alpha_star(curve, beta)
        assert analytic_min_cut(cfg, alpha, beta) == cfg.file_size


@settings(max_examples=40, deadline=None)
@given(two_rack_configs(), st.integers(2, 9))
def test_curve_homogeneous_in_file_size(cfg, scale):
    scaled = build_config(
        cfg.k,
        cfg.d,
        [(r.nodes, r.cheap_degree) for r in cfg.racks],
        cfg.tau,
        file_size=cfg.file_size * scale,
    )
    base = rack_curve(cfg)
    big = rack_curve(scaled)
    assert [s.index for s in big.segments] == [s.index for s in base.segments]
    for a, b in zip(big.segments, base.segments):
        assert a.beta_lo == scale * b.beta_lo


@settings(max_examples=60, deadline=None)
@given(two_rack_configs())
def test_trim_bounds_and_idempotence(cfg):
    incomes = two_rack_min_incomes(cfg)
    trimmed = feasibility_trim(incomes, cfg)
    bound = trim_bound(cfg)
    assert all(c <= bound for c in trimmed.values)
    assert list(trimmed.values) == sorted(trimmed.values)
    assert len(trimmed) <= cfg.k


@settings(max_examples=60, deadline=None)
@given(multi_rack_configs())
def test_greedy_matches_exhaustive_sum(cfg):
    greedy, _ = min_mincut_incomes(cfg, mode="greedy")
    exhaustive, _ = min_mincut_incomes(cfg, mode="exhaustive")
    assert greedy.total() == exhaustive.total()


@st.composite
def wide_rack_configs(draw) -> SystemConfig:
    # 2-6 racks of up to 50 nodes; small cheap degrees make k reach past several racks
    r = draw(st.integers(2, 6))
    racks = []
    for _ in range(r):
        nodes = draw(st.integers(1, 50))
        racks.append((nodes, draw(st.integers(0, min(nodes - 1, 5)))))
    n = sum(nodes for nodes, _ in racks)
    lo = max(dc for _, dc in racks) + 1
    hi = min(min(n - nodes + dc for nodes, dc in racks), n - 1)
    assume(lo <= hi)
    d = draw(st.integers(lo, hi))
    k = d - draw(st.integers(0, d - 1))  # shrinks toward k = d, past the most blocks
    tau = draw(st.sampled_from(TAUS + (F(11, 5), F(7))))
    return build_config(k, d, racks, tau)


def _reference_candidate(cfg: SystemConfig, subset) -> IncomeSequence:
    # the block rule written out: full-length blocks, concatenated, truncated to k
    coeffs, offset = [], 0
    for j, rack in enumerate(cfg.racks):
        dc, off = cfg.cheap_degrees[j], cfg.expensive_degrees[j] - offset
        coeffs += [(max((dc - i) * cfg.tau + off, F(0)), j) for i in range(dc + 1)]
        if j + 1 in subset:
            coeffs += [(max(F(off), F(0)), j)] * (rack.nodes - dc - 1)
        offset += dc + 1
    return IncomeSequence(
        terms=tuple(IncomeTerm(coeff=c, rack=j, ordinal=i) for i, (c, j) in enumerate(coeffs[: cfg.k])),
        origin="I'_{" + ",".join(str(j) for j in sorted(subset)) + "}",
    )


def _reference_selection(cfg: SystemConfig, mode: str):
    s = involved_rack_count(cfg)
    audit = []

    def examined(subset):
        total = _reference_candidate(cfg, subset).total()
        audit.append((subset, total))
        return total

    if mode == "greedy":
        winner = tuple(range(1, s))
        best = examined(winner)
        for j in range(1, s):
            dropped = tuple(i for i in winner if i != j)
            total = examined(dropped)
            if total < best:
                winner, best = dropped, total
    else:
        ranked = [
            (examined(subset), size, subset)
            for size in range(s)
            for subset in combinations(range(1, s), size)
        ]
        winner = min(ranked)[2]
    return _reference_candidate(cfg, winner), audit


@settings(max_examples=150, deadline=None)
@given(wide_rack_configs(), st.sampled_from(("greedy", "exhaustive")))
def test_block_selection_matches_full_length_reference(cfg, mode):
    winner, audit = _reference_selection(cfg, mode)
    assert min_mincut_incomes(cfg, mode=mode) == (winner, audit)
    for subset, _ in audit:
        assert candidate_sequence(cfg, subset) == _reference_candidate(cfg, subset)


@settings(max_examples=60, deadline=None)
@given(two_rack_configs())
def test_two_rack_rule_matches_general_search(cfg):
    rule = two_rack_min_incomes(cfg)
    general, _ = min_mincut_incomes(cfg, mode="exhaustive")
    assert rule.total() == general.total()
    assert sorted(rule.coeffs) == sorted(general.coeffs)


@settings(max_examples=60, deadline=None)
@given(two_rack_configs())
def test_rack_model_dominates_static(cfg):
    assume(cfg.tau > 1 and cfg.k > cfg.cheap_degrees[0] + 1)
    rack = rack_curve(cfg)
    static = {s.index: s for s in reference_curve("static", cfg).segments}
    for seg in rack.segments:
        other = static.get(seg.index)
        if other is not None:
            assert seg.beta_lo <= other.beta_lo


@settings(max_examples=40, deadline=None)
@given(two_rack_configs())
def test_threshold_equals_trimmed_engine(cfg):
    # rack_curve is exactly the generic engine on the trimmed coefficients
    L = rack_coeff_list(cfg)
    assert rack_curve(cfg).knees == threshold_curve(L, cfg.k, cfg.file_size).knees


_ARC_CAPS = st.one_of(st.none(), st.fractions(min_value=0, max_value=10, max_denominator=16))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(2, 5), _ARC_CAPS), min_size=0, max_size=10
    ),
    st.fractions(min_value=0, max_value=10, max_denominator=16),
    st.fractions(min_value=0, max_value=10, max_denominator=16),
    st.randoms(use_true_random=False),
    st.integers(2, 7),
)
def test_min_cut_invariances(extra, c1, c2, rng, scale):
    # a guaranteed finite source->sink path plus random finite-capacity noise
    arcs = [(0, 2, c1), (2, 1, c2)] + extra
    graph = FlowGraph(num_vertices=6, source=0, sink=1, arcs=tuple(arcs))
    value = min_cut_value(graph)
    # an unbounded cut carries a surrogate weight and is not scale-invariant
    assume(value <= sum(c for _, _, c in arcs if c is not None))
    shuffled = list(arcs)
    rng.shuffle(shuffled)
    assert min_cut_value(FlowGraph(num_vertices=6, source=0, sink=1, arcs=tuple(shuffled))) == value
    scaled_arcs = tuple((u, v, None if c is None else c * scale) for u, v, c in arcs)
    assert min_cut_value(FlowGraph(num_vertices=6, source=0, sink=1, arcs=scaled_arcs)) == scale * value
