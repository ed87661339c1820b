from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from racktradeoff.errors import EmptyCoeffList, EmptyIncome, EnumerationTooLarge, NotTwoRack
from racktradeoff.incomes import (
    CoeffList,
    IncomeSequence,
    IncomeTerm,
    candidate_sequence,
    feasibility_trim,
    general_income_pool,
    involved_rack_count,
    min_mincut_incomes,
    rack_coeff_list,
    trim_bound,
    two_rack_components,
    two_rack_min_incomes,
)
from racktradeoff.threshold import rack_curve

from conftest import build_config

F = Fraction


def test_components_small_tau2(example1):
    i1, i2, i3 = two_rack_components(example1)
    assert i1.coeffs == (F(5), F(3))
    assert i2.coeffs == (F(3), F(4))
    assert i3.coeffs == (F(4), F(2))


def test_selection_prefers_strictly_smaller_sum(example1):
    # sum(I3) = 6 < sum(I2) = 7
    incomes = two_rack_min_incomes(example1)
    assert incomes.coeffs == (F(5), F(3), F(4), F(2))
    assert incomes.origin == "I1+I3"


def test_selection_k3(example2):
    incomes = two_rack_min_incomes(example2)
    assert incomes.coeffs == (F(5), F(3), F(3))
    assert incomes.origin == "I1+I2"


def test_selection_tie_goes_to_second_rack(trimming_config):
    # both completions sum to 8 here
    i1, i2, i3 = two_rack_components(trimming_config)
    assert i2.total() == i3.total() == F(8)
    incomes = two_rack_min_incomes(trimming_config)
    assert incomes.origin == "I1+I3"
    assert incomes.coeffs == (F(7), F(5), F(8))


def test_selection_truncates_when_first_rack_suffices():
    cfg = build_config(2, 11, [(6, 5), (6, 5)], 2)
    incomes = two_rack_min_incomes(cfg)
    assert incomes.coeffs == (F(16), F(14))
    assert all(t.rack == 0 for t in incomes.terms)


def test_completion_zero_padding():
    # second rack runs out of distinct helpers before k newcomers exist
    cfg = build_config(6, 6, [(8, 1), (8, 2)], 2)
    _, i2, i3 = two_rack_components(cfg)
    assert len(i2) == len(i3) == 4
    assert i3.coeffs == (F(4), F(2), F(0), F(0))
    assert min(i2.coeffs) >= 0


def test_two_rack_rule_rejects_other_rack_counts(three_rack_config):
    with pytest.raises(NotTwoRack):
        two_rack_components(three_rack_config)


def test_trim_bound_and_trim(trimming_config):
    incomes = two_rack_min_incomes(trimming_config)
    assert sorted(incomes.coeffs) == [F(5), F(7), F(8)]
    assert trim_bound(trimming_config) == F(7)
    trimmed = feasibility_trim(incomes, trimming_config)
    assert trimmed.values == (F(5), F(7))


def test_trim_rejects_empty_income(example1):
    with pytest.raises(EmptyIncome):
        feasibility_trim(IncomeSequence(terms=()), example1)


def test_trim_is_idempotent(example1):
    first = rack_coeff_list(example1)
    seq = IncomeSequence(
        terms=tuple(IncomeTerm(coeff=c, rack=0, ordinal=i) for i, c in enumerate(first.values))
    )
    assert feasibility_trim(seq, example1).values == first.values


def test_rack_coeff_list_example1(example1):
    assert rack_coeff_list(example1).values == (F(2), F(3), F(4), F(5))


def test_involved_rack_count(example1, example2, three_rack_config):
    assert involved_rack_count(example1) == 2
    assert involved_rack_count(example2) == 2
    assert involved_rack_count(three_rack_config) == 3


def test_general_pool_offsets(three_rack_config):
    pool, leftovers, s = general_income_pool(three_rack_config)
    assert s == 3
    tau = F(11, 5)
    # rack 1: offset d_e^1 = 7; rack 2: 6 - 2 = 4; rack 3: 5 - 5 = 0
    by_rack = {}
    for t in pool.terms:
        by_rack.setdefault(t.rack, []).append(t.coeff)
    assert by_rack[0] == [tau + 7, F(7), F(7)]
    assert by_rack[1] == [2 * tau + 4, tau + 4, F(4), F(4)]
    assert by_rack[2] == [3 * tau, 2 * tau, tau, F(0)]
    assert [seq.coeffs for seq in leftovers] == [(F(7),), (F(4),), ()]


def test_candidate_sequence_sums(three_rack_config):
    sums = {
        frozenset(): F(229, 5),
        frozenset({1}): F(242, 5),
        frozenset({2}): F(227, 5),
        frozenset({1, 2}): F(229, 5),
    }
    for subset, expected in sums.items():
        assert candidate_sequence(three_rack_config, subset).total() == expected


def test_candidate_sequence_index_bounds(three_rack_config):
    with pytest.raises(IndexError):
        candidate_sequence(three_rack_config, [3])
    with pytest.raises(IndexError):
        candidate_sequence(three_rack_config, [0])


def test_candidate_sequence_truncates_to_k(three_rack_config):
    seq = candidate_sequence(three_rack_config, [1, 2])
    assert len(seq) == three_rack_config.k


def test_greedy_and_exhaustive_pick_best_block(three_rack_config):
    greedy_seq, greedy_audit = min_mincut_incomes(three_rack_config, mode="greedy")
    exh_seq, exh_audit = min_mincut_incomes(three_rack_config, mode="exhaustive")
    assert greedy_seq.total() == exh_seq.total() == F(227, 5)
    assert greedy_seq.origin == exh_seq.origin == "I'_{2}"
    assert dict(exh_audit)[(2,)] == F(227, 5)
    assert len(exh_audit) == 4
    assert ((1, 2), F(229, 5)) in greedy_audit


def test_min_mincut_rejects_unknown_mode(example1):
    with pytest.raises(ValueError, match="mode"):
        min_mincut_incomes(example1, mode="fast")


def _racks_of_three(count: int, involved: int, tau=2):
    # racks of 3 nodes with d_c = 1, k chosen so that `involved` racks are involved
    k = 2 * (involved - 1) + 1
    return build_config(k, k + 1, [(3, 1)] * count, tau)


def test_exhaustive_audit_guard():
    at_limit = _racks_of_three(18, 17)
    assert involved_rack_count(at_limit) == 17
    _, audit = min_mincut_incomes(at_limit, mode="exhaustive")
    assert len(audit) == 2**16
    over = _racks_of_three(20, 18)
    with pytest.raises(EnumerationTooLarge, match="2\\^17 subsets"):
        min_mincut_incomes(over, mode="exhaustive")
    # greedy examines s subsets and has no guard
    _, greedy_audit = min_mincut_incomes(over, mode="greedy")
    assert len(greedy_audit) == 18


def test_selection_work_is_independent_of_rack_size():
    def config(nodes):
        return build_config(5, 6, [(nodes, 2), (nodes, 3), (nodes, 3)], 2)

    small, big = config(10**3), config(10**6)
    expected = (
        rack_curve(small),
        min_mincut_incomes(small, mode="greedy"),
        min_mincut_incomes(small, mode="exhaustive"),
    )
    tracemalloc.start()
    try:
        got = (
            rack_curve(big),
            min_mincut_incomes(big, mode="greedy"),
            min_mincut_incomes(big, mode="exhaustive"),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    # full-length leftover blocks would hold 3 * 10^6 references (24 MB)
    assert peak < 2**20


def test_general_selection_matches_two_rack_rule(example1, example2):
    for cfg in (example1, example2):
        general, _ = min_mincut_incomes(cfg, mode="exhaustive")
        assert sorted(general.coeffs) == sorted(two_rack_min_incomes(cfg).coeffs)


def test_coeff_list_validation():
    with pytest.raises(EmptyCoeffList):
        CoeffList(values=(), k=3)
    with pytest.raises(ValueError, match="ascending"):
        CoeffList(values=(F(2), F(1)), k=3)
    with pytest.raises(ValueError, match="longer"):
        CoeffList(values=(F(1), F(2)), k=1)
