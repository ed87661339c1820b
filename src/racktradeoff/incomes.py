"""Newcomer income multisets and minimum-mincut-set selection.

Incomes are carried as coefficients of the expensive traffic unit, so a term
with coefficient c stands for c * beta_e downloaded data. Selection works on
two levels: the closed two-rack rule and the general candidate-subset search
(greedy and exhaustive) over included leftover blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Collection, Iterable

from .config import SystemConfig
from .errors import EmptyCoeffList, EmptyIncome, EnumerationTooLarge, NotTwoRack

__all__ = [
    "IncomeTerm",
    "IncomeSequence",
    "CoeffList",
    "two_rack_components",
    "two_rack_min_incomes",
    "general_income_pool",
    "involved_rack_count",
    "candidate_sequence",
    "min_mincut_incomes",
    "trim_bound",
    "feasibility_trim",
    "rack_coeff_list",
]

_ZERO = Fraction(0)

# exhaustive block audits examine 2^(s-1) subsets; above this they are refused
_EXHAUSTIVE_MAX_SUBSETS = 2**16


@dataclass(frozen=True)
class IncomeTerm:
    """One newcomer's income, as a multiple of beta_e."""

    coeff: Fraction
    rack: int
    ordinal: int


@dataclass(frozen=True)
class IncomeSequence:
    """Ordered newcomer incomes in construction order (rack by rack)."""

    terms: tuple[IncomeTerm, ...]
    origin: str = ""

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(t.coeff for t in self.terms)

    def total(self) -> Fraction:
        return sum((t.coeff for t in self.terms), _ZERO)

    def truncated(self, k: int) -> "IncomeSequence":
        return IncomeSequence(terms=self.terms[:k], origin=self.origin)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class CoeffList:
    """Ascending income coefficients; the threshold function's input."""

    values: tuple[Fraction, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.values:
            raise EmptyCoeffList("coefficient list is empty")
        if list(self.values) != sorted(self.values):
            raise ValueError("coefficient list must be ascending")
        if len(self.values) > self.k:
            raise ValueError("coefficient list longer than k")

    def __len__(self) -> int:
        return len(self.values)


def _terms(coeffs: Iterable[Fraction], rack: int, start: int = 0) -> list[IncomeTerm]:
    return [IncomeTerm(coeff=c, rack=rack, ordinal=start + i) for i, c in enumerate(coeffs)]


def two_rack_components(cfg: SystemConfig) -> tuple[IncomeSequence, IncomeSequence, IncomeSequence]:
    """The three candidate income blocks of the two-rack selection rule.

    The first block is the mandatory d_c^1 + 1 first-rack newcomers; the other
    two are the competing completions (leftover first-rack nodes versus
    second-rack nodes). Short blocks are padded with zero incomes so both
    completions have length k - d_c^1 - 1.
    """
    if cfg.num_racks != 2:
        raise NotTwoRack(f"expected 2 racks, got {cfg.num_racks}")
    k, tau = cfg.k, cfg.tau
    dc1, dc2 = cfg.cheap_degrees
    de1 = cfg.expensive_degrees[0]
    n1 = cfg.racks[0].nodes

    i1 = [Fraction(dc1 - i) * tau + de1 for i in range(min(dc1, k - 1) + 1)]

    need = max(k - dc1 - 1, 0)
    i2: list[Fraction] = [Fraction(de1)] * min(need, n1 - dc1 - 1)
    i2 += [Fraction(dc2 - i) * tau for i in range(min(dc2, k - n1 - 1) + 1)]
    i2 = [max(c, _ZERO) for c in i2[:need]] + [_ZERO] * max(need - len(i2), 0)

    i3 = [Fraction(dc2 - i) * tau for i in range(min(dc2, k - dc1 - 2) + 1)]
    i3 = [max(c, _ZERO) for c in i3[:need]] + [_ZERO] * max(need - len(i3), 0)

    n_first = min(need, n1 - dc1 - 1) if need > 0 else 0
    seq1 = IncomeSequence(terms=tuple(_terms(i1, rack=0)), origin="I1")
    seq2 = IncomeSequence(
        terms=tuple(_terms(i2[:n_first], rack=0) + _terms(i2[n_first:], rack=1, start=n_first)),
        origin="I2",
    )
    seq3 = IncomeSequence(terms=tuple(_terms(i3, rack=1)), origin="I3")
    return seq1, seq2, seq3


def two_rack_min_incomes(cfg: SystemConfig) -> IncomeSequence:
    """Minimum-mincut income sequence for two racks.

    Takes the mandatory first-rack block, then the completion with the
    strictly smaller income sum (the second-rack completion wins ties).
    """
    i1, i2, i3 = two_rack_components(cfg)
    if cfg.k <= cfg.cheap_degrees[0] + 1:
        return IncomeSequence(terms=i1.terms[: cfg.k], origin="I1")
    tail = i2 if i2.total() < i3.total() else i3
    terms = i1.terms + tuple(
        IncomeTerm(coeff=t.coeff, rack=t.rack, ordinal=len(i1.terms) + i)
        for i, t in enumerate(tail.terms)
    )
    return IncomeSequence(terms=terms, origin=f"I1+{tail.origin}")


def _block_offset(cfg: SystemConfig, j: int) -> int:
    """Newcomers already counted before rack j starts replacing."""
    return sum(cfg.cheap_degrees[z] + 1 for z in range(j))


def involved_rack_count(cfg: SystemConfig) -> int:
    """Smallest s with sum_{j<=s} (d_c^j + 1) >= k; all racks if none suffices."""
    acc = 0
    for j in range(cfg.num_racks):
        acc += cfg.cheap_degrees[j] + 1
        if acc >= cfg.k:
            return j + 1
    return cfg.num_racks


def _scaled_rack(cfg: SystemConfig, j: int, limit: int) -> tuple[list[int], int, int]:
    """Rack j's income coefficients times tau's denominator, clamped at zero.

    Returns the first min(d_c^j + 1, limit) main-block coefficients, the one
    coefficient every leftover newcomer shares, and the leftover block's length
    nodes - d_c^j - 1. Scaled coefficients are integers, so sums are exact.
    """
    p, q = cfg.tau.numerator, cfg.tau.denominator
    dc = cfg.cheap_degrees[j]
    off = cfg.expensive_degrees[j] - _block_offset(cfg, j)
    main = [max((dc - i) * p + off * q, 0) for i in range(min(dc + 1, limit))]
    return main, max(off, 0) * q, cfg.racks[j].nodes - dc - 1


def general_income_pool(cfg: SystemConfig) -> tuple[IncomeSequence, list[IncomeSequence], int]:
    """All n newcomer incomes in construction order plus the leftover blocks.

    Returns the pool, the per-rack leftover blocks, and the involved-rack
    count s. This is the one function whose work grows with rack size.
    """
    q = cfg.tau.denominator
    terms: list[IncomeTerm] = []
    leftovers: list[IncomeSequence] = []
    for j, rack in enumerate(cfg.racks):
        main, leftover, spare = _scaled_rack(cfg, j, rack.nodes)
        terms += _terms((Fraction(c, q) for c in main), rack=j, start=len(terms))
        block_terms = _terms([Fraction(leftover, q)] * spare, rack=j, start=len(terms))
        terms += block_terms
        leftovers.append(IncomeSequence(terms=tuple(block_terms), origin=f"I^{j + 1}"))
    pool = IncomeSequence(terms=tuple(terms), origin="I'")
    return pool, leftovers, involved_rack_count(cfg)


# (main block, main-block terms of this rack and every rack before it,
# leftover coefficient, leftover count); a plain tuple, because building a
# dataclass at import time adds to the start-up of every CLI call
_Block = tuple[tuple[int, ...], int, int, int]


def _blocks(cfg: SystemConfig) -> tuple[list[_Block], list[int]]:
    """Each involved rack's first k incomes, scaled as in `_scaled_rack`, and
    the running sums of their main blocks in construction order.

    Every candidate's first k terms lie in the involved racks' blocks.
    """
    blocks: list[_Block] = []
    mains: list[int] = []
    for j in range(involved_rack_count(cfg)):
        main, leftover, spare = _scaled_rack(cfg, j, cfg.k)
        mains += main
        blocks.append((tuple(main), len(mains), leftover, spare))
    return blocks, list(accumulate(mains, initial=0))


def _truncated_total(
    blocks: list[_Block], main_sums: list[int], k: int, included: tuple[int, ...]
) -> int:
    """Scaled sum of a candidate's first k incomes in O(len(included)) steps.

    Every main block is in the candidate, so its first k terms are the
    leftover terms that start before position k plus the first k - (that
    many) main-block terms. `included` must be ascending.
    """
    extra = total = 0
    for j in included:
        _, end, leftover, spare = blocks[j - 1]
        room = k - end - extra
        if room <= 0:
            break
        take = min(spare, room)
        total += leftover * take
        extra += take
    return total + main_sums[min(k - extra, len(main_sums) - 1)]


def _candidate(cfg: SystemConfig, blocks: list[_Block], included: Collection[int]) -> IncomeSequence:
    """The k-term incomes of the candidate that includes the leftover blocks `included`."""
    q = cfg.tau.denominator
    coeffs: list[tuple[int, int]] = []
    for j, (main, _, leftover, spare) in enumerate(blocks):
        coeffs += [(c, j) for c in main]
        if (j + 1) in included:
            coeffs += [(leftover, j)] * min(spare, cfg.k)
        if len(coeffs) >= cfg.k:
            break
    label = "I'_{" + ",".join(str(j) for j in sorted(included)) + "}"
    terms = tuple(
        IncomeTerm(coeff=Fraction(c, q), rack=rack, ordinal=i)
        for i, (c, rack) in enumerate(coeffs[: cfg.k])
    )
    return IncomeSequence(terms=terms, origin=label)


def candidate_sequence(cfg: SystemConfig, included: Iterable[int]) -> IncomeSequence:
    """Candidate minimum-mincut incomes for one choice of leftover blocks.

    `included` holds 1-based rack indices whose leftover block joins the
    candidate; the last involved rack's block never does. The concatenation
    is truncated to the first k terms.
    """
    s = involved_rack_count(cfg)
    included_set = frozenset(included)
    for j in included_set:
        if not 1 <= j <= s - 1:
            raise IndexError(f"included block {j} outside 1..{s - 1}")
    return _candidate(cfg, _blocks(cfg)[0], included_set)


def min_mincut_incomes(
    cfg: SystemConfig, mode: str = "greedy"
) -> tuple[IncomeSequence, list[tuple[tuple[int, ...], Fraction]]]:
    """Minimum-mincut income sequence over all 2^(s-1) leftover-block subsets.

    Greedy scans blocks 1..s-1 once, dropping a block only when that strictly
    lowers the truncated income sum. Exhaustive enumerates every subset; ties
    go to fewer included blocks, then to the lexicographically lowest subset.
    Returns the winning sequence plus an audit of every (subset, sum) examined.
    Raises EnumerationTooLarge when exhaustive mode would examine more than
    _EXHAUSTIVE_MAX_SUBSETS subsets.
    """
    if mode not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    s = involved_rack_count(cfg)
    if mode == "exhaustive" and 2 ** (s - 1) > _EXHAUSTIVE_MAX_SUBSETS:
        raise EnumerationTooLarge(
            f"exhaustive block audit needs 2^{s - 1} subsets, over the limit of "
            f"{_EXHAUSTIVE_MAX_SUBSETS}"
        )
    blocks, main_sums = _blocks(cfg)
    q = cfg.tau.denominator
    audit: list[tuple[tuple[int, ...], Fraction]] = []

    def examined(subset: tuple[int, ...]) -> int:
        total = _truncated_total(blocks, main_sums, cfg.k, subset)
        audit.append((subset, Fraction(total, q)))
        return total

    if mode == "greedy":
        included = tuple(range(1, s))
        best = examined(included)
        for j in range(1, s):
            dropped = tuple(i for i in included if i != j)
            total = examined(dropped)
            if total < best:
                included, best = dropped, total
        winner = included
    else:
        ranked = []
        for size in range(s):
            for subset in combinations(range(1, s), size):
                ranked.append((examined(subset), size, subset))
        winner = min(ranked)[2]
    return _candidate(cfg, blocks, winner), audit


def trim_bound(cfg: SystemConfig) -> Fraction:
    """Feasibility bound: the first rack's first-newcomer income coefficient."""
    return Fraction(cfg.cheap_degrees[0]) * cfg.tau + cfg.expensive_degrees[0]


def feasibility_trim(incomes: IncomeSequence, cfg: SystemConfig) -> CoeffList:
    """Drop coefficients above the repair-bandwidth bound and sort ascending.

    Coefficients exceeding d_c^1 * tau + d_e^1 would put the curve past the
    point where stored data outgrows the cheapest rack's repair bandwidth, so
    they are removed.
    """
    if not incomes.terms:
        raise EmptyIncome("income sequence is empty")
    bound = trim_bound(cfg)
    kept = sorted(c for c in incomes.coeffs if c <= bound)
    return CoeffList(values=tuple(kept), k=cfg.k)


def rack_coeff_list(cfg: SystemConfig) -> CoeffList:
    """End-to-end rack-model coefficient list: select incomes, then trim.

    Two-rack configs use the closed two-rack rule; other rack counts use the
    greedy block search.
    """
    if cfg.num_racks == 2:
        incomes = two_rack_min_incomes(cfg)
    else:
        incomes, _ = min_mincut_incomes(cfg, mode="greedy")
    return feasibility_trim(incomes, cfg)
