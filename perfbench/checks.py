"""Independent checks of every output the benchmark's operations produce.

Nothing here compares against a stored copy of the program's output. The
references are computed apart from the program, from the raw config
documents:

- the rack model's income coefficients, from the paper's block rule over
  every leftover-block subset (only the first k incomes of each candidate are
  built, so 10^6-node racks cost nothing);
- the static model's coefficients and the basic model's closed form
  (Dimakis et al., IEEE Trans. IT 2010);
- every knee in closed form: for each distinct positive coefficient c, the
  knee is (beta, c * beta) with beta = M / (sum_j min(L_j, c) + (k - m) c),
  which is where sum_{j<m} min(L_j beta, alpha) + (k - m) alpha == M has a kink;
- the minimum cut of a scenario from its flow graph, by networkx max-flow,
  and for every scenario by the cut lemma (every newcomer feeds the collector
  through an unbounded arc and originals are uncapped, so the cut is
  sum_t min(alpha, c_t beta_e) with c_t = tau * same-rack original helpers +
  cross-rack original helpers);
- the paper's Figure 7/8/9 vertices.

`check_round` returns, for each operation index it was given an output for,
None when the output is right or (kind, reason) with kind "error" (the
operation raised or exited non-zero) or "wrong" (it returned a wrong result).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from itertools import combinations

from workloads import PAPER_SWEEP, CliResult, OpError

TOL = 1e-9
# networkx checks every scenario of an operation up to this many, and a
# seeded sample of NX_SAMPLE plus the witness beyond it
NX_ALL = 16
NX_SAMPLE = 4
SMALL_NODES = 1000
M_FACTOR = F(7, 3)


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class System:
    M: F
    k: int
    d: int
    tau: F
    cheap_cost: F
    expensive_cost: F
    racks: tuple[tuple[int, int], ...]  # (nodes, d_c), ascending by d_c


def system(doc: dict) -> System:
    racks = sorted(((r["nodes"], r["cheap_degree"]) for r in doc["racks"]), key=lambda r: r[1])
    return System(
        F(doc["file_size"]), doc["k"], doc["d"], F(doc["tau"]),
        F(doc["cheap_cost"]), F(doc["expensive_cost"]), tuple(racks),
    )


# --- reference models ------------------------------------------------------

def _involved(s: System) -> int:
    acc = 0
    for j, (_, dc) in enumerate(s.racks):
        acc += dc + 1
        if acc >= s.k:
            return j + 1
    return len(s.racks)


def _candidate(s: System, included: frozenset) -> tuple[F, ...]:
    """First k incomes when racks fail in order, each losing d_c + 1 nodes
    and, for the racks in `included` (1-based), the rest of the rack too."""
    out: list[F] = []
    before = 0
    for j, (nodes, dc) in enumerate(s.racks):
        off = s.d - dc - before
        before += dc + 1
        for i in range(dc + 1):
            out.append(max((dc - i) * s.tau + off, F(0)))
        if j + 1 in included:
            out += [max(F(off), F(0))] * min(nodes - dc - 1, s.k)
        if len(out) >= s.k:
            break
    return tuple(out[: s.k])


@dataclass(frozen=True)
class RackReference:
    best: F  # minimum income sum over the candidates
    sums: dict  # subset -> income sum
    winners: tuple  # candidates attaining the minimum
    lists: frozenset  # their trimmed, sorted coefficient lists


def rack_reference(s: System) -> RackReference:
    subsets = [frozenset(c) for size in range(_involved(s)) for c in combinations(range(1, _involved(s)), size)]
    cands = {sub: _candidate(s, sub) for sub in subsets}
    sums = {tuple(sorted(sub)): sum(c, F(0)) for sub, c in cands.items()}
    best = min(sums.values())
    winners = tuple(c for sub, c in cands.items() if sums[tuple(sorted(sub))] == best)
    bound = s.racks[0][1] * s.tau + (s.d - s.racks[0][1])
    lists = frozenset(tuple(sorted(x for x in c if x <= bound)) for c in winners)
    return RackReference(best, sums, winners, lists)


def static_list(s: System) -> tuple[F, ...]:
    dc = s.racks[0][1]
    de = s.d - dc
    coeffs = [(dc - i) * s.tau + de for i in range(min(dc, s.k - 1) + 1)]
    coeffs += [max(F(de - i), F(0)) for i in range(1, s.k - dc)]
    return tuple(sorted(coeffs))


def knees(L, k: int, M: F) -> list[tuple[int, F, F]]:
    """(index of first occurrence, beta, alpha) for each distinct positive c in L."""
    out = []
    g = F(0)
    seen = set()
    for i, c in enumerate(L):
        if c > 0 and c not in seen:
            seen.add(c)
            beta = M / (g + (k - i) * c)
            out.append((i, beta, c * beta))
        g += c
    return out


def basic_knees(k: int, d: int, M: F) -> list[tuple[int, F, F]]:
    out = []
    for i in range(k):
        gamma = 2 * M * d / F((2 * k - i - 1) * i + 2 * k * (d - k + 1))
        beta = gamma / d
        out.append((i, beta, (d - k + 1 + i) * beta))
    return out


def cut_with(L, s: System, alpha: F, beta: F) -> F:
    """sum_{j<m} min(L_j beta, alpha) + (k - m) min(bound beta, alpha)."""
    bound = s.racks[0][1] * s.tau + (s.d - s.racks[0][1])
    total = sum((min(c * beta, alpha) for c in L), F(0))
    return total + (s.k - len(L)) * min(bound * beta, alpha)


def alpha_at(L, k: int, M: F, beta: F) -> F:
    """Least alpha with sum_{j<m} min(L_j beta, alpha) + (k - m) alpha == M."""
    g = F(0)
    for i in range(len(L) + 1):
        alpha = (M - g * beta) / (k - i)
        if (i == 0 or L[i - 1] * beta <= alpha) and (i == len(L) or alpha <= L[i] * beta):
            return alpha
        if i < len(L):
            g += L[i]
    raise CheckFailed(f"no alpha for beta {beta}")


def knee_equation(L, k: int, M: F, found) -> None:
    for _, beta, alpha in found:
        lhs = sum((min(c * beta, alpha) for c in L), F(0)) + (k - len(L)) * alpha
        expect(lhs == M, f"knee ({beta}, {alpha}) gives {lhs} != M = {M}")


def dec(value: F) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _with(doc: dict, **changes) -> dict:
    out = json.loads(json.dumps(doc))
    out.update(changes)
    return out


# --- paper goldens (Figures 7, 8 and 9 at M = 1, cheap cost 1, expensive 10) --

FIG7_RACK = [
    (0.02500000000, 0.1000000000), (0.01724137931, 0.1034482759), (0.01388888889, 0.1111111111),
    (0.01219512195, 0.1219512195), (0.01136363636, 0.1363636364), (0.01086956522, 0.1521739130),
    (0.01063829787, 0.1702127660),
]
FIG7_STATIC = [
    (0.05, 0.1), (0.03448275862, 0.1034482759), (0.02702702703, 0.1081081081),
    (0.02272727273, 0.1136363636), (0.02, 0.12), (0.01666666667, 0.1333333333),
    (0.01470588235, 0.1470588235), (0.01351351351, 0.1621621622), (0.01282051282, 0.1794871795),
    (0.0125, 0.2),
]
FIG8 = {
    F(1): [
        (0.05, 0.1), (0.03448275862, 0.1034482759), (0.02702702703, 0.1081081081),
        (0.02272727273, 0.1136363636), (0.02, 0.12), (0.01818181818, 0.1272727273),
        (0.01694915254, 0.1355932203), (0.01612903226, 0.1451612903), (0.015625, 0.15625),
        (0.01538461538, 0.1692307692),
    ],
    F(6, 5): [
        (0.04166666667, 0.1), (0.02873563218, 0.1034482759), (0.02252252252, 0.1081081081),
        (0.01893939394, 0.1136363636), (0.01700680272, 0.1224489796), (0.01572327044, 0.1320754717),
        (0.01488095238, 0.1428571429), (0.01436781609, 0.1551724138), (0.01412429379, 0.1694915254),
    ],
    F(2): FIG7_RACK,
    F(10): [
        (0.01666666667, 0.1), (0.006666666667, 0.1066666667), (0.005494505494, 0.1098901099),
        (0.004464285714, 0.1160714286), (0.004032258065, 0.1209677419), (0.003597122302, 0.1294964029),
        (0.003401360544, 0.1360544218), (0.003205128205, 0.1474358974), (0.003125, 0.15625),
        (0.003067484663, 0.1717791411),
    ],
}
# (beta_e, cost_1) per tau
FIG9 = {
    F(1): [(0.025, 1.65), (0.02272727273, 1.5), (0.02127659574, 1.404255319), (0.02040816327, 1.346938776), (0.02, 1.32)],
    F(2): [(0.02, 1.44), (0.01724137931, 1.241379310), (0.015625, 1.125), (0.01470588235, 1.058823529), (0.01428571429, 1.028571429)],
    F(5): [(0.0125, 1.125), (0.01, 0.9), (0.008695652174, 0.7826086957), (0.008, 0.72), (0.007692307692, 0.6923076923)],
    F(10): [(0.007692307692, 0.9230769231), (0.005882352941, 0.7058823529), (0.005, 0.6), (0.004545454545, 0.5454545455), (0.004347826087, 0.5217391304)],
}
# example 1 (k=4, d=4, racks (3,1),(3,2), tau=2): knees at M/8, M/11, M/13, M/14
EX1_BETAS = [F(1, 8), F(1, 11), F(1, 13), F(1, 14)]


def _close(pairs, printed, what: str) -> None:
    expect(len(pairs) == len(printed), f"{what}: {len(pairs)} vertices, paper has {len(printed)}")
    for (a, b), (pa, pb) in zip(pairs, printed):
        expect(abs(float(a) - pa) <= TOL and abs(float(b) - pb) <= TOL, f"{what}: ({float(a)}, {float(b)}) vs paper ({pa}, {pb})")


# --- CLI output ------------------------------------------------------------

def _knee_header(r: int) -> list[str]:
    cols = ["knee_index", "L_i", "beta_e", "beta_e_dec", "alpha", "alpha_dec"]
    cols += [f"{p}_{j}{suffix}" for p in ("gamma", "cost") for j in range(1, r + 1) for suffix in ("", "_dec")]
    return cols


def _check_knee_table(s: System, lines: list[str], L, expected) -> None:
    header = _knee_header(len(s.racks))
    expect(lines and lines[0].split(",") == header, f"knee header {lines[:1]}")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    expect(len(rows) == len(expected), f"{len(rows)} knee rows, expected {len(expected)}")
    for row, (i, beta, alpha) in zip(rows, expected):
        expect(len(row) == len(header), f"short row {row}")
        expect(int(row["knee_index"]) == i and F(row["L_i"]) == L[i], f"knee index/L_i {row['knee_index']},{row['L_i']}")
        expect(F(row["beta_e"]) == beta and F(row["alpha"]) == alpha, f"knee ({row['beta_e']}, {row['alpha']}) != ({beta}, {alpha})")
        for j, (_, dc) in enumerate(s.racks, start=1):
            de = s.d - dc
            expect(F(row[f"gamma_{j}"]) == (dc * s.tau + de) * beta, f"gamma_{j} {row[f'gamma_{j}']}")
            cost = (s.cheap_cost * dc * s.tau + s.expensive_cost * de) * beta
            expect(F(row[f"cost_{j}"]) == cost, f"cost_{j} {row[f'cost_{j}']}")
        for col in header:
            if col.endswith("_dec"):
                expect(row[col] == dec(F(row[col[:-4]])), f"{col} {row[col]} is not the rounding of {row[col[:-4]]}")


def _rack_expected(s: System):
    ref = rack_reference(s)
    expect(len(ref.lists) == 1, f"ambiguous minimum: {len(ref.lists)} coefficient lists")
    L = next(iter(ref.lists))
    found = knees(L, s.k, s.M)
    knee_equation(L, s.k, s.M, found)
    expect(found[0][2] == s.M / s.k, "MSR alpha != M/k")
    return ref, L, found


def _paper_goldens(ci: int, s: System, found) -> None:
    pairs = [(b / s.M, a / s.M) for _, b, a in found]
    if ci == 0:
        _close(pairs, FIG8[s.tau], f"Figure 8 tau={s.tau}")
    elif ci == 1 and s.tau in FIG9:
        dc, de = s.racks[0][1], s.d - s.racks[0][1]
        costs = [(b / s.M, (s.cheap_cost * dc * s.tau + s.expensive_cost * de) * b / s.M) for _, b, _ in found]
        _close(costs, FIG9[s.tau], f"Figure 9 tau={s.tau}")
    elif ci == 2 and s.tau == 2:
        expect([b / s.M for _, b, _ in found] == EX1_BETAS, "example 1 knees")


def _check_rack_block(ci: int, s: System, lines: list[str]) -> None:
    _, L, found = _rack_expected(s)
    _check_knee_table(s, lines, L, found)
    _paper_goldens(ci, s, found)


def _check_cli(ci: int, doc: dict, args: tuple, result: CliResult) -> None:
    expect(result.returncode == 0, f"exit {result.returncode}: {result.stderr[-300:]!r}")
    s = system(doc)
    text = result.stdout.decode("utf-8")
    lines = text.splitlines()
    cmd = args[0]
    if cmd == "curve" and "json" in args:
        _, L, found = _rack_expected(s)
        out = json.loads(text)
        expect(out["model"] == "rack" and F(out["file_size"]) == s.M and out["k"] == s.k, "json header")
        expect(tuple(F(x) for x in out["L"]) == L, f"json L {out['L']}")
        got = [(kn["knee_index"], F(kn["beta_e"]), F(kn["alpha"])) for kn in out["knees"]]
        expect(got == found, "json knees")
        for kn in out["knees"]:
            expect(kn["beta_e_dec"] == dec(F(kn["beta_e"])) and kn["alpha_dec"] == dec(F(kn["alpha"])), "json _dec")
        expect(len(out["segments"]) == len(found), "json segment count")
        _paper_goldens(ci, s, found)
    elif cmd == "curve" and "segments" in args:
        _, L, found = _rack_expected(s)
        expect(lines[0] == "segment_index,i,L_i,g_i,beta_lo,beta_hi,alpha_lo,alpha_hi", "segment header")
        expect(len(lines) - 1 == len(found), "segment count")
        prev = None
        for pos, (line, (i, beta, alpha)) in enumerate(zip(lines[1:], found)):
            cells = line.split(",")
            g = sum(L[:i], F(0))
            expect(cells[:3] == [str(pos), str(i), str(L[i])] and F(cells[3]) == g, f"segment row {line}")
            expect(F(cells[4]) == beta and F(cells[6]) == alpha, f"segment low end {line}")
            hi = beta if prev is None else prev
            expect(cells[5] == ("inf" if prev is None else str(prev)), f"segment beta_hi {line}")
            expect(F(cells[7]) == (s.M - g * hi) / (s.k - i), f"segment alpha_hi {line}")
            prev = beta
    elif cmd == "curve":
        _check_rack_block(ci, s, lines)
    elif cmd == "points":
        _, L, found = _rack_expected(s)
        rows = [line.split(",") for line in lines[1:]]
        expect([r[0] for r in rows] == ["msr", "mbr"], "points rows")
        expect(F(rows[0][1]) == found[0][1] and F(rows[0][3]) == s.M / s.k, "MSR point")
        expect(F(rows[1][1]) == found[-1][1] and F(rows[1][3]) == found[-1][2], "MBR point")
    elif cmd == "compare":
        blocks = _blocks(lines, "# model=")
        expect(list(blocks) == ["rack", "static", "basic"], f"compare blocks {list(blocks)}")
        _check_rack_block(ci, s, blocks["rack"])
        static = static_list(s)
        found = knees(static, s.k, s.M)
        knee_equation(static, s.k, s.M, found)
        _check_knee_table(s, blocks["static"], static, found)
        if ci == 0 and s.tau == 2:
            _close([(b / s.M, a / s.M) for _, b, a in found], FIG7_STATIC, "Figure 7 static")
        basic = tuple(F(s.d - s.k + 1 + i) for i in range(s.k))
        _check_knee_table(s, blocks["basic"], basic, basic_knees(s.k, s.d, s.M))
    elif cmd == "sweep":
        blocks = _blocks(lines, "# tau=")
        expect(list(blocks) == PAPER_SWEEP.split(","), f"sweep blocks {list(blocks)}")
        for tau, block in blocks.items():
            _check_rack_block(ci, system(_with(doc, tau=tau)), block)
    elif cmd == "verify":
        ref, L, found = _rack_expected(s)
        fields = dict(line.split(": ", 1) for line in lines)
        count = int(args[args.index("--samples") + 1])
        expect(fields.get("result") == "pass" and fields.get("mismatches") == "0", f"verify says {fields}")
        expect(int(fields["samples"]) == 2 * len(found) + count, f"{fields['samples']} samples")
        expect(F(fields["greedy_sum"]) == F(fields["exhaustive_sum"]) == ref.best, "selection sums")
    else:
        raise CheckFailed(f"no check for {cmd}")


def _blocks(lines: list[str], marker: str) -> dict[str, list[str]]:
    blocks: dict[str, list[str]] = {}
    current = None
    for line in lines:
        if line.startswith(marker):
            current = blocks.setdefault(line[len(marker):], [])
        else:
            expect(current is not None, f"output before the first {marker!r} line")
            current.append(line)
    return blocks


# --- in-process outputs ----------------------------------------------------

def _cut_vector(scenario, n: int, tau: F) -> tuple[F, ...]:
    return tuple(sorted(
        tau * sum(1 for h in same if h < n) + sum(1 for h in cross if h < n)
        for same, cross in scenario.helpers
    ))


def _cut(vector, alpha: F, beta: F) -> F:
    return sum((min(alpha, c * beta) for c in vector), F(0))


def _nx_value(graph) -> F:
    import networkx as nx

    g = nx.DiGraph()
    for u, v, cap in graph.arcs:
        expect(not g.has_edge(u, v), f"parallel arc {u}->{v}")
        if cap is None:
            g.add_edge(u, v)  # no capacity attribute: unbounded
        else:
            g.add_edge(u, v, capacity=cap)
    return F(nx.maximum_flow_value(g, graph.source, graph.sink))


def _check_verify(doc: dict, args: tuple, report) -> None:
    from racktradeoff import config, flowgraph

    mode, count, seed = args
    s = system(doc)
    ref = rack_reference(s)
    expect(report.greedy_sum == report.exhaustive_sum == ref.best, f"selection sums {report.greedy_sum}, {report.exhaustive_sum} vs {ref.best}")
    expect(not report.mismatches, f"{len(report.mismatches)} analytic/oracle mismatches")
    # the first samples are the knees, then midpoints, a plateau point and `count` random points
    points = [(p.beta_e, p.alpha) for p in report.samples]
    matched = [L for L in ref.lists if points[: len(knees(L, s.k, s.M))] == [(b, a) for _, b, a in knees(L, s.k, s.M)]]
    expect(bool(matched), "knee samples do not match the reference curve")
    L = matched[0]
    expect(len(points) == 2 * len(knees(L, s.k, s.M)) + count, f"{len(points)} samples")

    cfg = config.parse_and_validate(doc)
    generate = flowgraph.structured_scenarios if mode == "structured" else flowgraph.exhaustive_scenarios
    scenarios = list(generate(cfg))
    n = sum(nodes for nodes, _ in s.racks)
    vectors = {_cut_vector(sc, n, s.tau) for sc in scenarios}
    for p in report.samples:
        least = min(_cut(v, p.alpha, p.beta_e) for v in vectors)
        expect(p.oracle == least, f"oracle {p.oracle} != min cut {least} at ({p.beta_e}, {p.alpha})")
        expect(p.analytic == cut_with(L, s, p.alpha, p.beta_e), f"analytic {p.analytic} at ({p.beta_e}, {p.alpha})")

    rng = random.Random(f"{mode}:{seed}")
    p = rng.choice(report.samples)
    chosen = scenarios if len(scenarios) <= NX_ALL else rng.sample(scenarios, NX_SAMPLE)
    values = []
    for sc in chosen + [p.witness]:
        value = _nx_value(flowgraph.build_flow_graph(cfg, sc, p.alpha, p.beta_e))
        expect(value == _cut(_cut_vector(sc, n, s.tau), p.alpha, p.beta_e), f"networkx {value} disagrees with the cut lemma")
        values.append(value)
    expect(values[-1] == p.oracle, f"witness max-flow {values[-1]} != oracle {p.oracle}")
    if chosen is scenarios:
        expect(min(values) == p.oracle, f"min max-flow {min(values)} != oracle {p.oracle}")


def _check_curve(s: System, curve, ref: RackReference) -> list:
    expect(curve.L.values in ref.lists, f"the {len(curve.L)} coefficients ending {curve.L.values[-1]} are not a minimum-income list")
    found = knees(curve.L.values, s.k, s.M)
    expect(list(curve.knees) == found, "knees differ from the closed form")
    knee_equation(curve.L.values, s.k, s.M, found)
    expect(found[0][2] == s.M / s.k, "MSR alpha != M/k")
    return found


def _check_wide_curve(doc: dict, curve) -> None:
    from racktradeoff import config, threshold

    s = system(doc)
    _check_curve(s, curve, rack_reference(s))
    small = _with(doc, racks=[{"nodes": SMALL_NODES + r["nodes"] % 1000, "cheap_degree": r["cheap_degree"]} for r in doc["racks"]])
    small_curve = threshold.rack_curve(config.parse_and_validate(small))
    expect(small_curve.knees == curve.knees and small_curve.L == curve.L, "curve changes when racks shrink to 10^3 nodes")
    scaled = threshold.rack_curve(config.parse_and_validate(_with(small, file_size=str(s.M * M_FACTOR))))
    expect(
        [(i, b * M_FACTOR, a * M_FACTOR) for i, b, a in curve.knees] == list(scaled.knees),
        "scaling M does not scale every knee",
    )


def _check_audit(doc: dict, mode: str, result) -> None:
    seq, audit = result
    s = system(doc)
    ref = rack_reference(s)
    seen = dict(audit)
    for subset, total in audit:
        expect(ref.sums.get(tuple(subset)) == total, f"subset {subset} sum {total} != {ref.sums.get(tuple(subset))}")
    if mode == "exhaustive":
        expect(set(seen) == set(ref.sums), f"audited {len(seen)} of {len(ref.sums)} subsets")
    expect(seq.total() == ref.best and tuple(seq.coeffs) in ref.winners, f"{mode} selection sum {seq.total()} != {ref.best}")


def _check_sweep(doc: dict, args: tuple, result) -> None:
    rack, static, basic, alphas = result
    s = system(doc)
    found = _check_curve(s, rack, rack_reference(s))
    expect(static.L.values == static_list(s) and list(static.knees) == knees(static_list(s), s.k, s.M), "static curve")
    expect(list(basic.knees) == basic_knees(s.k, s.d, s.M), "basic curve differs from the closed form")
    lo, hi = found[-1][1], 2 * found[0][1]
    for p, alpha in zip(args, alphas):
        beta = lo + (hi - lo) * p
        expect(alpha == alpha_at(rack.L.values, s.k, s.M, beta), f"alpha*({beta}) = {alpha}")
    expect(len(alphas) == len(args), "alpha count")


def check_op(op, doc: dict, output) -> None:
    if isinstance(output, OpError):
        raise CheckFailed(output.error)
    if op.kind == "cli":
        _check_cli(op.cfg, doc, op.args, output)
    elif op.kind == "verify":
        _check_verify(doc, op.args, output)
    elif op.kind == "curve":
        _check_wide_curve(doc, output)
    elif op.kind == "audit":
        _check_audit(doc, op.args[0], output)
    elif op.kind == "sweep":
        _check_sweep(doc, op.args, output)
    else:
        raise CheckFailed(f"no check for {op.kind}")


def check_round(rnd, outputs: dict) -> dict:
    verdicts = {}
    for i, output in outputs.items():
        op = rnd.ops[i]
        try:
            check_op(op, rnd.configs[op.cfg], output)
            verdicts[i] = None
        except Exception as exc:  # a malformed output can break a check anywhere
            # exit code 3 is verify reporting a mismatch: a wrong result, not a crash
            failed_run = isinstance(output, OpError) or (isinstance(output, CliResult) and output.returncode not in (0, 3))
            reason = str(exc) if isinstance(exc, CheckFailed) else f"malformed output: {type(exc).__name__}: {exc}"
            verdicts[i] = ("error" if failed_run else "wrong", reason)
    return verdicts
