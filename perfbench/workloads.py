"""Seeded inputs and operations of the four benchmark workloads.

A workload is a list of operations, one *round*; a run repeats whole rounds.
Everything here is a pure function of the seed and the round's index, so the
worker that times the operations and the parent that checks their outputs
build the same rounds. The program only ever sees the generated config
documents.

Each workload fixes the *shape* of its inputs (rack layout, k, ladder rungs)
and lets the seed and the round's index pick values that leave the work of an
operation (nearly) unchanged: file size, node-count offsets, verify's
sample seed, and tau only where the interpreter start dwarfs it (the CLI) or
where every subset is audited anyway. The i-th operation of every round is
the same operation on new values. Runs with different seeds therefore do the
same work and their timings can be compared, and no cache that outlives a
call can serve a later round from an earlier one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

WORKLOADS = ("paper-cli", "verify-large", "verify-small", "wide-racks")

# verify-large: two-rack ladder in the guaranteed family d = d_c^1 + d_c^2 + 1.
# It stops at k=60 (~1 s a call): with k=80 (2-3 s) or k=100 (4-9 s) only
# three or four rounds fit in a run, and the figures then spread by a third
# between seeds.
LADDER = (20, 40, 60)
# verify-small: every guaranteed-family shape with at most this many nodes.
SMALL_MAX_NODES = 7
SMALL_MAX_K = 4
SMALL_TAUS = ("1", "3/2", "2", "3")
# wide-racks
WIDE_NODES = 10**6
WIDE_AUDIT_RACKS = 13
WIDE_AUDIT_INVOLVED = 11
SWEEP_K = 100
SWEEP_TAUS = ("1", "6/5", "3/2", "2", "5/2", "10")  # fixed: tau sets the knee count
SWEEP_BETAS = 8
# outputs checked in every round after the first, which is checked whole;
# None checks every operation of every round
CHECKED_PER_ROUND = {"paper-cli": None, "verify-large": 1, "verify-small": 24, "wide-racks": 3}


@dataclass(frozen=True)
class Op:
    """One timed operation: `kind` names what runs, `cfg` is its config index."""

    kind: str
    cfg: int
    args: tuple[Any, ...] = ()


@dataclass(frozen=True)
class Round:
    configs: tuple[dict, ...]  # raw config documents, as a user would write them
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class OpError:
    """An operation that raised instead of returning."""

    error: str


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def config_doc(k: int, d: int, racks, tau, file_size, cheap_cost="1", expensive_cost="10") -> dict:
    return {
        "file_size": str(Fraction(file_size)),
        "k": k,
        "d": d,
        "tau": str(Fraction(tau)),
        "cheap_cost": str(Fraction(cheap_cost)),
        "expensive_cost": str(Fraction(expensive_cost)),
        "racks": [{"nodes": n, "cheap_degree": dc} for n, dc in racks],
    }


def _file_size(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 999), rng.randint(1, 9))


# --- paper-cli -------------------------------------------------------------

PAPER_SWEEP = "1,6/5,2,10"
FIG78_TAUS = ("1", "6/5", "2", "10")
FIG9_TAUS = ("1", "2", "5", "10")


def _paper_cli(rng: random.Random) -> Round:
    configs = (
        # Figures 7/8: k=10, d=11, two racks of 6 nodes with d_c=5
        config_doc(10, 11, [(6, 5), (6, 5)], rng.choice(FIG78_TAUS), _file_size(rng)),
        # Figure 9: k=5, d=12, two racks of 7 nodes with d_c=6
        config_doc(5, 12, [(7, 6), (7, 6)], rng.choice(FIG9_TAUS), _file_size(rng)),
        # example 1: k=4, d=4, racks (3,1) and (3,2), tau=2
        config_doc(4, 4, [(3, 1), (3, 2)], 2, _file_size(rng)),
    )
    ops = []
    for c in range(len(configs)):
        ops += [
            Op("cli", c, ("curve", "--model", "rack", "--format", "csv", "--table", "knees")),
            Op("cli", c, ("curve", "--model", "rack", "--format", "csv", "--table", "segments")),
            Op("cli", c, ("curve", "--model", "rack", "--format", "json")),
            Op("cli", c, ("points", "--model", "rack")),
            Op("cli", c, ("compare", "--models", "rack,static,basic")),
            Op("cli", c, ("sweep", "--model", "rack", "--tau", PAPER_SWEEP)),
            Op("cli", c, ("verify", "--samples", "10", "--seed", str(rng.randrange(10**6)), "--mode", "structured")),
        ]
    ops.append(Op("cli", 2, ("verify", "--samples", "10", "--seed", str(rng.randrange(10**6)), "--mode", "exhaustive")))
    return Round(configs, tuple(ops))


# --- verify-large ----------------------------------------------------------

def _verify_large(rng: random.Random) -> Round:
    configs, ops = [], []
    for k in LADDER:
        # d = k and racks of d_c + 1 nodes: no leftover blocks, so the oracle
        # builds one flow-graph template of 2 + 2(n + k) vertices per sample
        # tau = 2 keeps all k coefficients distinct (k knees, 2k + 10 samples);
        # a tau like 3 merges knees and cuts the work by a third
        dc1 = k // 2 - 1
        dc2 = k - 1 - dc1
        configs.append(config_doc(k, k, [(dc1 + 1, dc1), (dc2 + 1, dc2)], 2, rng.randint(1, 99)))
        ops.append(Op("verify", len(configs) - 1, ("structured", 10, rng.randrange(10**6))))
    return Round(tuple(configs), tuple(ops))


# --- verify-small ----------------------------------------------------------

def small_shapes() -> list[tuple[int, int, int, int, int]]:
    """(k, d_c^1, d_c^2, n_1, n_2) of every guaranteed-family two-rack system
    with at most SMALL_MAX_NODES nodes and k <= SMALL_MAX_K."""
    shapes = []
    for dc1 in range(1, SMALL_MAX_NODES):
        for dc2 in range(dc1, SMALL_MAX_NODES):
            for n1 in range(dc1 + 1, SMALL_MAX_NODES):
                for n2 in range(dc2 + 1, SMALL_MAX_NODES + 1 - n1):
                    for k in range(1, min(SMALL_MAX_K, dc1 + dc2 + 1, n1 + n2) + 1):
                        shapes.append((k, dc1, dc2, n1, n2))
    return shapes


def _verify_small(rng: random.Random) -> Round:
    configs, ops = [], []
    for index, (k, dc1, dc2, n1, n2) in enumerate(small_shapes()):
        # tau is tied to the shape, not drawn, so every seed does the same work
        tau = SMALL_TAUS[index % len(SMALL_TAUS)]
        configs.append(config_doc(k, dc1 + dc2 + 1, [(n1, dc1), (n2, dc2)], tau, rng.randint(1, 99)))
        c = len(configs) - 1
        ops.append(Op("verify", c, ("structured", 10, rng.randrange(10**6))))
        ops.append(Op("verify", c, ("exhaustive", 10, rng.randrange(10**6))))
    return Round(tuple(configs), tuple(ops))


# --- wide-racks ------------------------------------------------------------

def _audit_config(rng: random.Random) -> dict:
    """WIDE_AUDIT_RACKS racks of 3 nodes, k chosen so that exactly
    WIDE_AUDIT_INVOLVED racks are involved (2^(s-1) audited subsets)."""
    dcs = sorted(1 + j % 2 for j in range(WIDE_AUDIT_RACKS))
    k = sum(dc + 1 for dc in dcs[: WIDE_AUDIT_INVOLVED - 1]) + 1
    return config_doc(k, k + 1, [(3, dc) for dc in dcs], rng.choice(("3/2", "2", "5/2")), _file_size(rng))


def _wide_racks(rng: random.Random) -> Round:
    # tau decides whether the winning candidate keeps the first rack's 10^6
    # leftover incomes, which changes the work threefold, so it is fixed
    big = config_doc(5, 6, [(WIDE_NODES + rng.randrange(1000), dc) for dc in (2, 3, 3)], 2, _file_size(rng))
    audit = _audit_config(rng)
    configs = [big, audit]
    ops = [Op("curve", 0), Op("audit", 1, ("greedy",)), Op("audit", 1, ("exhaustive",))]
    M = _file_size(rng)
    for tau in SWEEP_TAUS:
        configs.append(config_doc(SWEEP_K, SWEEP_K, [(SWEEP_K // 2 + 1, SWEEP_K // 2 - 1), (SWEEP_K // 2 + 1, SWEEP_K // 2)], tau, M))
        points = tuple(Fraction(rng.randrange(1025), 1024) for _ in range(SWEEP_BETAS))
        ops.append(Op("sweep", len(configs) - 1, points))
    return Round(tuple(configs), tuple(ops))


_BUILDERS = {
    "paper-cli": _paper_cli,
    "verify-large": _verify_large,
    "verify-small": _verify_small,
    "wide-racks": _wide_racks,
}


def build_round(workload: str, seed: int, index: int = 0) -> Round:
    """Round `index` of a run: the workload's fixed shapes with new values."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}:{index}"))


def checked_ops(workload: str, seed: int, index: int, ops: int) -> frozenset[int]:
    """Indices of the operations of round `index` whose outputs are checked:
    every one in the first round, a seeded sample in later ones."""
    count = CHECKED_PER_ROUND[workload]
    if index == 0 or count is None or count >= ops:
        return frozenset(range(ops))
    return frozenset(random.Random(f"check:{workload}:{seed}:{index}").sample(range(ops), count))
