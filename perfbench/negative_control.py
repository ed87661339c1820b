"""Negative control: the benchmark's checks must catch a wrong program.

    python3 -m pytest perfbench/negative_control.py -q

Each test runs a few operations of a workload in this process, exactly as the
worker does, and checks their outputs as run.py does. With the real program
every verdict is clean; with a wrong coefficient list, or with a verify
report whose oracle value is wrong but agrees with its own analytic value,
the operation must come back as "wrong".
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
from tracer import rebind, restore  # noqa: E402
from worker import Context, execute  # noqa: E402
from workloads import build_round  # noqa: E402

SEED = 7


def _verdicts(workload: str, kinds: tuple[str, ...], limit: int = 4) -> dict:
    rnd = build_round(workload, SEED)
    picked = [i for i, op in enumerate(rnd.ops) if op.kind in kinds][:limit]
    ctx = Context(workload, rnd)
    outputs = {i: execute(rnd.ops[i], ctx) for i in picked}
    return checks.check_round(rnd, outputs)


@contextlib.contextmanager
def _replaced(original, replacement):
    replaced = rebind(original, replacement)
    try:
        yield
    finally:
        restore(replaced)


@pytest.mark.parametrize("workload,kinds", [("verify-small", ("verify",)), ("wide-racks", ("sweep", "curve"))])
def test_real_program_passes(workload, kinds):
    verdicts = _verdicts(workload, kinds)
    assert verdicts and all(v is None for v in verdicts.values()), verdicts


@pytest.mark.parametrize("workload,kinds", [("verify-small", ("verify",)), ("wide-racks", ("sweep",))])
def test_wrong_coefficient_list_is_caught(workload, kinds):
    from racktradeoff import incomes
    from racktradeoff.incomes import CoeffList

    real = incomes.rack_coeff_list

    def corrupted(cfg):
        good = real(cfg)
        return CoeffList(values=good.values[:-1] + (good.values[-1] + 1,), k=good.k)

    with _replaced(real, corrupted):
        verdicts = _verdicts(workload, kinds)
    assert verdicts and all(v is not None and v[0] == "wrong" for v in verdicts.values()), verdicts


def test_wrong_oracle_value_is_caught():
    from racktradeoff import flowgraph

    real = flowgraph.verify

    def lying(*args, **kwargs):
        # shift the last sample's oracle and analytic values together, so the
        # report still says "passed"
        report = real(*args, **kwargs)
        last = report.samples[-1]
        bumped = last.oracle + Fraction(1, 1000)
        samples = report.samples[:-1] + (dataclasses.replace(last, oracle=bumped, analytic=bumped),)
        report = dataclasses.replace(report, samples=samples)
        assert report.passed
        return report

    with _replaced(real, lying):
        verdicts = _verdicts("verify-small", ("verify",))
    assert verdicts and all(v is not None and v[0] == "wrong" for v in verdicts.values()), verdicts


def test_malformed_output_is_wrong_not_a_crash():
    # empty stdout with exit 0, non-numeric cells, and a verify report without
    # samples break the checks' parsing; each must come back as "wrong"
    cli = build_round("paper-cli", SEED)
    garbled = checks.CliResult(0, b"knee_index,L_i\nx,y\n", b"")
    verdicts = checks.check_round(cli, {i: checks.CliResult(0, b"", b"") if i % 2 else garbled for i in range(len(cli.ops))})
    assert all(v is not None and v[0] == "wrong" for v in verdicts.values()), verdicts

    small = build_round("verify-small", SEED)
    ctx = Context("verify-small", small)
    report = execute(small.ops[0], ctx)
    verdicts = checks.check_round(small, {0: dataclasses.replace(report, samples=())})
    assert verdicts[0] is not None and verdicts[0][0] == "wrong", verdicts
