"""Runs one workload's operations in a closed loop, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS PHASE OUT

PHASE is `setup` (set up and stop), `run` (untraced) or `trace` (rounds
alternate untraced and traced). One client sends the next operation only
after the previous one has returned. Whole rounds run until SECONDS have
passed; each round has new values (see workloads.py), and its configs are
made between rounds, untimed. After the timed rounds, a few operations of the
first round run once more, untimed, to show that a repeat gives the same
output. A speed meter (speed.py) samples the process's speed throughout, and
each operation's time is scaled by it; for `paper-cli` the worker and its CLI
processes share one vCPU, so the meter measures the one the CLI runs on. The
worker imports only the program and the standard library, so its peak RSS is
the program's; for `paper-cli` the peak is that of the CLI
processes it starts, one at a time. The outputs to check and the timings are
pickled to OUT, one record after another, for run.py, which checks them.
"""

from __future__ import annotations

import os
import pickle
import resource
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_run")
CLI_TIMEOUT_S = 120
REPEATS = 4  # operations of the first round that run again after the timed rounds


def cli_env() -> dict[str, str]:
    """Environment of the worker and of the CLI processes.

    The mmap threshold is fixed at glibc's default: glibc otherwise raises it
    after the first large free, and whether a later list of 10^6 incomes
    then reuses the heap or grows it moved `wide-racks` peak RSS by 8 MB
    between runs."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), MALLOC_MMAP_THRESHOLD_="131072")


class Context:
    """Validated configs of one round, plus what the CLI operations need."""

    def __init__(self, workload: str, rnd, index: int = 0) -> None:
        from racktradeoff import config

        self.rnd = rnd
        self.tracer = None  # set while a traced round runs
        self.cfgs = []
        self.paths = []
        if workload == "paper-cli":
            import json

            import racktradeoff.cli  # noqa: F401  compiles the CLI once, before timing

            os.makedirs(WORKDIR, exist_ok=True)
            for i, doc in enumerate(rnd.configs):
                path = os.path.join(WORKDIR, f"cfg-{os.getpid()}-{index}-{i}.json")
                with open(path, "w", encoding="utf-8") as out:
                    json.dump(doc, out)
                self.paths.append(path)
                self.cfgs.append(config.load_config(path))
        else:
            self.cfgs = [config.parse_and_validate(doc) for doc in rnd.configs]

    def close(self) -> None:
        while self.paths:
            os.unlink(self.paths.pop())


def execute(op, ctx: Context):
    """Run one operation and return its output, the object the checks read."""
    from racktradeoff import flowgraph, incomes, threshold

    cfg = ctx.cfgs[op.cfg]
    if op.kind == "verify":
        mode, count, seed = op.args
        return flowgraph.verify(cfg, count=count, seed=seed, mode=mode)
    if op.kind == "curve":
        return threshold.rack_curve(cfg)
    if op.kind == "audit":
        return incomes.min_mincut_incomes(cfg, mode=op.args[0])
    if op.kind == "sweep":
        rack = threshold.rack_curve(cfg)
        static = threshold.reference_curve("static", cfg)
        basic = threshold.reference_curve("basic", cfg)
        lo, hi = rack.mbr_beta, 2 * rack.msr_beta
        alphas = tuple(threshold.alpha_star(rack, lo + (hi - lo) * p) for p in op.args)
        return rack, static, basic, alphas
    if op.kind == "cli":
        return _run_cli(op, ctx)
    raise ValueError(f"unknown operation {op.kind!r}")


def _run_cli(op, ctx: Context):
    from workloads import CliResult

    argv = [op.args[0], "--config", ctx.paths[op.cfg], *op.args[1:]]
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "racktradeoff.cli", *argv]
    else:
        spans_path = os.path.join(WORKDIR, f"spans-{os.getpid()}.json")
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *argv]
    proc = subprocess.run(cmd, capture_output=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
    if ctx.tracer is not None:
        import json

        with open(spans_path, encoding="utf-8") as handle:
            ctx.tracer.merge(json.load(handle))
        os.unlink(spans_path)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _attempt(op, ctx: Context):
    """The operation's output, or an OpError: one that raises counts as failed."""
    from workloads import OpError

    try:
        return execute(op, ctx)
    except Exception as exc:
        return OpError(f"{type(exc).__name__}: {exc}")


def _failed_run(out) -> bool:
    from workloads import CliResult, OpError

    return isinstance(out, OpError) or (isinstance(out, CliResult) and out.returncode not in (0, 3))


def _loop(workload: str, seed: int, ctx: Context, seconds: float, save, meter, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed. With a tracer, rounds
    alternate untraced and traced, so both see the same machine. Each round's
    outputs to check go to `save` at once, so that the worker's memory, and
    with it the peak RSS, does not grow with the number of rounds."""
    import random

    from workloads import build_round, checked_ops

    rounds: list[list[tuple[float, int, int]]] = []  # per operation: net seconds, samples
    traced: list[bool] = []
    out_bytes = 0
    start = perf_counter()
    # with a tracer, stop only after a traced round, so both kinds repeat alike
    while not rounds or (tracer and len(rounds) % 2) or perf_counter() - start < seconds:
        index = len(rounds)
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.op = -1  # the round's set-up
            tracer.install()
        if index:
            ctx = Context(workload, build_round(workload, seed, index), index)
        ctx.tracer = tracer if tracing else None
        ops = ctx.rnd.ops
        check = checked_ops(workload, seed, index, len(ops))
        times = []
        kept = {}
        for i, op in enumerate(ops):
            if tracing:
                tracer.op = index * len(ops) + i
            first = meter.mark()
            t0 = meter.clock()
            out = _attempt(op, ctx)
            times.append((meter.clock() - t0, first, meter.mark()))
            if tracing:
                out_bytes += len(getattr(out, "stdout", b""))
            if i in check or _failed_run(out):
                kept[i] = out
            del out
        if tracing:
            tracer.uninstall()
        ctx.close()
        save(("outputs", index, kept))
        del kept
        rounds.append(times)
        traced.append(tracing)
    meter.settle()
    # keyed like tracer.op: index * len(ops) + i
    factors = {index * len(times) + i: meter.factor(first, last)
               for index, times in enumerate(rounds) for i, (_, first, last) in enumerate(times)}
    raw = [[t for t, _, _ in times] for times in rounds]
    scaled = [[t * factors[index * len(times) + i] for i, t in enumerate(times)] for index, times in enumerate(raw)]
    who = resource.RUSAGE_CHILDREN if any(op.kind == "cli" for op in ctx.rnd.ops) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # untimed: run.py compares these with the first round's outputs
    again = Context(workload, build_round(workload, seed))
    try:
        repeated = random.Random(f"repeat:{workload}:{seed}").sample(range(len(again.rnd.ops)), min(REPEATS, len(again.rnd.ops)))
        save(("repeat", {i: _attempt(again.rnd.ops[i], again) for i in repeated}))
    finally:
        again.close()
    return {"rounds": scaled, "raw": raw, "factors": factors, "traced": traced, "peak_rss_mb": peak_rss_mb, "output_bytes": out_bytes}


def main(argv: list[str]) -> int:
    workload, seed, seconds, phase, out_path = argv[0], int(argv[1]), float(argv[2]), argv[3], argv[4]
    from speed import SpeedMeter, pin_to_one_cpu

    if workload == "paper-cli":
        pin_to_one_cpu()
    meter = SpeedMeter().start()
    first = meter.mark()
    t0 = meter.clock()
    import racktradeoff  # noqa: F401  set-up time includes the import

    from workloads import build_round

    ctx = Context(workload, build_round(workload, seed))
    setup_s = meter.clock() - t0
    last = meter.mark()
    meter.settle()
    result: dict = {"setup_s": setup_s * meter.factor(first, last), "setup_raw_s": setup_s}
    tracer = None
    if phase == "trace":
        from tracer import Tracer

        tracer = Tracer(meter.clock)
    with open(out_path, "wb") as out:
        def save(record) -> None:
            pickle.dump(record, out)
            out.flush()

        try:
            if phase != "setup":
                result.update(_loop(workload, seed, ctx, seconds, save, meter, tracer))
                factors = result.pop("factors")
        finally:
            meter.stop()
            ctx.close()
        if tracer is not None:
            from tracer import summarize

            traced_ops = len(ctx.rnd.ops) * sum(result["traced"])
            layers = summarize(tracer.spans, traced_ops, factors)
            layers["cli.output_bytes"] = result["output_bytes"] / traced_ops
            result["layers"] = layers
            tracer.dump(os.path.join(WORKDIR, f"spans-{workload}-{seed}.json"))
        save(("result", result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
