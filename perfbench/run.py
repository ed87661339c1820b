"""Benchmark of racktradeoff: four workloads, checked outputs, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of paper-cli, verify-large, verify-small, wide-racks, or `all`.
Run it from anywhere inside a checkout; it builds nothing and uses the
program under `src/` of the checkout it lives in.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` its
rounds alternate untraced and traced, and it reports the per-layer metrics of
the traced rounds and the tracing overhead against the untraced ones. Every
output of a run's first round, and a seeded sample of every later round's, is
checked (see checks.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 10  # extra set-up-only processes; the timed one adds an eleventh
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_ms": "ms", "_pct": "%", "_bytes": "bytes"}


def run_worker(workload: str, seed: int, seconds: float, phase: str) -> dict:
    from worker import WORKDIR, cli_env

    os.makedirs(WORKDIR, exist_ok=True)
    out = os.path.join(WORKDIR, f"result-{os.getpid()}.pkl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), repr(seconds), phase, out]
    # a session of its own, so that a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=sys.stderr, start_new_session=True)
    try:
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        outputs, repeat = {}, {}
        with open(out, "rb") as handle:
            while True:
                record = pickle.load(handle)
                if record[0] == "outputs":
                    outputs[record[1]] = record[2]
                elif record[0] == "repeat":
                    repeat = record[1]
                else:
                    result = record[1]
                    break
        result["outputs"] = outputs
        result["changed"] = [i for i, out in repeat.items() if out != outputs[0].get(i)]
        return result
    finally:
        if os.path.exists(out):
            os.unlink(out)


def timed_rounds(phase: dict, traced: bool = False, key: str = "rounds") -> list[list[float]]:
    """The run's untraced (or traced) rounds of operation times: scaled to
    the reference speed (see speed.py), or with key="raw" wall times net of
    the speed meter's samples."""
    return [r for r, t in zip(phase[key], phase["traced"]) if t == traced]


def op_medians(rounds: list[list[float]]) -> list[float]:
    """Each operation's median over the rounds."""
    return [statistics.median(times) for times in zip(*rounds)]


def latency_metrics(rounds: list[list[float]]) -> tuple[float, float]:
    """(ops_per_s, op_ms_p50): a round's operations over the sum of their
    medians, and the median of every timed operation of the run."""
    medians = op_medians(rounds)
    return len(medians) / sum(medians), 1000.0 * statistics.median(t for times in rounds for t in times)


def _tally(workload: str, seed: int, phase: dict) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, reasons) over every attempt of the run.

    An operation fails when it raised, exited non-zero or returned a wrong
    output. An operation whose first-round output failed counts as failed in
    every round, so a fault that fails every time is the same share of every
    run; one whose repeat gave another output also counts as failed, and wrong."""
    import checks
    from workloads import build_round

    rounds = len(phase["rounds"])
    failed_at: dict[tuple[int, int], tuple[str, str]] = {}
    per_round = 0
    for index, outputs in phase["outputs"].items():
        rnd = build_round(workload, seed, index)
        per_round = len(rnd.ops)
        for i, verdict in checks.check_round(rnd, outputs).items():
            if verdict:
                failed_at[index, i] = verdict
    always = {i for (index, i) in failed_at if index == 0} | set(phase["changed"])
    failed = sum(1 for (index, i) in failed_at if i not in always) + len(always) * rounds
    correct = not phase["changed"] and all(kind != "wrong" for kind, _ in failed_at.values())
    reasons = [f"round {index} op {i}: {kind}: {why}" for (index, i), (kind, why) in sorted(failed_at.items())]
    if phase["changed"]:
        reasons.append(f"operations {sorted(phase['changed'])} gave another output when repeated")
    return correct, per_round * rounds, failed, reasons


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        phase = run_worker(workload, seed, seconds, "trace")
    else:
        # set-up-only processes run before and after the timed one
        half = SETUP_REPEATS // 2
        setups = [run_worker(workload, seed, seconds, "setup") for _ in range(half)]
        phase = run_worker(workload, seed, seconds, "run")
        setups.append(phase)
        setups += [run_worker(workload, seed, seconds, "setup") for _ in range(SETUP_REPEATS - half)]
    correct, attempted, failed, reasons = _tally(workload, seed, phase)
    for reason in reasons[:10]:
        print(f"[{workload}] {reason}", file=sys.stderr)

    if trace:
        values = dict(phase["layers"])
        slowdown = sum(op_medians(timed_rounds(phase, traced=True))) / sum(op_medians(timed_rounds(phase)))
        values["trace.overhead_pct"] = 100.0 * (slowdown - 1)
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}
    else:
        ops_per_s, op_ms_p50 = latency_metrics(timed_rounds(phase))
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "ops_per_s": ops_per_s,
            "op_ms_p50": op_ms_p50,
            "peak_rss_mb": phase["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw_ops_per_s, raw_op_ms_p50 = latency_metrics(timed_rounds(phase, key="raw"))
        print(
            f"[{workload}] unscaled: setup_s = {statistics.median(p['setup_raw_s'] for p in setups):.6g} s,"
            f" ops_per_s = {raw_ops_per_s:.6g} 1/s, op_ms_p50 = {raw_op_ms_p50:.6g} ms",
            file=sys.stderr,
        )
    for name, m in metrics.items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "racktradeoff", "__init__.py")):
        print(f"racktradeoff sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
