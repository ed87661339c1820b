"""Spans around the public functions of racktradeoff, recorded from outside.

`Tracer.install()` replaces each layer function with a timing wrapper in
every loaded `racktradeoff` module that holds it, which covers the bindings
that `from .x import y` creates in `flowgraph`, `threshold` and `cli`. No
file of the program changes. Spans are kept in memory as
(name, start, end, parent, busy, op, count) and written out at the end.

Run as a script, this file is the traced form of `python -m racktradeoff.cli`:

    python3 perfbench/tracer.py SPANS.json curve --config cfg.json --model rack
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function, span name); a span name groups the functions of one layer
TARGETS = (
    ("racktradeoff.config", "load_config", "config.load"),
    ("racktradeoff.config", "parse_and_validate", "config.load"),
    ("racktradeoff.incomes", "rack_coeff_list", "incomes.select"),
    ("racktradeoff.incomes", "min_mincut_incomes", "incomes.audit"),
    ("racktradeoff.threshold", "threshold_curve", "threshold.build"),
    ("racktradeoff.threshold", "alpha_star", "threshold.alpha_star"),
    ("racktradeoff.flowgraph", "verify", "flowgraph.verify"),
    ("racktradeoff.flowgraph", "structured_scenarios", "flowgraph.enumerate"),
    ("racktradeoff.flowgraph", "exhaustive_scenarios", "flowgraph.enumerate"),
    ("racktradeoff.flowgraph", "analytic_min_cut", "flowgraph.analytic"),
    ("racktradeoff.cli", "run", "cli.run"),
)

NAME, START, END, PARENT, BUSY, OP, COUNT = range(7)


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock  # the worker's leaves out the speed meter's samples
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._resumed: dict[int, float] = {}
        self.op = -1  # index of the operation running; -1 during set-up
        self._replaced: list[tuple] = []

    def open(self, name: str) -> int:
        now = self.clock()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now, now, parent, 0.0, self.op, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._resumed[idx] = now
        return idx

    def suspend(self, idx: int) -> None:
        now = self.clock()
        span = self.spans[idx]
        span[BUSY] += now - self._resumed.pop(idx)
        span[END] = now
        self._stack.remove(idx)

    def resume(self, idx: int) -> None:
        self._stack.append(idx)
        self._resumed[idx] = self.clock()

    def close(self, idx: int, count: int = 0) -> None:
        self.suspend(idx)
        self.spans[idx][COUNT] = count

    def merge(self, spans: list[list]) -> None:
        """Append the spans another process recorded for the current operation."""
        base = len(self.spans)
        for span in spans:
            span[PARENT] = span[PARENT] + base if span[PARENT] >= 0 else -1
            span[OP] = self.op
            self.spans.append(span)

    def _wrap_function(self, fn, name: str):
        count_of = _COUNTERS.get(fn.__name__, lambda result: 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, 0 if result is None else count_of(result))
                if fn.__name__ == "verify" and result is not None:
                    self._probe_arcs(args, kwargs, result)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1
            yielded = 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    if idx < 0:
                        idx = self.open(name)
                    else:
                        self.resume(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.close(idx, yielded)
                        return
                    except BaseException:
                        self.close(idx, yielded)
                        raise
                    self.suspend(idx)
                    yielded += 1
                    yield item
            finally:
                if idx >= 0:
                    self.spans[idx][COUNT] = yielded

        return wrapper

    def _probe_arcs(self, args, kwargs, report) -> None:
        """Arc count of the explicit flow graph of the first sample's witness.

        Kept in a span of its own so that its time is not charged to the
        caller's self time."""
        from racktradeoff.flowgraph import build_flow_graph

        if not report.samples:
            return
        cfg = args[0] if args else kwargs["cfg"]
        idx = self.open("trace.probe")
        sample = report.samples[0]
        arcs = len(build_flow_graph(cfg, sample.witness, sample.alpha, sample.beta_e).arcs)
        self.close(idx, arcs)

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            is_gen = original.__code__.co_flags & 0x20  # CO_GENERATOR
            wrapped = (self._wrap_generator if is_gen else self._wrap_function)(original, name)
            self._replaced += rebind(original, wrapped)

    def uninstall(self) -> None:
        restore(self._replaced)
        self._replaced.clear()

    def dump(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.spans, out)


def rebind(original, replacement) -> list[tuple]:
    """Replace `original` by `replacement` in every loaded racktradeoff module
    that binds it, the `from .x import y` bindings included. Returns what was
    replaced, for `restore`."""
    replaced = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "racktradeoff" and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    replaced.append((module, key, original))
    return replaced


def restore(replaced: list[tuple]) -> None:
    for module, key, original in reversed(replaced):
        setattr(module, key, original)


_COUNTERS = {
    "min_mincut_incomes": lambda result: len(result[1]),  # audited subsets
    "threshold_curve": lambda result: len(result.segments),
    "verify": lambda result: len(result.samples),
}


def _self_times(spans: list[list]) -> list[float]:
    own = [s[BUSY] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[BUSY]
    return own


def summarize(spans: list[list], ops: int, factors: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    Times and counts are per operation, except `config.load_ms` (per load),
    and `flowgraph.sample_points` / `flowgraph.graph_arcs` (per verify call).
    Config loads of a traced round's set-up are spread over its operations.
    Each span's time is scaled by its operation's speed factor (speed.py);
    set-up spans take the median factor.
    """
    import statistics

    setup_factor = statistics.median(factors.values())
    spans = [s[:BUSY] + [s[BUSY] * factors.get(s[OP], setup_factor)] + s[BUSY + 1 :] for s in spans]
    own = _self_times(spans)
    per_op = 1.0 / ops
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[BUSY]
        self_ms[name] = self_ms.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]

    verify_calls = calls.get("flowgraph.verify", 0)

    # verify's own work: verify minus its income, threshold and analytic spans
    library = ("incomes.", "threshold.", "flowgraph.analytic")
    oracle_self = 0.0
    for s in spans:
        if s[NAME] == "flowgraph.verify":
            oracle_self += s[BUSY]
    for s in spans:
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "flowgraph.verify" and s[NAME].startswith(library):
            oracle_self -= s[BUSY]

    # outermost config spans only: load_config calls parse_and_validate
    loads = [s for s in spans if s[NAME] == "config.load" and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "config.load")]

    def ms(value: float) -> float:
        return value * 1000.0 * per_op

    return {
        "cli.import_ms": ms(total.get("cli.import", 0.0)),
        "cli.run_ms": ms(total.get("cli.run", 0.0)),
        "cli.self_ms": ms(self_ms.get("cli.run", 0.0)),
        "config.load_ms": 1000.0 * sum(s[BUSY] for s in loads) / len(loads) if loads else 0.0,
        "config.loads": len(loads) * per_op,
        "incomes.select_ms": ms(self_ms.get("incomes.select", 0.0)),
        "incomes.select_calls": calls.get("incomes.select", 0) * per_op,
        "incomes.audit_ms": ms(self_ms.get("incomes.audit", 0.0)),
        "incomes.audit_subsets": counts.get("incomes.audit", 0) * per_op,
        "threshold.build_ms": ms(self_ms.get("threshold.build", 0.0)),
        "threshold.curves": calls.get("threshold.build", 0) * per_op,
        "threshold.segments": counts.get("threshold.build", 0) * per_op,
        "threshold.alpha_star_ms": ms(self_ms.get("threshold.alpha_star", 0.0)),
        "threshold.alpha_star_calls": calls.get("threshold.alpha_star", 0) * per_op,
        "flowgraph.verify_ms": ms(total.get("flowgraph.verify", 0.0)),
        "flowgraph.oracle_self_ms": ms(oracle_self),
        "flowgraph.enumerate_ms": ms(total.get("flowgraph.enumerate", 0.0)),
        "flowgraph.scenarios": counts.get("flowgraph.enumerate", 0) * per_op,
        "flowgraph.analytic_ms": ms(self_ms.get("flowgraph.analytic", 0.0)),
        "flowgraph.sample_points": counts.get("flowgraph.verify", 0) / verify_calls if verify_calls else 0.0,
        "flowgraph.graph_arcs": counts.get("trace.probe", 0) / verify_calls if verify_calls else 0.0,
        "trace.spans": sum(1 for s in spans if s[OP] >= 0) * per_op,
    }


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import racktradeoff.cli as cli

    tracer.close(idx)
    tracer.install()
    tracer.op = 0
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
