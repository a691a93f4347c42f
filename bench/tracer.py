"""Spans around the calls into each sfclosure layer, recorded from outside.

`Recorder.install` wraps the public functions listed in LAYERS and
rebinds every name that refers to one of them in the loaded sfclosure
modules, so calls between modules pass through the wrappers too.  Spans
stay in memory (name, start, end, parent, query id) and are written once,
when the run ends.  While `on` is false a wrapper only forwards the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# layer -> (module, public functions); `only` restricts which modules'
# bindings are rebound, for functions traced only when called from there.
LAYERS = {
    "automata": [("automata", ["compile_pattern", "minimize"], None),
                 ("automata", ["concat", "star", "product"], ["sd"])],
    "monoid": [("monoid", ["syntactic_morphism"], None)],
    "oracles": [("oracles", ["c_pairs", "c_orbit", "mod_kernel", "amt_kernel",
                             "gr_kernel"], None)],
    "membership": [("membership", ["sf_membership"], None)],
    "semiring": [("semiring", ["rho_alpha", "product_rating_map"], None)],
    "covering": [("covering", ["is_coverable", "is_separable", "reduce_cover_instance",
                               "saturate_finite", "saturate_group"], None)],
    "sd": [("sd", ["min_sync_delay", "parse_sd_expression", "validate_sd_expression"],
            None)],
    "ltl": [("ltl", ["parse_formula", "eval_at", "compare_sampled"], None)],
}


def _dfa_states(args, kwargs, result):
    return [("automata.dfa_states", result.states)]


def _kernel_size(args, kwargs, result):
    return [("oracles.kernel_elements", len(result))]


# function name -> counter updates taken from its arguments and result.
# These counts depend only on the inputs, so they repeat exactly.
SIZES = {
    "compile_pattern": _dfa_states,
    "minimize": _dfa_states,
    "concat": _dfa_states,
    "star": _dfa_states,
    "product": _dfa_states,
    "syntactic_morphism": lambda a, k, r: [("monoid.elements", r.morphism.codomain.size)],
    "c_pairs": lambda a, k, r: [("oracles.pairs", len(r.pairs))],
    "mod_kernel": _kernel_size,
    "amt_kernel": _kernel_size,
    "gr_kernel": _kernel_size,
    # is_separable delegates to is_coverable, so the report is read once
    "is_coverable": lambda a, k, r: [("covering.rounds", r.rounds),
                                     ("covering.opt_size", r.opt_size)],
    # compare_sampled evaluates each word through eval_at, so this also
    # counts the letters of every compared word
    "eval_at": lambda a, k, r: [("ltl.letters", len(a[1] if len(a) > 1 else k["word"]))],
}
SIZE_COUNTERS = ("automata.dfa_states", "monoid.elements", "oracles.pairs",
                 "oracles.kernel_elements", "covering.rounds", "covering.opt_size",
                 "ltl.letters")


class Recorder:
    def __init__(self) -> None:
        self.on = False
        self.reset()

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.query = -1
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def install(self, limit_error: type) -> None:
        """Wrap the LAYERS functions and rebind them in sfclosure's modules."""
        for layer, groups in LAYERS.items():
            for module_name, names, only in groups:
                home = sys.modules[f"sfclosure.{module_name}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(layer, name, original, limit_error)
                    targets = (
                        [sys.modules[f"sfclosure.{m}"] for m in only]
                        if only else
                        [m for key, m in list(sys.modules.items())
                         if key == "sfclosure" or key.startswith("sfclosure.")]
                    )
                    for module in targets:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn, limit_error: type):
        size = SIZES.get(name)
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self.span(span_name, layer, fn, args, kwargs, size, limit_error)

        return traced

    def span(self, span_name, layer, fn, args, kwargs, size, limit_error):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except limit_error as exc:
            # count a cap once, at the innermost layer that raised it
            if not getattr(exc, "bench_counted", False):
                exc.bench_counted = True
                self.counts[f"{layer}.cap_hits"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (span_name, start, end, parent, self.query)
        if size is not None:
            for key, amount in size(args, kwargs, result):
                self.counts[key] += amount
        return result

    def open_query(self, query_id: int, kind: str):
        """A root span for one query; returns the callable that closes it."""
        self.query = query_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()

        def close() -> None:
            self.stack.pop()
            self.spans[index] = (f"query.{kind}", start, time.perf_counter(), -1, query_id)

        return close

    def layer_totals(self) -> dict:
        """calls, self_ms and cap_hits per layer, plus the size counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for layer in LAYERS:
            totals[f"{layer}.calls"] = 0
            totals[f"{layer}.self_ms"] = 0.0
            totals[f"{layer}.cap_hits"] = self.counts.get(f"{layer}.cap_hits", 0)
        busy = 0.0
        for (name, start, end, parent, _), inner in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            if layer == "query":
                busy += end - start
                continue
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.self_ms"] += (end - start - inner) * 1000.0
        for key in SIZE_COUNTERS:
            totals[key] = self.counts.get(key, 0)
        totals["trace.busy_ms"] = busy * 1000.0
        return totals

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
