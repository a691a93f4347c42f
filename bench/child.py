"""The single-threaded process that drives sfclosure for one workload run.

Reads the generated inputs as JSON on stdin and imports sfclosure from
./src of the current directory.  `probe` answers the warm-up query and
prints "ready" (the parent times it as set-up).  `run` answers the warm-up
query, then makes closed-loop passes over the query set, one query in
flight, and prints one JSON result line with every pass's records; each
record carries the machine-speed reference sampled around it (speed.py).
With --trace 1 it alternates untraced and traced passes instead, and
writes the spans of the first traced pass to --spans.

Every query runs under a wall-time budget (SIGALRM) and ends with a
status: ok, wrong (the verdict fails its reference), cap
(ResourceLimitError), budget (overrun) or error (any other exception).
References are computed by checks.py, outside the timed region and with
tracing off.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
import traceback

import checks
import speed
from tracer import Recorder


class BudgetExceeded(Exception):
    pass


class ExpectedInputError(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded()


def import_sfclosure():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import sfclosure  # noqa: F401
    from sfclosure import (  # noqa: F401
        automata, config, covering, errors, ltl, membership, monoid, oracles, sd, semiring,
    )

    if not os.path.abspath(sfclosure.__file__).startswith(src + os.sep):
        raise ImportError(f"sfclosure was imported from {sfclosure.__file__}, not {src}")
    return sys.modules["sfclosure"]


class Harness:
    def __init__(self, sfc, inputs: dict) -> None:
        self.sfc = sfc
        self.inputs = inputs
        self.config = sfc.config.Config(**inputs["config"])
        self.budget = inputs["budget_s"]
        self.alphabets: dict[str, object] = {}
        self.dfas: dict[int, object] = {}
        self.reference: dict = {}
        self.recorder = Recorder()

    # -- decoding (outside the timed region) -------------------------------

    def alphabet(self, letters: str):
        if letters not in self.alphabets:
            self.alphabets[letters] = self.sfc.automata.make_alphabet(letters)
        return self.alphabets[letters]

    def to_dfa(self, doc: dict):
        return self.sfc.automata.Dfa(
            self.alphabet(doc["alphabet"]), doc["states"], doc["initial"],
            frozenset(doc["finals"]), tuple(tuple(row) for row in doc["delta"]),
        )

    def lang(self, index: int):
        if index not in self.dfas:
            self.dfas[index] = self.to_dfa(self.inputs["languages"][index])
        return self.dfas[index]

    def base_class(self, name: str, alphabet: str):
        oracles = self.sfc.oracles
        if name == "st":
            return oracles.st_class(self.alphabet(alphabet))
        return {"mod": oracles.MOD, "amt": oracles.AMT, "gr": oracles.GR}[name]

    def prepare(self, q: dict) -> dict:
        """Decoded arguments of a query, built before the clock starts."""
        args = {}
        languages = self.inputs["languages"]
        if "lang" in q:
            args["dfa"] = self.lang(q["lang"])
            args["cls"] = self.base_class(q["class"], languages[q["lang"]]["alphabet"])
        if "left" in q:
            args["cls"] = self.base_class(q["class"], languages[q["left"]]["alphabet"])
            args["left"] = self.lang(q["left"])
            args["others"] = [self.lang(i) for i in q["others"]]
        if "dfa" in q:
            args["dfa"] = self.to_dfa(q["dfa"])
        if "formula" in q:
            args["formula"] = self.inputs["formulas"][q["formula"]]
            args["alphabet"] = self.alphabet("ab")
        if q["kind"].startswith("sd-"):
            args["alphabet"] = self.alphabet(q["alphabet"] if "alphabet" in q else "ab")
        return args

    # -- the timed calls ----------------------------------------------------

    def call(self, q: dict, a: dict):
        s, cfg, kind = self.sfc, self.config, q["kind"]
        if kind == "member":
            return s.membership.sf_membership(
                a["cls"], a["dfa"], monoid_cap=cfg.monoid_cap, config=cfg).answer
        if kind == "kernel":
            alpha = s.monoid.syntactic_morphism(a["dfa"], cap=cfg.monoid_cap).morphism
            if q["class"] == "mod":
                kernel = s.oracles.mod_kernel(alpha)
            elif q["class"] == "gr":
                kernel = s.oracles.gr_kernel(alpha)
            else:
                kernel = s.oracles.amt_kernel(alpha, alphabet_cap=cfg.amt_alphabet_cap,
                                              monoid_cap=cfg.amt_monoid_cap)
            return alpha, kernel
        if kind == "separate":
            return s.covering.is_separable(a["cls"], a["left"], a["others"][0], config=cfg).answer
        if kind == "cover":
            return s.covering.is_coverable(a["cls"], a["left"], a["others"], config=cfg).answer
        if kind == "opt":
            rho = s.semiring.rho_alpha(s.monoid.syntactic_morphism(a["dfa"]),
                                       cap=cfg.powerset_cap)
            if q["class"] == "st":
                return s.covering.opt_finite(a["cls"], rho)
            return s.covering.opt_group(a["cls"], rho, config=cfg)
        if kind == "ltl-eval":
            formula = s.ltl.parse_formula(a["formula"], a["alphabet"])
            return s.ltl.eval_at(formula, q["word"], 0)
        if kind == "ltl-compare":
            formula = s.ltl.parse_formula(a["formula"], a["alphabet"])
            return s.ltl.compare_sampled(formula, a["dfa"], a["alphabet"], q["max_length"])
        if kind == "sd-delay":
            pattern = q.get("pattern") or "+".join(q["words"])
            code = s.automata.minimize(s.automata.compile_pattern(pattern, a["alphabet"]))
            try:
                return code, s.sd.min_sync_delay(code, dmax=q["dmax"])
            except s.errors.InputError:
                if q.get("expect") == "not-a-prefix-code":
                    raise ExpectedInputError() from None
                raise
        if kind == "sd-validate":
            expr = s.sd.parse_sd_expression(q["text"], a["alphabet"])
            return s.sd.validate_sd_expression(expr, a["alphabet"], dmax=q.get("dmax", 8))
        raise ValueError(f"unknown query kind {kind!r}")

    # -- references (untimed, untraced) --------------------------------------

    def cached(self, key, compute):
        if key not in self.reference:
            self.reference[key] = compute()
        return self.reference[key]

    def member_verdict(self, cls: str, lang: int) -> bool:
        """Membership through the library, for the separation cross-check."""
        return self.cached(("member", cls, lang), lambda: self.sfc.membership.sf_membership(
            self.base_class(cls, self.inputs["languages"][lang]["alphabet"]), self.lang(lang),
            config=self.config).answer)

    def verify(self, qid: int, q: dict, out, verdicts: dict) -> bool:
        kind, languages = q["kind"], self.inputs["languages"]
        if kind == "member":
            doc = languages[q["lang"]]
            if q["class"] == "st" and out != self.cached(("aperiodic", q["lang"]),
                                                         lambda: checks.aperiodic(doc)):
                return False
            chained = verdicts.setdefault(("lang", q["lang"]), {})
            ok = not checks.chain_violation(chained, q["class"], out)
            chained[q["class"]] = out
            return ok and out == q.get("expect", out)
        if kind == "kernel":
            alpha, kernel = out
            labels = {alpha.labels[k] for k in kernel}
            return checks.kernel_labels_hold(q["expect"], labels, set(alpha.labels))
        if kind in ("separate", "cover"):
            # a yes needs L0 and all avoided languages to have no common word
            key = (q["left"], *q["others"])
            docs = [languages[i] for i in key]
            if out and not self.cached(("empty", key), lambda: checks.intersection_empty(docs)):
                return False
            if "member_of" in q and out != self.member_verdict(q["class"], q["member_of"]):
                return False
            chained = verdicts.setdefault(key, {})
            ok = not checks.chain_violation(chained, q["class"], out)
            chained[q["class"]] = out
            return ok and out == q.get("expect", out)
        if kind == "opt":
            return out == q["expect"]
        pattern_of = self.inputs.get("patterns", {})
        if kind == "ltl-eval":
            return out == (re.fullmatch(pattern_of[q["formula"]], q["word"]) is not None)
        if kind == "ltl-compare":
            expected = self.cached(("compare", qid), lambda: checks.expected_mismatches(
                pattern_of[q["formula"]], q["dfa"], q["max_length"]))
            return sorted(out) == expected
        if kind == "sd-delay":
            code, delay = out
            if "expect" in q and delay != q["expect"]:
                return False
            if "words" in q and delay != checks.sync_delay(q["words"], q["dmax"]):
                return False
            code_re = q.get("code_re") or "|".join(q["words"])
            # a delay d > 1 must come with a failure of d - 1, and no delay
            # up to dmax with a failure of dmax
            probe = q["dmax"] if delay is None else delay - 1
            if probe < 1:
                return delay == 1
            witness = self.sfc.sd.sync_delay_witness(code, probe)
            return checks.delay_witness_holds(code_re, probe, witness)
        if kind == "sd-validate":
            dfa, violations = out
            found = [[v.path, v.rule] for v in violations]
            if found != q["violations"]:
                return False
            if violations:
                return all(checks.violation_witness_holds(q, v.rule, v.witness)
                           for v in violations)
            accept = lambda w: self.sfc.automata.accepts(dfa, w)  # noqa: E731
            return checks.same_language(q["language"], accept, "ab") and \
                self.sfc.membership.sf_membership(
                    self.base_class(q["class"], "ab"), dfa, config=self.config).answer
        raise ValueError(f"unknown query kind {kind!r}")

    # -- the loop --------------------------------------------------------------

    def answer(self, qid: int, q: dict, verdicts: dict) -> tuple[str, float]:
        """Run one query under its budget; returns (status, wall ms)."""
        args = self.prepare(q)
        limit = self.sfc.errors.ResourceLimitError
        close = self.recorder.open_query(qid, q["kind"]) if self.recorder.on else None
        out, status = None, "ok"
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.budget)
            try:
                out = self.call(q, args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ExpectedInputError:
            out = "not-a-prefix-code"
        except BudgetExceeded:
            status = "budget"
        except limit:
            status = "cap"
        except Exception:
            traceback.print_exc(file=sys.stderr)
            status = "error"
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            if close is not None:
                close()
        if status != "ok":
            return status, elapsed
        traced, self.recorder.on = self.recorder.on, False
        try:
            if q.get("expect") == "not-a-prefix-code" or out == "not-a-prefix-code":
                good = out == q.get("expect")
            else:
                good = self.verify(qid, q, out, verdicts)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            good = False
        self.recorder.on = traced
        if not good:
            print(f"wrong verdict on query {qid}: {json.dumps(q)[:300]}", file=sys.stderr)
        return ("ok" if good else "wrong"), elapsed

    def one_pass(self) -> list[list]:
        """[kind, status, wall ms, reference ms] of every query.  The
        reference (speed.py) is sampled whenever EVERY_S has passed, and
        the queries between two samples get the median of the WINDOW
        samples on each side."""
        verdicts: dict = {}
        queries = self.inputs["queries"]
        refs = [speed.reference_ms()]
        stretches: list[list] = [[]]
        mark = time.perf_counter()
        for qid, q in enumerate(queries):
            stretches[-1].append([q["kind"], *self.answer(qid, q, verdicts)])
            if time.perf_counter() - mark >= speed.EVERY_S or qid == len(queries) - 1:
                refs.append(speed.reference_ms())
                stretches.append([])
                mark = time.perf_counter()
        records = []
        for i, stretch in enumerate(stretches[:-1]):
            ref = statistics.median(refs[max(0, i + 1 - speed.WINDOW):i + 1 + speed.WINDOW])
            records += [r + [ref] for r in stretch]
        return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    sfc = import_sfclosure()
    inputs = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    harness = Harness(sfc, inputs)
    warm_status, _ = harness.answer(-1, inputs["warmup"], {})
    if warm_status != "ok":
        print(f"warm-up query failed: {warm_status}", file=sys.stderr)
        return 1
    if args.mode == "probe":
        print("ready", flush=True)
        return 0
    result: dict = {}
    if args.trace:
        # Untraced and traced passes alternate while time remains; the layer
        # metrics come from the first traced pass, so its counts repeat
        # exactly, and the other pairs only refine the tracing overhead.
        recorder = harness.recorder
        recorder.install(sfc.errors.ResourceLimitError)
        result["untraced"], result["traced"] = [], []
        start = time.perf_counter()
        while True:
            result["untraced"].append(harness.one_pass())
            recorder.reset()
            recorder.on = True
            result["traced"].append(harness.one_pass())
            recorder.on = False
            if len(result["traced"]) == 1:
                result["layers"] = recorder.layer_totals()
                if args.spans:
                    recorder.write(args.spans)
            elapsed = time.perf_counter() - start
            pairs = len(result["traced"])
            if elapsed * (pairs + 1) / pairs > args.seconds:
                break
    else:
        # Closed loop over whole passes while the next one would end less
        # than half a pass past the run's length; the parent reports
        # medians across passes.
        passes: list = []
        start = time.perf_counter()
        while True:
            passes.append(harness.one_pass())
            elapsed = time.perf_counter() - start
            if elapsed * (2 * len(passes) + 1) / (2 * len(passes)) > args.seconds:
                break
        result["passes"] = passes
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
