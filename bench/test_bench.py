"""The benchmark's own tests: exact-repeat guard and reference checks.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import SIZE_COUNTERS  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


def light(inputs: dict) -> dict:
    """A cheap slice of a workload's queries, one of each kind where it
    can, for tests that run the child more than once."""
    def cheap(q: dict) -> bool:
        if q["kind"] == "member":
            return q["band"] in ("le16", "b17-64", "golden")
        if q["kind"] == "ltl-eval":
            return len(q["word"]) <= 200
        if q["kind"] == "ltl-compare":
            return q["max_length"] == 10
        return True

    queries = [q for q in inputs["queries"] if cheap(q)][:60]
    return dict(inputs, queries=queries, budget_s=30.0)


def traced_counts(inputs: dict) -> dict:
    out = subprocess.run(
        [sys.executable, run.CHILD, "run", "--trace", "1", "--seconds", "0"], input=json.dumps(inputs),
        capture_output=True, text=True, cwd=ROOT, env=run.child_env(), timeout=300,
        check=True,
    ).stdout
    layers = json.loads(out.strip().splitlines()[-1])["layers"]
    return {key: layers[key] for key in SIZE_COUNTERS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    make = gen.WORKLOADS[workload]
    assert gen.input_hash(make(3)) == gen.input_hash(make(3))
    assert gen.input_hash(make(3)) != gen.input_hash(make(4))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_size_counters_repeat_exactly(workload):
    inputs = light(gen.WORKLOADS[workload](5))
    first = traced_counts(inputs)
    assert first == traced_counts(inputs)
    assert any(first.values())


def test_references_reject_wrong_verdicts():
    # (ab)* is star-free, (aa)* over {a} is not
    assert checks.aperiodic(gen.AB_STAR)
    assert not checks.aperiodic(gen.EVEN_A)
    assert checks.chain_violation({"st": True}, "gr", False)
    assert not checks.chain_violation({"st": False}, "gr", False)
    assert checks.chain_violation({"gr": False}, "st", True)
    assert checks.intersection_empty([gen.EVEN_A, gen.ODD_A])
    assert not checks.intersection_empty([gen.AB_STAR, gen.PAIR_STAR])
    assert checks.expected_mismatches("(ab)*", gen.AB_STAR, 6) == []
    # a delay-2 code: "a" in K^1 and "a"+"ab"+"ab" in K+, "a"+"ab" not
    assert checks.delay_witness_holds("(aab)*ab", 1, ("a", "ab", "ab"))
    assert not checks.delay_witness_holds("(aab)*ab", 1, ("", "ab", ""))
    # {a, b} synchronizes at once, the uniform code {a,b}^2 never
    assert checks.sync_delay(["a", "b"], 8) == 1
    assert checks.sync_delay(["aa", "ab", "ba", "bb"], 8) is None
    assert checks.sync_delay(["aa"], 6) is None


def test_workload_mixes_are_fixed():
    # the delay queries of any seed hold exactly the fixed class mix
    dmax = gen.workload_config("bridges")["delay_dmax"]
    for seed in (3, 4):
        codes = [q["words"] for q in gen.bridges(seed)["queries"]
                 if q["kind"] == "sd-delay" and "words" in q]
        mix: dict = {}
        for words in codes:
            key = gen._code_class(words, dmax)
            mix[key] = mix.get(key, 0) + 1
        assert mix == gen.PREFIX_CODE_MIX


def test_harness_marks_flipped_verdicts_wrong(monkeypatch):
    import child

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    sfc = child.import_sfclosure()
    signal.signal(signal.SIGALRM, child._alarm)
    inputs = dict(gen.membership_ladder(1), budget_s=30.0)
    harness = child.Harness(sfc, inputs)
    goldens = [(i, q) for i, q in enumerate(inputs["queries"])
               if q["kind"] == "member" and "expect" in q]
    assert goldens
    for qid, q in goldens:
        assert harness.answer(qid, q, {})[0] == "ok"
        assert harness.verify(qid, q, q["expect"], {})
        assert not harness.verify(qid, q, not q["expect"], {})
    # the first random language asked for st must agree with aperiodicity
    qid, q = next((i, q) for i, q in enumerate(inputs["queries"])
                  if q["kind"] == "member" and q["class"] == "st")
    truth = checks.aperiodic(inputs["languages"][q["lang"]])
    assert harness.verify(qid, q, truth, {})
    assert not harness.verify(qid, q, not truth, {})


def test_transformation_dfa_generates_full_monoid():
    assert len(gen.transformation_monoid(gen.transformation_dfa(3)["delta"], 10**4)) == 27
    assert len(gen.transformation_monoid(gen.transformation_dfa(4)["delta"], 10**4)) == 256
