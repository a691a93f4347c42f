"""Verdict references that do not come from the code under test.

Stdlib only.  Automata arrive as the plain dicts of gen.py, words are
checked with Python's `re`, monoids are closed by gen.py's own
transformation closure, and the delays of random prefix codes come from
gen.py's own trie search (`sync_delay`).
"""

from __future__ import annotations

import itertools
import re

from gen import sync_delay, transformation_monoid  # noqa: F401

# SF(st) <= SF(mod) <= SF(amt) <= SF(gr): a yes for a class is a yes for
# every class after it in this list.
CHAIN = ("st", "mod", "amt", "gr")


def run_dfa(doc: dict, word: str) -> bool:
    alphabet = doc["alphabet"]
    state = doc["initial"]
    for sym in word:
        state = doc["delta"][state][alphabet.index(sym)]
    return state in doc["finals"]


def aperiodic(doc: dict) -> bool:
    """Schutzenberger: a minimal DFA's language is star-free iff every
    transformation t of its monoid has t^k = t^(k+1) for some k."""
    n = doc["states"]
    for t in transformation_monoid(doc["delta"], cap=10**6):
        powers = [t]
        while True:
            nxt = tuple(t[powers[-1][q]] for q in range(n))
            if nxt in powers:
                break
            powers.append(nxt)
        if nxt != powers[-1]:
            return False
    return True


def intersection_empty(docs: list[dict]) -> bool:
    """Whether no word is accepted by every DFA, by a product search."""
    alphabet = docs[0]["alphabet"]
    start = tuple(d["initial"] for d in docs)
    seen, stack = {start}, [start]
    while stack:
        states = stack.pop()
        if all(q in d["finals"] for q, d in zip(states, docs)):
            return False
        for i in range(len(alphabet)):
            nxt = tuple(d["delta"][q][i] for q, d in zip(states, docs))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def chain_violation(verdicts: dict, cls: str, answer: bool) -> bool:
    """True when `answer` for `cls` contradicts a verdict already recorded
    for another class: a yes for a class forces a yes for every class after
    it in CHAIN, whichever of the two was asked first."""
    i = CHAIN.index(cls)
    if answer:
        return any(verdicts.get(c) is False for c in CHAIN[i + 1:])
    return any(verdicts.get(c) is True for c in CHAIN[:i])


def words_up_to(alphabet: str, max_length: int):
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def expected_mismatches(pattern: str, doc: dict, max_length: int) -> list[str]:
    """Words up to the bound on which the regex and the DFA disagree."""
    rx = re.compile(pattern)
    return sorted(
        w for w in words_up_to(doc["alphabet"], max_length)
        if (rx.fullmatch(w) is not None) != run_dfa(doc, w)
    )


def same_language(pattern: str, accept, alphabet: str, max_length: int = 9) -> bool:
    rx = re.compile(pattern)
    return all(
        (rx.fullmatch(w) is not None) == accept(w)
        for w in words_up_to(alphabet, max_length)
    )


def delay_witness_holds(code: str, d: int, witness) -> bool:
    """A witness (u, v, w) that the delay bound d fails for the prefix code
    matched by `code`: v in K^d and uvw in K+, but uv not in K+."""
    if witness is None:
        return False
    u, v, w = witness
    plus = re.compile(f"(?:{code})+")
    return (
        re.fullmatch(f"(?:{code}){{{d}}}", v) is not None
        and plus.fullmatch(u + v + w) is not None
        and plus.fullmatch(u + v) is None
    )


def violation_witness_holds(entry: dict, rule: str, witness) -> bool:
    """Re-check the witness of an expected validation violation."""
    if rule == "sync-delay":
        return delay_witness_holds(entry["code"], entry["delay"], witness)
    if rule == "prefix-code":
        code = re.compile(entry["code"])
        return code.fullmatch(witness) is not None and (
            witness == "" or any(code.fullmatch(witness[:i]) for i in range(len(witness)))
        )
    left, right = re.compile(entry["left_re"]), re.compile(entry["right_re"])
    if rule == "disjoint":
        return bool(left.fullmatch(witness) and right.fullmatch(witness))
    splits = [
        i for i in range(len(witness) + 1)
        if left.fullmatch(witness[:i]) and right.fullmatch(witness[i:])
    ]
    return rule == "unambiguous" and len(splits) > 1


def kernel_labels_hold(expect: str, labels: set, monoid_labels: set) -> bool:
    """Kernel goldens, stated on element labels (state transformations) so
    they do not depend on the program's element numbering."""
    size = len(next(iter(monoid_labels)))
    identity = tuple(range(size))
    if expect == "identity":
        return labels == {identity}
    if expect == "all":
        return labels == monoid_labels
    # rotations: the identity and two fixed-point-free elements of order 3
    def cube(t):
        return tuple(t[t[t[q]]] for q in range(size))

    others = labels - {identity}
    return (
        len(labels) == 3
        and identity in labels
        and all(cube(t) == identity and all(t[q] != q for q in range(size)) for t in others)
    )
