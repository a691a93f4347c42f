"""Seeded inputs for the three benchmark workloads.

Stdlib only, and independent of sfclosure: every automaton here is built
and measured (minimality, transformation-monoid size) by this file's own
code, so the program under test receives only finished inputs.  The same
seed always yields byte-identical inputs; `input_hash` fingerprints them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

AB_STAR_FORMULA = "X(a | max) & U((!a | X(b)) & (!b | X(a | max)), max)"
PAIR_STAR_FORMULA = (
    "F[((a+b)(a+b))*](max)"
    " & U(!F[((a+b)(a+b))*(a+b)](max) | (a & X(a)) | (b & X(b)), max)"
)
# formula name -> (text, the language it defines as a Python regex)
FORMULAS = {
    "ab-star": (AB_STAR_FORMULA, "(ab)*"),
    "pair-star": (PAIR_STAR_FORMULA, "(aa|bb)*"),
}

def workload_config(workload: str) -> dict:
    """The one explicit Config of every query of a workload (other caps keep
    their defaults), recorded with its seeds and predictions in
    workloads.json.  On membership-ladder amt is asked only where
    amt_monoid_cap admits the monoid (band le16 and the goldens), so no
    query reaches a cap."""
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]["config"]


def shuffled(rng, queries: list[dict]) -> list[dict]:
    """The queries in a seeded random order, so that every kind of query is
    spread over the whole pass, and a slow spell of the machine or one
    speed sample (speed.py) does not land on one kind alone."""
    rng.shuffle(queries)
    return queries


def input_hash(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Automata, as plain data: {"alphabet", "states", "initial", "finals", "delta"}


def dfa_doc(alphabet: str, delta, finals, initial: int = 0) -> dict:
    return {
        "alphabet": alphabet,
        "states": len(delta),
        "initial": initial,
        "finals": sorted(finals),
        "delta": [list(row) for row in delta],
    }


def complement_doc(doc: dict) -> dict:
    finals = set(range(doc["states"])) - set(doc["finals"])
    return dict(doc, finals=sorted(finals))


def is_minimal(delta, finals, initial: int = 0) -> bool:
    """Every state reachable and no two states equivalent (Moore)."""
    n = len(delta)
    seen, stack = {initial}, [initial]
    while stack:
        for r in delta[stack.pop()]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    if len(seen) < n:
        return False
    block = [int(q in finals) for q in range(n)]
    while True:
        names: dict[tuple, int] = {}
        split = [
            names.setdefault((block[q], *(block[r] for r in delta[q])), len(names))
            for q in range(n)
        ]
        if len(names) == len(set(block)):
            return len(names) == n
        block = split


def transformation_monoid(delta, cap: int):
    """The transformations of the state set induced by all words, or None
    once there are more than `cap` of them."""
    n = len(delta)
    gens = [tuple(row[i] for row in delta).__getitem__ for i in range(len(delta[0]))]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gens:
                u = tuple(map(g, t))
                if u not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(u)
                    fresh.append(u)
        frontier = fresh
    return seen


def random_minimal_dfa(rng: random.Random, lo_states: int, hi_states: int, width: int = 2):
    while True:
        n = rng.randint(lo_states, hi_states)
        delta = [tuple(rng.randrange(n) for _ in range(width)) for _ in range(n)]
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        if 0 < len(finals) < n and is_minimal(delta, finals):
            return delta, finals


def slow_group(delta, size: int) -> bool:
    """Whether every letter permutes the states and the group has at least
    24 elements.  On such languages (S_4 on 4 states) mod separation under
    powerset2_cap=4096 runs for minutes; they are left out of the covering
    workload, a known slowness recorded with the benchmark."""
    return size >= 24 and all(
        len({row[i] for row in delta}) == len(delta) for i in range(len(delta[0]))
    )


def sample_band(rng, lo: int, hi: int, count: int, states=(3, 6),
                skip_slow_groups: bool = False) -> list[dict]:
    """`count` distinct minimal DFAs over {a,b} whose transformation monoid
    has between lo and hi elements (rejection sampling)."""
    out, seen = [], set()
    while len(out) < count:
        delta, finals = random_minimal_dfa(rng, *states)
        key = (tuple(delta), finals)
        if key in seen:
            continue
        seen.add(key)
        monoid = transformation_monoid(delta, hi)
        if monoid is None or len(monoid) < lo:
            continue
        if skip_slow_groups and slow_group(delta, len(monoid)):
            continue
        out.append(dfa_doc("ab", delta, finals))
    return out


def ladder_windows(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """`count` consecutive sub-windows of sizes lo..hi, as even as can be."""
    out = []
    for i in range(count):
        start = lo + (hi - lo + 1) * i // count
        out.append((start, max(start, lo + (hi - lo + 1) * (i + 1) // count - 1)))
    return out


def fill_slots(windows: list[tuple[int, int]], draw) -> list:
    """One item per window: `draw()` returns (size, item) or None, and each
    item fills the first open window that admits its size."""
    slots: list = [None] * len(windows)
    while None in slots:
        drawn = draw()
        if drawn is None:
            continue
        size, item = drawn
        for i, (start, stop) in enumerate(windows):
            if slots[i] is None and start <= size <= stop:
                slots[i] = item
                break
    return slots


def sample_ladder(rng, lo: int, hi: int, count: int, states=(3, 6),
                  skip_slow_groups: bool = False, rounds: int = 1) -> list[dict]:
    """`rounds` times `count` distinct DFAs whose monoid sizes climb evenly
    from lo to hi: slot i of each round takes sizes from its own
    sub-window.  Cost grows steeply with monoid size, so a fixed ladder
    keeps the work of a run alike from seed to seed, and more rounds
    average out the rest."""
    seen = set()

    def draw():
        delta, finals = random_minimal_dfa(rng, *states)
        key = (tuple(delta), finals)
        if key in seen:
            return None
        seen.add(key)
        monoid = transformation_monoid(delta, hi)
        if monoid is None or len(monoid) < lo:
            return None
        if skip_slow_groups and slow_group(delta, len(monoid)):
            return None
        return len(monoid), dfa_doc("ab", delta, finals)

    return fill_slots(ladder_windows(lo, hi, count) * rounds, draw)


def transformation_dfa(n: int) -> dict:
    """States 0..n-1 over {a,b,c}: a cycles, b swaps 0 and 1, c sends 0 to
    1.  Its transition monoid is the full transformation monoid T_n."""
    delta = []
    for q in range(n):
        swap = {0: 1, 1: 0}.get(q, q)
        delta.append(((q + 1) % n, swap, 1 if q == 0 else q))
    return dfa_doc("abc", delta, {0})


def s3_identity_dfa() -> dict:
    """Words acting as the identity of S_3, where a swaps two points and b
    cycles all three; states are the six permutations."""
    gens = [(1, 0, 2), (1, 2, 0)]
    perms = [(0, 1, 2)]
    for p in perms:
        for g in gens:
            q = tuple(g[p[x]] for x in range(3))
            if q not in perms:
                perms.append(q)
    delta = [
        tuple(perms.index(tuple(g[p[x]] for x in range(3))) for g in gens)
        for p in perms
    ]
    return dfa_doc("ab", delta, {0})


# hand-written minimal DFAs of the acceptance goldens
AB_STAR = dfa_doc("ab", [(1, 2), (2, 0), (2, 2)], {0})  # (ab)*
CONTAINS_A = dfa_doc("ab", [(1, 0), (1, 1)], {1})  # ~%a~%
EVEN_A = dfa_doc("a", [(1,), (0,)], {0})  # (aa)* over {a}
ODD_A = complement_doc(EVEN_A)  # a(aa)*
PAIR_STAR = dfa_doc("ab", [(1, 2), (0, 3), (3, 0), (3, 3)], {0})  # (aa+bb)*


# ---------------------------------------------------------------------------
# membership-ladder

# (name, least size, largest size, DFAs per ladder, ladders).  Random draws
# of the 65-400 band stop at 130 elements: one draw of 250-400 elements
# costs 1-3.5 s and alone moved a run's busy time by +-15% between seeds.
# The fixed T_4 (256 elements) stands for the top of the band.  The counts
# put the median query inside band le16, whose queries take alike times,
# and the p95 query among the 108 gr queries of the top band, not at a gap
# between bands.
BANDS = (("le16", 3, 16, 150, 1), ("b17-64", 17, 64, 30, 1), ("b65-400", 65, 130, 36, 3))


def membership_ladder(seed: int) -> dict:
    rng = random.Random(seed)
    langs: list[tuple[str, dict]] = []
    for name, lo, hi, count, rounds in BANDS:
        langs += [(name, d) for d in sample_ladder(rng, lo, hi, count, rounds=rounds)]
    langs += [("T3", transformation_dfa(3)), ("T4", transformation_dfa(4))]
    queries = []
    for lang, (band, doc) in enumerate(langs):
        classes = ["st", "mod", "amt", "gr"] if band == "le16" else ["st", "mod", "gr"]
        for cls in classes:
            queries.append({"kind": "member", "class": cls, "lang": lang, "band": band})
    # acceptance criterion 1: membership goldens
    golden = [
        ("st", AB_STAR, True),
        ("st", CONTAINS_A, True),
        ("st", EVEN_A, False),
        ("mod", EVEN_A, True),
        ("mod", PAIR_STAR, True),
        ("amt", s3_identity_dfa(), False),
        ("gr", s3_identity_dfa(), True),
    ]
    for cls, doc, expect in golden:
        langs.append(("golden", doc))
        queries.append({"kind": "member", "class": cls, "lang": len(langs) - 1,
                        "band": "golden", "expect": expect})
    # acceptance criterion 2: kernel goldens, checked by element labels
    for cls, doc, expect in [
        ("mod", EVEN_A, "identity"),
        ("gr", s3_identity_dfa(), "identity"),
        ("gr", CONTAINS_A, "all"),
        ("amt", s3_identity_dfa(), "rotations"),
    ]:
        langs.append(("golden", doc))
        queries.append({"kind": "kernel", "class": cls, "lang": len(langs) - 1,
                        "band": "golden", "expect": expect})
    return {
        "workload": "membership-ladder",
        "seed": seed,
        "config": workload_config("membership-ladder"),
        "languages": [doc for _, doc in langs],
        "warmup": {"kind": "member", "class": "st", "lang": 0, "band": "warmup"},
        "queries": shuffled(rng, queries),
    }


# ---------------------------------------------------------------------------
# cover-saturation

# Most queries are mod/gr covers, so the median query is a saturation.
SEPARATIONS = 10  # per ladder of monoid sizes 5-24
SEPARATION_LADDERS = 2
# the languages of the covers are picked from one pool of this many
COVER_POOL = 200
# The saturation cost of a cover grows with the monoid of the product
# automaton (correlation 0.75 on seed 1), so the covers with each number
# of languages climb a fixed ladder of windows of that monoid's size: heavy
# enough that saturation dominates, light enough that the cost of a run
# does not hinge on a few outliers, and alike from seed to seed.  Products
# of 3 or 4 languages of 5-24 elements rarely have small monoids, so their
# ladders start higher.
# (languages, least size, largest size, windows, ladders)
COVER_LADDERS = ((2, 12, 24, 6, 15), (3, 16, 24, 3, 20), (4, 18, 24, 1, 30))


def product_monoid_size(docs: list[dict], cap: int):
    """Transformation-monoid size of the product automaton, or None above cap."""
    start = tuple(d["initial"] for d in docs)
    index, order = {start: 0}, [start]
    for states in order:
        for i in range(len(docs[0]["alphabet"])):
            nxt = tuple(d["delta"][q][i] for q, d in zip(states, docs))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
    delta = [
        [index[tuple(d["delta"][q][i] for q, d in zip(states, docs))]
         for i in range(len(docs[0]["alphabet"]))]
        for states in order
    ]
    monoid = transformation_monoid(delta, cap)
    return None if monoid is None else len(monoid)


def cover_saturation(seed: int) -> dict:
    rng = random.Random(seed)
    langs = sample_ladder(rng, 5, 24, SEPARATIONS, states=(3, 5), skip_slow_groups=True,
                          rounds=SEPARATION_LADDERS)
    queries = []
    for i in range(len(langs)):  # the range is fixed before the complements
        langs.append(complement_doc(langs[i]))
        for cls in ("st", "mod", "gr"):
            queries.append({"kind": "separate", "class": cls, "left": i,
                            "others": [len(langs) - 1], "member_of": i})
    pool = sample_band(rng, 5, 24, COVER_POOL, states=(3, 5), skip_slow_groups=True)
    covers = []
    for k, lo, hi, steps, rounds in COVER_LADDERS:
        def draw(k=k, hi=hi):
            docs = rng.sample(pool, k)
            size = product_monoid_size(docs, hi)
            return None if size is None else (size, docs)

        covers += fill_slots(ladder_windows(lo, hi, steps) * rounds, draw)
    for docs in covers:
        first = len(langs)
        langs += docs
        for cls in ("st", "mod", "gr"):
            queries.append({"kind": "cover", "class": cls, "left": first,
                            "others": list(range(first + 1, len(langs)))})
    # acceptance criterion 4: covering goldens over {a}
    langs += [EVEN_A, ODD_A]
    even, odd = len(langs) - 2, len(langs) - 1
    queries += [
        {"kind": "separate", "class": "st", "left": even, "others": [odd], "expect": False},
        {"kind": "separate", "class": "mod", "left": even, "others": [odd], "expect": True},
        {"kind": "opt", "class": "st", "lang": even, "expect": [0, 1, 2, 3]},
        {"kind": "opt", "class": "mod", "lang": even, "expect": [0, 1, 2]},
    ]
    return {
        "workload": "cover-saturation",
        "seed": seed,
        "config": workload_config("cover-saturation"),
        "languages": langs,
        "warmup": {"kind": "separate", "class": "st", "left": even, "others": [odd]},
        "queries": shuffled(rng, queries),
    }


# ---------------------------------------------------------------------------
# bridges

WORD_LENGTHS = tuple(range(100, 801, 100))
WORDS_PER_LENGTH = 2  # each with its one-letter mutant
COMPARE_LENGTHS = (10, 11, 12)
# Random prefix codes, a fixed count of each (delay, trie) class, where
# delay is 1, 2, 3 (3 up to dmax) or None (no delay up to dmax), and trie is
# "le5", "6-9" or "ge10" distinct non-empty prefixes of the words.  A code
# without a delay costs the search about 15 times one with a delay, and the
# trie size sets the automaton's size, so a fixed mix keeps the work of the
# delay queries, and the median query among them, alike from seed to seed.
# The counts are the shares in which _prefix_code draws the classes (4000
# draws), scaled to 400 codes.
PREFIX_CODE_MIX = {
    (1, "le5"): 33, (1, "6-9"): 37, (1, "ge10"): 7,
    (2, "le5"): 14, (2, "6-9"): 39, (2, "ge10"): 14,
    (3, "le5"): 1, (3, "6-9"): 7, (3, "ge10"): 5,
    (None, "le5"): 55, (None, "6-9"): 113, (None, "ge10"): 75,
}
# acceptance criterion 6: fixed delay verdicts
# (pattern, the same code as a Python regex, alphabet, dmax, expected delay)
DELAY_GOLDENS = (
    ("a+b", "a|b", "ab", 8, 1),
    ("a*b", "a*b", "ab", 8, 1),
    ("a+aa", "a|aa", "ab", 8, "not-a-prefix-code"),
    ("(aab)*ab", "(aab)*ab", "ab", 8, 2),
    ("aa", "aa", "a", 6, None),
)


def _member_word(rng, language: str, length: int) -> str:
    if language == "ab-star":
        return "ab" * (length // 2)
    return "".join(rng.choice(("aa", "bb")) for _ in range(length // 2))


def _prefix_code(rng) -> list[str]:
    while True:
        words = sorted({
            "".join(rng.choice("ab") for _ in range(rng.randrange(1, 6)))
            for _ in range(rng.randrange(2, 6))
        })
        if not any(v != u and v.startswith(u) for u in words for v in words):
            return words


def sync_delay(words: list[str], dmax: int):
    """Least synchronization delay up to dmax of a finite prefix code, or
    None.  The code has delay d iff no word of K^d, read from a state of
    K*'s trie other than the root, can end away from the root: the states
    are the words' proper prefixes, and completing a word returns to ''."""
    code = set(words)
    prefixes = {w[:i] for w in words for i in range(1, len(w))}

    def read(state: str, word: str):
        for sym in word:
            state += sym
            if state in code:
                state = ""
            elif state not in prefixes:
                return None
        return state

    away = prefixes
    for d in range(1, dmax + 1):
        away = {s for p in away for w in words if (s := read(p, w))}
        if not away:
            return d
    return None


def _code_class(words: list[str], dmax: int) -> tuple:
    delay = sync_delay(words, dmax)
    trie = len({w[:i] for w in words for i in range(1, len(w) + 1)})
    return (delay if delay is None else min(delay, 3),
            "le5" if trie <= 5 else "6-9" if trie <= 9 else "ge10")


def _mutant(rng, doc: dict) -> dict:
    """The DFA with one transition redirected: usually another language."""
    delta = [list(row) for row in doc["delta"]]
    q, i = rng.randrange(len(delta)), rng.randrange(2)
    delta[q][i] = (delta[q][i] + 1 + rng.randrange(len(delta) - 1)) % len(delta)
    return dict(doc, delta=delta)


def load_expressions() -> list[dict]:
    """The fixed expression files and what validating each must give."""
    with open(os.path.join(HERE, "exprs", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for entry in manifest:
        with open(os.path.join(HERE, "exprs", entry["file"]), encoding="utf-8") as fh:
            entry["text"] = fh.read()
    return manifest


def bridges(seed: int) -> dict:
    rng = random.Random(seed)
    queries = []
    for name in FORMULAS:
        for length in WORD_LENGTHS * WORDS_PER_LENGTH:
            word = _member_word(rng, name, length)
            flip = rng.randrange(length // 4, 3 * length // 4)
            flipped = word[:flip] + ("b" if word[flip] == "a" else "a") + word[flip + 1:]
            queries.append({"kind": "ltl-eval", "formula": name, "word": word})
            queries.append({"kind": "ltl-eval", "formula": name, "word": flipped})
    exact = {"ab-star": AB_STAR, "pair-star": PAIR_STAR}
    for name in FORMULAS:
        for length in COMPARE_LENGTHS:
            dfa = exact[name] if length == 10 else _mutant(rng, exact[name])
            queries.append({"kind": "ltl-compare", "formula": name, "dfa": dfa,
                            "max_length": length})
    config = workload_config("bridges")
    quota = dict(PREFIX_CODE_MIX)
    while any(quota.values()):
        words = _prefix_code(rng)
        key = _code_class(words, config["delay_dmax"])
        if quota.get(key):
            quota[key] -= 1
            queries.append({"kind": "sd-delay", "words": words, "alphabet": "ab",
                            "dmax": config["delay_dmax"]})
    for pattern, code_re, alphabet, dmax, expect in DELAY_GOLDENS:
        queries.append({"kind": "sd-delay", "pattern": pattern, "code_re": code_re,
                        "alphabet": alphabet, "dmax": dmax, "expect": expect})
    for entry in load_expressions():
        queries.append({"kind": "sd-validate", **entry})
    return {
        "workload": "bridges",
        "seed": seed,
        "config": config,
        "languages": [],
        "formulas": {name: text for name, (text, _) in FORMULAS.items()},
        "patterns": {name: pattern for name, (_, pattern) in FORMULAS.items()},
        "warmup": {"kind": "ltl-eval", "formula": "ab-star", "word": "abab"},
        "queries": shuffled(rng, queries),
    }


WORKLOADS = {
    "membership-ladder": membership_ladder,
    "cover-saturation": cover_saturation,
    "bridges": bridges,
}
