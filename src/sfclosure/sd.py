"""Prefix codes, synchronization delay, and checked language expressions.

An expression built from empty, single letters, disjoint unions,
unambiguous concatenations, class intersections and stars of prefix
codes with bounded synchronization delay denotes a language in the
star-free closure by construction.  The parser emits an expression as a
postfix program, and the validator runs it over a stack of DFAs,
compiling every subexpression and checking each structural side
condition, reporting violations as data with witness words.

The minimal DFA of a nonempty prefix code has one final state, and its
row leads only to the dead state (Berstel, Perrin & Reutenauer, Codes
and Automata, 2010).  So a minimal DFA is "sealed" exactly when it
accepts a prefix code, which settles prefixness without a search, and
k+ is k with the final row replaced by the initial row, minimal as it
stands: a shortest word that separates two states of k never passes
the final state before its last letter, so it still separates them in
k+.  Renumbered breadth-first, k+ keeps k's order except for the dead
state, which the final row no longer reaches: it is numbered where the
walk meets the first other edge into it, or goes when there is none.

The least delay bound of a prefix code k is found on the minimal k's own
states, k+ being k's rows with the final row replaced by the initial row,
by at most |k+| + 1 depth-first walks over pairs (state of k+, state of
k) without links, whatever the search bound.  Only a witness that a bound
d fails builds k+ as a Dfa with its links and walks d factors, and only
when the least delay exceeds d.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    _dfa_empty,
    _Scanner,
    breadth_first,
    compile_pattern,
    concat,
    explore,
    minimize,
    product,
    shortest_word,
    spell,
    star,
)
from .config import DEFAULT
from .errors import InputError


def _sealed(k: Dfa) -> bool:
    """Whether k's initial state is not final and every final row leads
    only to non-final states whose rows are all themselves.  Then no word
    of k extends another, so k accepts a prefix code; the minimal DFA of
    a prefix code is sealed."""
    if k.initial in k.finals:
        return False
    for f in k.finals:
        for t in k.delta[f]:
            if t in k.finals or any(u != t for u in k.delta[t]):
                return False
    return True


def prefix_code_violation(k: Dfa) -> str | None:
    """A witness that k is not a prefix code: the empty word if present,
    else a shortest word of k that extends a shorter word of k.  A sealed
    k has none; otherwise the walk runs over (state of k, a shorter
    prefix lies in k)."""
    if _sealed(k):
        return None
    if k.initial in k.finals:
        return ""
    symbols = k.alphabet.symbols

    def successors(node):
        q, extends = node
        extends = extends or q in k.finals
        return [(symbol, (t, extends)) for symbol, t in zip(symbols, k.delta[q])]

    links: dict = {}
    for node in breadth_first(((k.initial, False),), successors, links):
        if node[1] and node[0] in k.finals:
            return spell(links, node)
    return None


def is_prefix_code(k: Dfa) -> bool:
    return prefix_code_violation(k) is None


def _require_prefix_code(k: Dfa) -> None:
    bad = prefix_code_violation(k)
    if bad is not None:
        raise InputError(f"not a prefix code, witness {bad!r}")


def _plus_maps(k: Dfa) -> tuple[Dfa, dict]:
    """The minimal k+ for a prefix code k, and the links of a breadth-first
    walk from its final states backward along its edges: the live states
    are the ones the walk reaches, and each link spells, reversed, a
    shortest word leading from its state into a final state.  k+ is the
    minimal k with its final row replaced by the initial row, minimal as
    it stands and renumbered breadth-first (see the module docstring)."""
    k = minimize(k)
    rows = [k.delta[k.initial] if q in k.finals else row for q, row in enumerate(k.delta)]
    order, delta = explore(k.initial, rows.__getitem__)
    finals = frozenset(i for i, q in enumerate(order) if q in k.finals)
    plus = Dfa._trusted(k.alphabet, len(order), 0, finals, tuple(delta), minimal=True)
    into: list[list] = [[] for _ in range(plus.states)]
    for q, row in enumerate(plus.delta):
        for symbol, target in zip(k.alphabet.symbols, row):
            into[target].append((symbol, q))
    back: dict = {}
    for _ in breadth_first(sorted(plus.finals), into.__getitem__, back):
        pass
    return plus, back


def _factor_walk(k: Dfa, plus: Dfa, starts, limit: int, links: dict):
    """Breadth-first over (state of k+, factors of k read, state of k) from
    (p, 0, initial state of k) for each p in `starts`, yielding each node
    and recording its link as `breadth_first` does.  After a final state
    of k the next letter is read from k's initial row, and no factor past
    the limit-th is started.  Only witnesses walk it: the links spell v."""
    symbols = k.alphabet.symbols
    for p in starts:
        links[p, 0, k.initial] = None
    queue = deque(links)
    while queue:
        node = queue.popleft()
        yield node
        p, count, q = node
        if q in k.finals:
            if count == limit:
                continue
            q = k.initial
        for symbol, nxt_p, t in zip(symbols, plus.delta[p], k.delta[q]):
            nxt = (nxt_p, count + (t in k.finals), t)
            if nxt not in links:
                links[nxt] = (node, symbol)
                queue.append(nxt)


def _factor_ends(plus: list, final: int, dead: int, starts, initial: int) -> set:
    """The states but `dead` that one word of k leads k+ to from `starts`,
    by a depth-first walk over pairs (state of k+, state of k) coded as
    p * n + q.  A pair at the final state of k ends a word and is not
    expanded, so the second state never reads the final row, the one row
    where k+ differs from k, and `plus` serves both.  A pair holding the
    dead state reaches no end."""
    n = len(plus)
    seen = {p * n + initial for p in starts}
    stack = list(seen)
    ends = set()
    while stack:
        p, q = divmod(stack.pop(), n)
        for s, t in zip(plus[p], plus[q]):
            if t == final:
                ends.add(s)
            elif s != dead != t:
                node = s * n + t
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    ends.discard(dead)
    return ends


def _least_delay(k: Dfa, dmax: int) -> int | None:
    """Least delay bound up to dmax of the prefix code whose minimal DFA is
    k, or None.

    R_0 is every state but the dead one, the states of k+ that reach a
    final state: in a minimal complete DFA only a non-final sink reaches
    none.  R_d holds the states but the dead one that one word of k leads
    k+ to from R_{d-1}, and d is a delay bound iff R_d holds only final
    states.  R_1 lies inside R_0 and the step is monotone, so R shrinks,
    and once it stops shrinking with a non-final state in it no bound
    exists: at most |k+| + 1 rounds, whatever dmax is."""
    if not k.finals:
        return 1
    (final,) = k.finals
    dead = k.delta[final][0]
    plus = list(k.delta)
    plus[final] = k.delta[k.initial]
    reached = set(range(len(plus))) - {dead}
    for d in range(1, dmax + 1):
        ends = _factor_ends(plus, final, dead, reached, k.initial)
        if ends <= k.finals:
            return d
        if ends == reached:
            return None
        reached = ends
    return None


def _delay_witness(k: Dfa, d: int) -> tuple[str, str, str] | None:
    """The first (u, v, w) with v in k^d, uvw in k+ and uv not in k+,
    trying u in breadth-first order and then shortest v.  Bounds are upward
    closed, so when the least delay is at most d there is none, and only
    a failing bound builds k+ with its links and walks d factors."""
    k = minimize(k)
    if _least_delay(k, d) is not None:
        return None
    plus, back = _plus_maps(k)
    symbols = k.alphabet.symbols
    ahead: dict = {}
    for p1 in breadth_first((plus.initial,), lambda q: zip(symbols, plus.delta[q]), ahead):
        if p1 not in back:
            continue
        links: dict = {}
        for node in _factor_walk(k, plus, (p1,), d, links):
            p, count, _ = node
            if count == d and p not in plus.finals and p in back:
                return spell(ahead, p1), spell(links, node), spell(back, p)[::-1]
    return None


def sync_delay_witness(k: Dfa, d: int) -> tuple[str, str, str] | None:
    """A triple (u, v, w) with v in k^d, uvw in k+ but uv not in k+,
    or None when the delay bound d holds.  Requires a prefix code."""
    if d < 1:
        raise InputError("synchronization delay must be at least 1")
    _require_prefix_code(k)
    return _delay_witness(k, d)


def min_sync_delay(k: Dfa, dmax: int | None = None) -> int | None:
    """Least delay bound up to dmax >= 1, DEFAULT.delay_dmax when it is
    None, or None.  Requires a prefix code."""
    if dmax is None:
        dmax = DEFAULT.delay_dmax
    if dmax < 1:
        raise InputError("synchronization delay bound must be at least 1")
    _require_prefix_code(k)
    return _least_delay(minimize(k), dmax)


def disjointness_witness(k: Dfa, l: Dfa) -> str | None:
    return shortest_word(product(k, l, "intersection"))


def ambiguity_witness(k: Dfa, l: Dfa) -> str | None:
    """A word of k l with two different split points, or None.

    Breadth-first search over three phases: scanning the word inside k,
    scanning after a first chosen split, and after a second, later split.
    Spawning the next phase is an empty-word move available whenever the
    prefix read so far lies in k: a spawn is linked by the letter that
    reached its spawner, and queued right after it.
    """
    if k.alphabet != l.alphabet:
        raise InputError("concatenation requires identical alphabets")

    def spawns(node):
        if node[0] == 0 and node[1] in k.finals:
            return [(1, node[1], l.initial, False)]
        if node[0] == 1 and node[3] and node[1] in k.finals:
            return [(2, node[2], l.initial)]
        return []

    def successors(node):
        for i, symbol in enumerate(k.alphabet.symbols):
            if node[0] == 0:
                nxt = (0, k.delta[node[1]][i])
            elif node[0] == 1:
                nxt = (1, k.delta[node[1]][i], l.delta[node[2]][i], True)
            else:
                nxt = (2, l.delta[node[1]][i], l.delta[node[2]][i])
            yield symbol, nxt
            for spawn in spawns(nxt):
                yield symbol, spawn

    root = (0, k.initial)
    links: dict = {}
    for node in breadth_first([root, *spawns(root)], successors, links):
        if node[0] == 2 and node[1] in l.finals and node[2] in l.finals:
            return spell(links, node)
    return None


# ---------------------------------------------------------------------------
# Checked expressions


class _SdParser(_Scanner):
    """Syntax: `%`, letters, `dunion(E,F)`, `uconcat(E,F)`,
    `capC(E, "<regex>")` and `star(E, d=<int>)`, nested at most
    MAX_NESTING deep.  The parser recurses once per level and emits the
    expression as a postfix program: one (rule, path, argument) step per
    subexpression, children first.  The rule is `empty`, `letter`,
    `dunion`, `uconcat`, `capC` or `star`; the path is `root` followed by
    `.left`, `.right` or `.child` per level; the argument is the letter,
    the capC pattern or the star delay, else None."""

    what = "expression"

    def ident(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def parse(self) -> list[tuple[str, str, object]]:
        self.program: list[tuple[str, str, object]] = []
        self.expr("root")
        if not self.at_end():
            self.fail(f"unexpected {self.peek()!r}")
        return self.program

    def expr(self, path: str) -> None:
        self.depth = self.bounded(self.depth + 1)
        self.program.append(self.node(path))
        self.depth -= 1

    def node(self, path: str) -> tuple[str, str, object]:
        """Emit the steps of the subexpression's children and return its
        own step."""
        if self.peek() == "%":
            self.pos += 1
            return "empty", path, None
        mark = self.pos
        name = self.ident()
        if name in ("dunion", "uconcat"):
            self.eat("(")
            self.expr(path + ".left")
            self.eat(",")
            self.expr(path + ".right")
            self.eat(")")
            return name, path, None
        if name == "capC":
            self.eat("(")
            self.expr(path + ".child")
            self.eat(",")
            self.eat('"')
            end = self.text.find('"', self.pos)
            if end < 0:
                self.fail("unterminated pattern string")
            pattern = self.text[self.pos:end]
            self.pos = end + 1
            self.eat(")")
            return "capC", path, pattern
        if name == "star":
            self.eat("(")
            self.expr(path + ".child")
            self.eat(",")
            key = self.ident()
            if key != "d":
                self.fail("expected d=<int>")
            self.eat("=")
            self.peek()
            digits = self.pos
            # ASCII digits only: str.isdigit also takes "²", which int rejects
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            if digits == self.pos:
                self.fail("expected a delay bound")
            try:
                delay = int(self.text[digits:self.pos])
            except ValueError:  # past Python's digit limit for int()
                self.pos = digits
                self.fail("delay bound has too many digits")
            self.eat(")")
            return "star", path, delay
        if len(name) == 1 and name in self.alphabet:
            return "letter", path, name
        self.pos = mark
        self.fail(f"expected an expression, found {name!r}" if name else "expected an expression")


def parse_sd_expression(text: str, alphabet: Alphabet) -> list[tuple[str, str, object]]:
    return _SdParser(text, alphabet).parse()


@dataclass(frozen=True)
class SdViolation:
    path: str
    rule: str
    witness: object

    def to_json(self) -> dict:
        return {"path": self.path, "rule": self.rule, "witness": self.witness}


def validate_sd_expression(
    expr: list[tuple[str, str, object]], alphabet: Alphabet, dmax: int | None = None
) -> tuple[Dfa | None, list[SdViolation]]:
    """Compile an expression, checking every side condition.

    Runs the parser's postfix program in one loop over a stack of DFAs,
    so nothing recurses per level.  Returns (dfa, []) on success and
    (None, violations) otherwise; each violation names a subexpression's
    path, the broken rule, and a witness.  With a dmax, star delays above
    the bound are rejected as input errors.
    """
    violations: list[SdViolation] = []
    stack: list[Dfa] = []
    for rule, path, argument in expr:
        if rule == "empty":
            stack.append(_dfa_empty(alphabet))
        elif rule == "letter":
            stack.append(compile_pattern(argument, alphabet))
        elif rule == "dunion":
            right = stack.pop()
            left = stack.pop()
            witness = disjointness_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "disjoint", witness))
            stack.append(minimize(product(left, right, "union")))
        elif rule == "uconcat":
            right = stack.pop()
            left = stack.pop()
            witness = ambiguity_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "unambiguous", witness))
            stack.append(minimize(concat(left, right)))
        elif rule == "capC":
            other = compile_pattern(argument, alphabet)
            stack.append(minimize(product(stack.pop(), other, "intersection")))
        elif rule == "star":
            child = stack.pop()
            if argument < 1:
                raise InputError("star delay must be at least 1")
            if dmax is not None and argument > dmax:
                raise InputError(f"star delay {argument} exceeds the bound {dmax}")
            bad = prefix_code_violation(child)
            if bad is not None:
                violations.append(SdViolation(path, "prefix-code", bad))
            else:
                triple = _delay_witness(child, argument)
                if triple is not None:
                    violations.append(SdViolation(path, "sync-delay", list(triple)))
            stack.append(minimize(star(child)))
        else:
            raise InputError(f"unknown expression step {(rule, path, argument)!r}")
    if violations:
        return None, violations
    return stack.pop(), []
