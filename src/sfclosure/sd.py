"""Prefix codes, synchronization delay, and checked language expressions.

An expression built from empty, single letters, disjoint unions,
unambiguous concatenations, class intersections and stars of prefix
codes with bounded synchronization delay denotes a language in the
star-free closure by construction.  The validator compiles every node
and checks each structural side condition, reporting violations as data
with witness words.

A delay bound d of a prefix code k is read off one breadth-first walk
over (state of k+, factors of k read, state of k) that starts no factor
past the d-th: no automaton for k^d is built, and the least delay is
found within |k+| + 1 one-factor steps, whatever the search bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    _dfa_empty,
    _Scanner,
    accepts,
    compile_pattern,
    concat,
    minimize,
    product,
    shortest_word,
    star,
)
from .errors import InputError


def _a_plus(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 2, 0, frozenset({1}), ((1,) * width, (1,) * width))


def prefix_code_violation(k: Dfa) -> str | None:
    """A witness that k is not a prefix code: the empty word if present,
    else a word of k that extends a shorter word of k."""
    if accepts(k, ""):
        return ""
    proper_extensions = concat(k, _a_plus(k.alphabet))
    return shortest_word(product(k, proper_extensions, "intersection"))


def is_prefix_code(k: Dfa) -> bool:
    return prefix_code_violation(k) is None


def _require_prefix_code(k: Dfa) -> None:
    bad = prefix_code_violation(k)
    if bad is not None:
        raise InputError(f"not a prefix code, witness {bad!r}")


def _plus_maps(k: Dfa) -> tuple[Dfa, dict[int, str], dict[int, str]]:
    """k+ with, per state, a shortest word reaching it from the initial
    state and, per live state, a shortest word leading from it into a
    final state.  `minimize` numbers the states breadth-first, letters in
    alphabet order, so one pass in state order gives each state its
    breadth-first shortest prefix."""
    plus = minimize(concat(k, star(k)))
    symbols = k.alphabet.symbols
    width = len(symbols)

    # shortest completion into a final state, per state of k+
    suffix: dict[int, str] = {q: "" for q in plus.finals}
    queue = deque(sorted(plus.finals))
    while queue:
        target = queue.popleft()
        for q in range(plus.states):
            for i in range(width):
                if plus.delta[q][i] == target and q not in suffix:
                    suffix[q] = symbols[i] + suffix[target]
                    queue.append(q)
    prefix = {plus.initial: ""}
    for q in range(plus.states):
        for symbol, nxt in zip(symbols, plus.delta[q]):
            if nxt not in prefix:
                prefix[nxt] = prefix[q] + symbol
    return plus, prefix, suffix


def _factor_walk(k: Dfa, plus: Dfa, starts, limit: int):
    """Breadth-first over (state of k+, factors of k read, state of k) from
    (p, 0, initial state of k) for each p in `starts`, yielding each node
    with the shortest word reaching it.  After a final state of k the next
    letter is read from k's initial row, and no factor past the limit-th
    is started."""
    symbols = k.alphabet.symbols
    words = {(p, 0, k.initial): "" for p in starts}
    queue = deque(words)
    while queue:
        node = queue.popleft()
        word = words[node]
        yield node, word
        p, count, q = node
        if q in k.finals:
            if count == limit:
                continue
            q = k.initial
        for symbol, nxt_p, t in zip(symbols, plus.delta[p], k.delta[q]):
            nxt = (nxt_p, count + (t in k.finals), t)
            if nxt not in words:
                words[nxt] = word + symbol
                queue.append(nxt)


def _delay_witness(k: Dfa, d: int) -> tuple[str, str, str] | None:
    """The first (u, v, w) with v in k^d, uvw in k+ and uv not in k+,
    trying u in breadth-first order and then shortest v."""
    plus, prefix, suffix = _plus_maps(k)
    for p1 in sorted(suffix):
        for (p, count, _), v in _factor_walk(k, plus, (p1,), d):
            if count == d and p not in plus.finals and p in suffix:
                return (prefix[p1], v, suffix[p])
    return None


def sync_delay_witness(k: Dfa, d: int) -> tuple[str, str, str] | None:
    """A triple (u, v, w) with v in k^d, uvw in k+ but uv not in k+,
    or None when the delay bound d holds.  Requires a prefix code."""
    if d < 1:
        raise InputError("synchronization delay must be at least 1")
    _require_prefix_code(k)
    return _delay_witness(k, d)


def min_sync_delay(k: Dfa, dmax: int = 8) -> int | None:
    """Least delay bound up to dmax >= 1, or None.  Requires a prefix code.

    R_0 is the set of live states of k+, and R_d the live states that one
    factor of k leads to from R_{d-1}; d is a delay bound iff R_d holds
    only final states.  R_1 is inside R_0 and the step is monotone, so R
    shrinks, and once it stops shrinking with a non-final state in it no
    bound exists: at most |k+| + 1 steps, whatever dmax is."""
    if dmax < 1:
        raise InputError("synchronization delay bound must be at least 1")
    _require_prefix_code(k)
    plus, _, live = _plus_maps(k)
    reached = set(live)
    for d in range(1, dmax + 1):
        walk = _factor_walk(k, plus, reached, 1)
        ends = {p for (p, count, _q), _v in walk if count == 1 and p in live}
        if ends <= plus.finals:
            return d
        if ends == reached:
            return None
        reached = ends
    return None


def disjointness_witness(k: Dfa, l: Dfa) -> str | None:
    return shortest_word(product(k, l, "intersection"))


def ambiguity_witness(k: Dfa, l: Dfa) -> str | None:
    """A word of k l with two different split points, or None.

    Breadth-first search over three phases: scanning the word inside k,
    scanning after a first chosen split, and after a second, later split.
    Spawning the next phase is an epsilon move available whenever the
    prefix read so far lies in k.
    """
    if k.alphabet != l.alphabet:
        raise InputError("concatenation requires identical alphabets")
    width = len(k.alphabet)

    def closure(node):
        spawned = []
        kind = node[0]
        if kind == 0:
            _, p = node
            if p in k.finals:
                spawned.append((1, p, l.initial, False))
        elif kind == 1:
            _, p, q1, moved = node
            if moved and p in k.finals:
                spawned.append((2, q1, l.initial))
        return spawned

    root = (0, k.initial)
    parent: dict[tuple, tuple] = {root: (None, None)}
    queue = deque([root])
    pending = closure(root)
    for extra in pending:
        parent[extra] = (root, None)
        queue.append(extra)

    def build(node) -> str:
        chunks = []
        while node is not None:
            prev, sym = parent[node]
            if sym is not None:
                chunks.append(sym)
            node = prev
        return "".join(reversed(chunks))

    while queue:
        node = queue.popleft()
        if node[0] == 2 and node[1] in l.finals and node[2] in l.finals:
            return build(node)
        for i in range(width):
            sym = k.alphabet.symbols[i]
            kind = node[0]
            if kind == 0:
                nxt = (0, k.delta[node[1]][i])
            elif kind == 1:
                nxt = (1, k.delta[node[1]][i], l.delta[node[2]][i], True)
            else:
                nxt = (2, l.delta[node[1]][i], l.delta[node[2]][i])
            if nxt not in parent:
                parent[nxt] = (node, sym)
                queue.append(nxt)
                for spawn in closure(nxt):
                    if spawn not in parent:
                        parent[spawn] = (nxt, None)
                        queue.append(spawn)
    return None


# ---------------------------------------------------------------------------
# Checked expressions


class SdExpr:
    __slots__ = ()


@dataclass(frozen=True)
class SdEmpty(SdExpr):
    pass


@dataclass(frozen=True)
class SdLetter(SdExpr):
    symbol: str


@dataclass(frozen=True)
class SdUnion(SdExpr):
    left: SdExpr
    right: SdExpr


@dataclass(frozen=True)
class SdConcat(SdExpr):
    left: SdExpr
    right: SdExpr


@dataclass(frozen=True)
class SdCap(SdExpr):
    child: SdExpr
    pattern: str


@dataclass(frozen=True)
class SdStar(SdExpr):
    child: SdExpr
    delay: int


class _SdParser(_Scanner):
    """Syntax: `%`, letters, `dunion(E,F)`, `uconcat(E,F)`,
    `capC(E, "<regex>")` and `star(E, d=<int>)`, nested at most
    MAX_NESTING deep; the parser and the validator each recurse once per
    level."""

    what = "expression"

    def ident(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def parse(self) -> SdExpr:
        node = self.expr()
        if not self.at_end():
            self.fail(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> SdExpr:
        self.depth = self.bounded(self.depth + 1)
        node = self.node()
        self.depth -= 1
        return node

    def node(self) -> SdExpr:
        if self.peek() == "%":
            self.pos += 1
            return SdEmpty()
        mark = self.pos
        name = self.ident()
        if name in ("dunion", "uconcat"):
            self.eat("(")
            left = self.expr()
            self.eat(",")
            right = self.expr()
            self.eat(")")
            return SdUnion(left, right) if name == "dunion" else SdConcat(left, right)
        if name == "capC":
            self.eat("(")
            child = self.expr()
            self.eat(",")
            self.eat('"')
            end = self.text.find('"', self.pos)
            if end < 0:
                self.fail("unterminated pattern string")
            pattern = self.text[self.pos:end]
            self.pos = end + 1
            self.eat(")")
            return SdCap(child, pattern)
        if name == "star":
            self.eat("(")
            child = self.expr()
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
            return SdStar(child, delay)
        if len(name) == 1 and name in self.alphabet:
            return SdLetter(name)
        self.pos = mark
        self.fail(f"expected an expression, found {name!r}" if name else "expected an expression")


def parse_sd_expression(text: str, alphabet: Alphabet) -> SdExpr:
    return _SdParser(text, alphabet).parse()


@dataclass(frozen=True)
class SdViolation:
    path: str
    rule: str
    witness: object

    def to_json(self) -> dict:
        return {"path": self.path, "rule": self.rule, "witness": self.witness}


def validate_sd_expression(
    expr: SdExpr, alphabet: Alphabet, dmax: int | None = None
) -> tuple[Dfa | None, list[SdViolation]]:
    """Compile an expression, checking every side condition.

    Returns (dfa, []) on success and (None, violations) otherwise; each
    violation names a node path, the broken rule, and a witness.  With a
    dmax, star delays above the bound are rejected as input errors.
    """
    violations: list[SdViolation] = []

    def walk(node: SdExpr, path: str) -> Dfa:
        if isinstance(node, SdEmpty):
            return _dfa_empty(alphabet)
        if isinstance(node, SdLetter):
            return compile_pattern(node.symbol, alphabet)
        if isinstance(node, SdUnion):
            left = walk(node.left, path + ".left")
            right = walk(node.right, path + ".right")
            witness = disjointness_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "disjoint", witness))
            return minimize(product(left, right, "union"))
        if isinstance(node, SdConcat):
            left = walk(node.left, path + ".left")
            right = walk(node.right, path + ".right")
            witness = ambiguity_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "unambiguous", witness))
            return minimize(concat(left, right))
        if isinstance(node, SdCap):
            child = walk(node.child, path + ".child")
            other = compile_pattern(node.pattern, alphabet)
            return minimize(product(child, other, "intersection"))
        if isinstance(node, SdStar):
            child = walk(node.child, path + ".child")
            if node.delay < 1:
                raise InputError("star delay must be at least 1")
            if dmax is not None and node.delay > dmax:
                raise InputError(
                    f"star delay {node.delay} exceeds the bound {dmax}"
                )
            bad = prefix_code_violation(child)
            if bad is not None:
                violations.append(SdViolation(path, "prefix-code", bad))
            else:
                triple = _delay_witness(child, node.delay)
                if triple is not None:
                    violations.append(SdViolation(path, "sync-delay", list(triple)))
            return minimize(star(child))
        raise InputError(f"unknown expression node {node!r}")

    dfa = walk(expr, "root")
    if violations:
        return None, violations
    return dfa, []

