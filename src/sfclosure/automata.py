"""Regular expressions and complete DFAs.

Everything downstream manipulates complete DFAs: the transition table is
total, so complement is a final-set flip and products never special-case
missing edges.  State numbering of minimized automata is canonical
(breadth-first from the initial state, letters in alphabet order), which
makes equality of minimized DFAs decide language equality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise InputError("alphabet must not be empty")
        seen = set()
        for sym in self.symbols:
            if len(sym) != 1 or not (sym.isascii() and sym.isalnum()):
                raise InputError(f"alphabet symbol {sym!r} must be one ascii letter or digit")
            if sym in seen:
                raise InputError(f"duplicate alphabet symbol {sym!r}")
            seen.add(sym)

    def index(self, sym: str) -> int:
        try:
            return self.symbols.index(sym)
        except ValueError:
            raise InputError(f"symbol {sym!r} is not in the alphabet") from None

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, sym: str) -> bool:
        return sym in self.symbols


def make_alphabet(text: str) -> Alphabet:
    return Alphabet(tuple(text))


# ---------------------------------------------------------------------------
# Regular expression syntax tree


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Letter(Regex):
    symbol: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Intersect(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    child: Regex


@dataclass(frozen=True)
class Complement(Regex):
    child: Regex


# nesting bound of the regex parser: the most '(', '~' and '*' levels on
# one path of the syntax tree.  Each '(' costs the parser four Python
# frames and each level costs compile_regex one.
MAX_REGEX_DEPTH = 100


class _RegexParser:
    """Recursive descent for the grammar

        expr   := term ('+' term)*
        term   := factor ('&' factor)*
        factor := atom atom ...          (possibly zero atoms: epsilon)
        atom   := base '*'* where base := letter | '_' | '%' | '~' atom | '(' expr ')'

    '*' binds tighter than '~', which binds tighter than juxtaposition.
    Each rule returns its node and its nesting height: the most '(', '~'
    and '*' levels on one path below it, at most MAX_REGEX_DEPTH.
    """

    _ATOM_START_EXTRA = "_%~("

    def __init__(self, text: str, alphabet: Alphabet) -> None:
        self.text = text
        self.pos = 0
        self.alphabet = alphabet
        # '(' and '~' levels open around the current position
        self.depth = 0

    def fail(self, message: str):
        raise InputError(f"regex syntax error at offset {self.pos}: {message}")

    def bounded(self, height: int) -> int:
        if height > MAX_REGEX_DEPTH:
            self.fail(f"regex nested deeper than {MAX_REGEX_DEPTH} levels")
        return height

    def peek(self) -> str | None:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_atom(self) -> bool:
        self.skip_ws()
        ch = self.peek()
        if ch is None:
            return False
        return ch in self.alphabet or ch in self._ATOM_START_EXTRA

    def parse(self) -> Regex:
        node, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> tuple[Regex, int]:
        node, height = self.term()
        while True:
            self.skip_ws()
            if self.peek() == "+":
                self.take()
                right, right_height = self.term()
                node, height = Union(node, right), max(height, right_height)
            else:
                return node, height

    def term(self) -> tuple[Regex, int]:
        node, height = self.factor()
        while True:
            self.skip_ws()
            if self.peek() == "&":
                self.take()
                right, right_height = self.factor()
                node, height = Intersect(node, right), max(height, right_height)
            else:
                return node, height

    def factor(self) -> tuple[Regex, int]:
        if not self.at_atom():
            return Epsilon(), 0
        node, height = self.atom()
        while self.at_atom():
            right, right_height = self.atom()
            node, height = Concat(node, right), max(height, right_height)
        return node, height

    def atom(self) -> tuple[Regex, int]:
        self.skip_ws()
        ch = self.peek()
        if ch is None:
            self.fail("expected an atom, found end of input")
        if ch == "~":
            self.take()
            self.depth = self.bounded(self.depth + 1)
            child, height = self.atom()
            self.depth -= 1
            return Complement(child), self.bounded(height + 1)
        node: Regex
        height = 0
        if ch == "(":
            self.take()
            self.depth = self.bounded(self.depth + 1)
            node, height = self.expr()
            self.depth -= 1
            height = self.bounded(height + 1)
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.take()
        elif ch == "_":
            self.take()
            node = Epsilon()
        elif ch == "%":
            self.take()
            node = Empty()
        elif ch in self.alphabet:
            node = Letter(self.take())
        else:
            self.fail(f"unexpected {ch!r}")
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.take()
                node, height = Star(node), self.bounded(height + 1)
            else:
                return node, height


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    return _RegexParser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# Complete deterministic automata


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    states: int
    initial: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.states < 1:
            raise InputError("a complete DFA needs at least one state")
        if not 0 <= self.initial < self.states:
            raise InputError("initial state out of range")
        for q in self.finals:
            if not 0 <= q < self.states:
                raise InputError(f"final state {q} out of range")
        if len(self.delta) != self.states:
            raise InputError("transition table must have one row per state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise InputError(f"state {q}: transition row has wrong width")
            for target in row:
                if not 0 <= target < self.states:
                    raise InputError(f"state {q}: transition target {target} out of range")

    def step(self, state: int, word: str) -> int:
        for sym in word:
            state = self.delta[state][self.alphabet.index(sym)]
        return state


def accepts(dfa: Dfa, word: str) -> bool:
    return dfa.step(dfa.initial, word) in dfa.finals


def is_empty(dfa: Dfa) -> bool:
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        if q in dfa.finals:
            return False
        for target in dfa.delta[q]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return True


def shortest_word(dfa: Dfa) -> str | None:
    """A length-lexicographically least accepted word, or None."""
    if dfa.initial in dfa.finals:
        return ""
    parent: dict[int, tuple[int, str]] = {}
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        for i, sym in enumerate(dfa.alphabet):
            target = dfa.delta[q][i]
            if target in seen:
                continue
            seen.add(target)
            parent[target] = (q, sym)
            if target in dfa.finals:
                chunks = []
                state = target
                while state != dfa.initial:
                    state, sym2 = parent[state]
                    chunks.append(sym2)
                return "".join(reversed(chunks))
            queue.append(target)
    return None


def complement(dfa: Dfa) -> Dfa:
    finals = frozenset(range(dfa.states)) - dfa.finals
    return Dfa(dfa.alphabet, dfa.states, dfa.initial, finals, dfa.delta)


_PRODUCT_MODES = {
    "union": lambda a, b: a or b,
    "intersection": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


def product(left: Dfa, right: Dfa, mode: str) -> Dfa:
    """Reachable product automaton; mode is union, intersection or difference."""
    if mode not in _PRODUCT_MODES:
        raise InputError(f"unknown product mode {mode!r}")
    if left.alphabet != right.alphabet:
        raise InputError("product requires identical alphabets")
    combine = _PRODUCT_MODES[mode]
    start = (left.initial, right.initial)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        for i in range(len(left.alphabet)):
            nxt = (left.delta[p][i], right.delta[q][i])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    delta = tuple(
        tuple(index[(left.delta[p][i], right.delta[q][i])] for i in range(len(left.alphabet)))
        for p, q in order
    )
    finals = frozenset(
        k for k, (p, q) in enumerate(order) if combine(p in left.finals, q in right.finals)
    )
    return Dfa(left.alphabet, len(order), 0, finals, delta)


def _determinize(
    alphabet: Alphabet,
    start: tuple,
    step,
    accepting,
) -> Dfa:
    """Generic subset-style determinization over hashable macro states."""
    index = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for i in range(len(alphabet)):
            nxt = step(state, i)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    delta = tuple(
        tuple(index[step(state, i)] for i in range(len(alphabet))) for state in order
    )
    finals = frozenset(k for k, state in enumerate(order) if accepting(state))
    return Dfa(alphabet, len(order), 0, finals, delta)


def concat(left: Dfa, right: Dfa) -> Dfa:
    """DFA for the concatenation of the two languages."""
    if left.alphabet != right.alphabet:
        raise InputError("concatenation requires identical alphabets")

    def close(p: int, subset: frozenset[int]) -> tuple[int, frozenset[int]]:
        if p in left.finals:
            subset = subset | {right.initial}
        return (p, subset)

    def step(state, i):
        p, subset = state
        return close(left.delta[p][i], frozenset(right.delta[q][i] for q in subset))

    start = close(left.initial, frozenset())
    return _determinize(
        left.alphabet, start, step, lambda state: bool(state[1] & right.finals)
    )


def star(dfa: Dfa) -> Dfa:
    """DFA for the Kleene star.

    Macro states are subsets of dfa states, with None as a fresh initial
    state so that re-reaching {initial} is not mistaken for the empty word.
    """

    def close(subset: frozenset[int]) -> frozenset[int]:
        if subset & dfa.finals:
            return subset | {dfa.initial}
        return subset

    def step(state, i):
        subset = frozenset({dfa.initial}) if state is None else state
        return close(frozenset(dfa.delta[q][i] for q in subset))

    def accepting(state) -> bool:
        return state is None or bool(state & dfa.finals)

    return _determinize(dfa.alphabet, None, step, accepting)


def minimize(dfa: Dfa) -> Dfa:
    """Minimal complete DFA with canonical state numbering.

    Numbering is breadth-first from the initial state, exploring letters in
    alphabet order, so equal languages yield identical structures.
    """
    # restrict to reachable states
    reach = [dfa.initial]
    seen = {dfa.initial}
    queue = deque(reach)
    while queue:
        q = queue.popleft()
        for target in dfa.delta[q]:
            if target not in seen:
                seen.add(target)
                reach.append(target)
                queue.append(target)
    # Moore refinement on the reachable part
    block = {q: int(q in dfa.finals) for q in reach}
    while True:
        signature = {
            q: (block[q], tuple(block[t] for t in dfa.delta[q])) for q in reach
        }
        renumber: dict[tuple, int] = {}
        for q in reach:
            renumber.setdefault(signature[q], len(renumber))
        new_block = {q: renumber[signature[q]] for q in reach}
        if new_block == block:
            break
        block = new_block
    # canonical breadth-first numbering of the blocks
    repr_of: dict[int, int] = {}
    for q in reach:
        repr_of.setdefault(block[q], q)
    canon = {block[dfa.initial]: 0}
    order = [block[dfa.initial]]
    queue = deque(order)
    while queue:
        b = queue.popleft()
        q = repr_of[b]
        for target in dfa.delta[q]:
            tb = block[target]
            if tb not in canon:
                canon[tb] = len(canon)
                order.append(tb)
                queue.append(tb)
    delta = tuple(
        tuple(canon[block[t]] for t in dfa.delta[repr_of[b]]) for b in order
    )
    finals = frozenset(canon[b] for b in order if repr_of[b] in dfa.finals)
    return Dfa(dfa.alphabet, len(order), 0, finals, delta)


def _dfa_empty(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 1, 0, frozenset(), ((0,) * width,))


def _dfa_epsilon(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 2, 0, frozenset({0}), ((1,) * width, (1,) * width))


def _dfa_letter(alphabet: Alphabet, symbol: str) -> Dfa:
    width = len(alphabet)
    idx = alphabet.index(symbol)
    row0 = tuple(1 if i == idx else 2 for i in range(width))
    return Dfa(alphabet, 3, 0, frozenset({1}), (row0, (2,) * width, (2,) * width))


def compile_regex(node: Regex, alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA for a parsed expression."""
    if isinstance(node, Empty):
        return _dfa_empty(alphabet)
    if isinstance(node, Epsilon):
        return minimize(_dfa_epsilon(alphabet))
    if isinstance(node, Letter):
        if node.symbol not in alphabet:
            raise InputError(f"letter {node.symbol!r} is not in the alphabet")
        return minimize(_dfa_letter(alphabet, node.symbol))
    if isinstance(node, Union):
        return minimize(
            product(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet), "union")
        )
    if isinstance(node, Intersect):
        return minimize(
            product(
                compile_regex(node.left, alphabet),
                compile_regex(node.right, alphabet),
                "intersection",
            )
        )
    if isinstance(node, Concat):
        return minimize(
            concat(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet))
        )
    if isinstance(node, Star):
        return minimize(star(compile_regex(node.child, alphabet)))
    if isinstance(node, Complement):
        return complement(compile_regex(node.child, alphabet))
    raise InputError(f"unknown regex node {node!r}")


def compile_pattern(text: str, alphabet: Alphabet) -> Dfa:
    """Parse and compile in one go."""
    return compile_regex(parse_regex(text, alphabet), alphabet)


# ---------------------------------------------------------------------------
# Serialization


def dfa_to_json(dfa: Dfa) -> dict:
    return {
        "alphabet": list(dfa.alphabet.symbols),
        "states": dfa.states,
        "initial": dfa.initial,
        "finals": sorted(dfa.finals),
        "delta": [list(row) for row in dfa.delta],
    }


def dfa_from_json(data: dict) -> Dfa:
    if not isinstance(data, dict):
        raise InputError("DFA document must be a JSON object")
    try:
        alphabet = Alphabet(tuple(data["alphabet"]))
        states = int(data["states"])
        initial = int(data["initial"])
        finals = frozenset(int(q) for q in data["finals"])
        delta = tuple(tuple(int(t) for t in row) for row in data["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed DFA document: {exc}") from exc
    return Dfa(alphabet, states, initial, finals, delta)

