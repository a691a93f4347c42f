"""Regular expressions, the scanner shared by the input languages, and
complete DFAs.

Everything downstream manipulates complete DFAs: the transition table is
total, so complement is a final-set flip and products never special-case
missing edges.  State numbering of minimized automata is canonical
(breadth-first from the initial state, letters in alphabet order), which
makes equality of minimized DFAs decide language equality.

The public constructor `Dfa(...)` checks every field.  The DFAs the
library derives from checked ones (products, concatenations, stars,
reversals, complements, quotients, word chains) are built with
`Dfa._trusted`, which skips the checks.  A DFA known to be minimal and
canonically numbered carries a `_minimal` marker: `minimize`, `_dfa_word`
and `_dfa_empty` set it, `complement` keeps it, and `minimize` returns a
marked DFA as it is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NoReturn

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
# Input scanning and regexes


# nesting bound of the regex, SD expression and formula parsers; each level
# costs a parser a few Python frames
MAX_NESTING = 100


class _Scanner:
    """A cursor over one input text, shared by the regex, SD expression and
    formula parsers.  `what` names the input language in error messages,
    and `depth` counts the levels a parser has open around the cursor."""

    what: str

    def __init__(self, text: str, alphabet: Alphabet) -> None:
        self.text = text
        self.pos = 0
        self.alphabet = alphabet
        self.depth = 0

    def fail(self, message: str) -> NoReturn:
        raise InputError(f"{self.what} syntax error at offset {self.pos}: {message}")

    def bounded(self, height: int) -> int:
        if height > MAX_NESTING:
            self.fail(f"{self.what} nested deeper than {MAX_NESTING} levels")
        return height

    def peek(self) -> str:
        """Skip blanks and return the next character, or '' at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos:pos + 1]

    def eat(self, token: str) -> None:
        self.peek()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)

    def at_end(self) -> bool:
        return not self.peek()


class _RegexParser(_Scanner):
    """Recursive descent for the grammar

        expr   := term ('+' term)*
        term   := factor ('&' factor)*
        factor := atom atom ...          (possibly zero atoms: epsilon)
        atom   := base '*'* where base := letter | '_' | '%' | '~' atom | '(' expr ')'

    '*' binds tighter than '~', which binds tighter than juxtaposition.
    Each rule returns the minimal DFA of what it read and its nesting
    height: the most '(', '~' and '*' levels on one path below it, at most
    MAX_NESTING.  `depth` counts the '(' and '~' levels open around the
    cursor, which stops the recursion before it can overflow.  Operands
    are compiled in post-order as they are read, and the loops combine
    them from the left, so a long flat word does not recurse.  `factor`
    reads each maximal run of letters that no '*' follows (blanks
    skipped) as one word and builds its DFA as a chain in one step, so a
    flat word compiles in linear time.
    """

    what = "regex"

    def parse(self) -> Dfa:
        dfa, _ = self.expr()
        if not self.at_end():
            self.fail(f"unexpected {self.peek()!r}")
        return dfa

    def expr(self) -> tuple[Dfa, int]:
        dfa, height = self.term()
        while self.peek() == "+":
            self.pos += 1
            right, right_height = self.term()
            dfa, height = minimize(product(dfa, right, "union")), max(height, right_height)
        return dfa, height

    def term(self) -> tuple[Dfa, int]:
        dfa, height = self.factor()
        while self.peek() == "&":
            self.pos += 1
            right, right_height = self.factor()
            dfa = minimize(product(dfa, right, "intersection"))
            height = max(height, right_height)
        return dfa, height

    def at_atom(self) -> bool:
        ch = self.peek()
        return ch != "" and (ch in self.alphabet or ch in "_%~(")

    def factor(self) -> tuple[Dfa, int]:
        dfa, height = None, 0
        while self.at_atom():
            # a run of letters with no '*' after them is one word; the run
            # is read here rather than in a helper, so that nesting costs
            # no extra frame per level
            word = []
            while self.peek() in self.alphabet:
                start = self.pos
                self.pos += 1
                if self.peek() == "*":
                    self.pos = start
                    break
                word.append(self.text[start])
            if word:
                right, right_height = _dfa_word(self.alphabet, "".join(word)), 0
            else:
                right, right_height = self.atom()
            if dfa is None:
                dfa, height = right, right_height
            else:
                dfa, height = minimize(concat(dfa, right)), max(height, right_height)
        if dfa is None:
            return _dfa_word(self.alphabet, ""), 0
        return dfa, height

    def atom(self) -> tuple[Dfa, int]:
        ch = self.peek()
        if not self.at_atom():
            self.fail(f"unexpected {ch!r}" if ch else "expected an atom, found end of input")
        self.pos += 1
        if ch == "~":
            self.depth = self.bounded(self.depth + 1)
            child, height = self.atom()
            self.depth -= 1
            return complement(child), self.bounded(height + 1)
        height = 0
        if ch == "(":
            self.depth = self.bounded(self.depth + 1)
            dfa, height = self.expr()
            self.depth -= 1
            height = self.bounded(height + 1)
            self.eat(")")
        elif ch == "_":
            dfa = _dfa_word(self.alphabet, "")
        elif ch == "%":
            dfa = _dfa_empty(self.alphabet)
        else:
            dfa = _dfa_word(self.alphabet, ch)
        while self.peek() == "*":
            self.pos += 1
            height = self.bounded(height + 1)
            dfa = minimize(star(dfa))
        return dfa, height


# ---------------------------------------------------------------------------
# Complete deterministic automata


@dataclass(frozen=True)
class Dfa:
    """A complete DFA.  `Dfa(...)` checks every field; the library builds
    the DFAs it derives from checked ones with `_trusted`, which skips the
    checks.  `_minimal` marks a DFA known to be minimal and canonically
    numbered, which `minimize` returns as it is; it is not a field, so
    equality, hashing, repr and `dfa_to_json` do not see it, and a
    `dataclasses.replace` copy comes out unmarked."""

    alphabet: Alphabet
    states: int
    initial: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    _minimal = False

    @classmethod
    def _trusted(
        cls,
        alphabet: Alphabet,
        states: int,
        initial: int,
        finals: frozenset[int],
        delta: tuple[tuple[int, ...], ...],
        minimal: bool = False,
    ) -> Dfa:
        """A DFA whose fields the caller derived from checked DFAs, so the
        range and width checks of __post_init__ are skipped."""
        dfa = object.__new__(cls)
        dfa.__dict__.update(
            alphabet=alphabet,
            states=states,
            initial=initial,
            finals=finals,
            delta=delta,
            _minimal=minimal,
        )
        return dfa

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


def breadth_first(starts, successors, links: dict):
    """Yield the nodes reachable from `starts` in breadth-first order.

    `successors(node)` gives (symbol, next node) pairs in the order to
    explore them.  The walk fills the empty dict `links` with, for each
    node reached, the (previous node, symbol) of the edge that first
    reached it, or None for a start; `spell` reads a word off it."""
    links.update(dict.fromkeys(starts))
    queue = deque(links)
    while queue:
        node = queue.popleft()
        yield node
        for symbol, nxt in successors(node):
            if nxt not in links:
                links[nxt] = (node, symbol)
                queue.append(nxt)


def spell(links: dict, node) -> str:
    """The word along the links from a start of the walk to `node`."""
    chunks = []
    while links[node] is not None:
        node, symbol = links[node]
        chunks.append(symbol)
    return "".join(reversed(chunks))


def shortest_word(dfa: Dfa) -> str | None:
    """A length-lexicographically least accepted word, or None."""
    symbols = dfa.alphabet.symbols
    links: dict = {}
    for q in breadth_first((dfa.initial,), lambda q: zip(symbols, dfa.delta[q]), links):
        if q in dfa.finals:
            return spell(links, q)
    return None


def accepted_words(dfa: Dfa, max_length: int) -> list[str]:
    """The accepted words of at most `max_length` letters, shortest first
    and in alphabet order within one length, grown a letter at a time
    through live states: live[r] holds the states with a path of exactly r
    letters to a final state, so once one is empty, every later one is."""
    symbols, delta = dfa.alphabet.symbols, dfa.delta
    live, words = [dfa.finals], []
    for n in range(max_length + 1):
        if n:
            live.append({q for q, row in enumerate(delta) if not live[-1].isdisjoint(row)})
        if not live[n]:
            break
        layer = [(dfa.initial, "")] if dfa.initial in live[n] else []
        for ahead in reversed(live[:n]):
            layer = [(t, word + sym) for q, word in layer
                     for sym, t in zip(symbols, delta[q]) if t in ahead]
        words += [word for _, word in layer]
    return words


def complement(dfa: Dfa) -> Dfa:
    """The same table with the finals flipped.  Flipping keeps states
    distinguishable and the numbering unchanged, so a minimal canonical
    DFA stays marked."""
    finals = frozenset(range(dfa.states)) - dfa.finals
    return Dfa._trusted(dfa.alphabet, dfa.states, dfa.initial, finals, dfa.delta, dfa._minimal)


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
    return _determinize(
        left.alphabet,
        (left.initial, right.initial),
        lambda state: zip(left.delta[state[0]], right.delta[state[1]]),
        lambda state: combine(state[0] in left.finals, state[1] in right.finals),
    )


def _determinize(alphabet: Alphabet, start, successors, accepting) -> Dfa:
    """Breadth-first exploration of hashable macro states from `start`;
    `successors(state)` gives the next macro state for each letter in
    alphabet order, and each row is recorded as it is explored."""
    index = {start: 0}
    order = [start]
    delta = []
    for state in order:
        row = []
        for nxt in successors(state):
            target = index.get(nxt)
            if target is None:
                target = index[nxt] = len(order)
                order.append(nxt)
            row.append(target)
        delta.append(tuple(row))
    finals = frozenset(k for k, state in enumerate(order) if accepting(state))
    return Dfa._trusted(alphabet, len(order), 0, finals, tuple(delta))


def concat(left: Dfa, right: Dfa) -> Dfa:
    """DFA for the concatenation of the two languages."""
    if left.alphabet != right.alphabet:
        raise InputError("concatenation requires identical alphabets")

    def close(p: int, subset: frozenset[int]) -> tuple[int, frozenset[int]]:
        if p in left.finals:
            subset = subset | {right.initial}
        return (p, subset)

    def successors(state):
        p, subset = state
        return [
            close(left.delta[p][i], frozenset(right.delta[q][i] for q in subset))
            for i in range(len(left.alphabet))
        ]

    start = close(left.initial, frozenset())
    return _determinize(
        left.alphabet, start, successors, lambda state: bool(state[1] & right.finals)
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

    def successors(state):
        subset = frozenset({dfa.initial}) if state is None else state
        return [
            close(frozenset(dfa.delta[q][i] for q in subset)) for i in range(len(dfa.alphabet))
        ]

    def accepting(state) -> bool:
        return state is None or bool(state & dfa.finals)

    return _determinize(dfa.alphabet, None, successors, accepting)


def reverse(dfa: Dfa) -> Dfa:
    """A DFA of the mirror images of the accepted words, by the subset
    construction on the reversed edges from the finals; not minimized."""
    letters = range(len(dfa.alphabet))

    def successors(subset: frozenset[int]) -> list[frozenset[int]]:
        return [frozenset(q for q, row in enumerate(dfa.delta) if row[a] in subset) for a in letters]

    return _determinize(dfa.alphabet, dfa.finals, successors, lambda s: dfa.initial in s)


def minimize(dfa: Dfa) -> Dfa:
    """Minimal complete DFA with canonical state numbering.

    Hopcroft's partition refinement on the reachable states, in
    O(n·|A|·log n) (Hopcroft 1971; Valmari & Lehtinen, STACS 2008).  A
    split block keeps its number for the larger half, and the smaller half
    is queued as a splitter for every letter: whether or not the block was
    queued itself, that is the half Hopcroft's rule queues.  `_canonical`
    then numbers the blocks breadth-first, so equal languages yield
    identical structures.  The result is marked minimal, and a marked
    input (from `minimize`, `_dfa_word`, `_dfa_empty`, or `complement` of
    one of these) is returned as it is.
    """
    if dfa._minimal:
        return dfa
    delta = dfa.delta
    width = len(dfa.alphabet)
    # restrict to reachable states
    reach = [dfa.initial]
    seen = {dfa.initial}
    for q in reach:
        for target in delta[q]:
            if target not in seen:
                seen.add(target)
                reach.append(target)
    # inverse[a][t]: the reachable states with an a-edge to t
    inverse: list[dict[int, list[int]]] = [{} for _ in range(width)]
    for q in reach:
        for a, target in enumerate(delta[q]):
            inverse[a].setdefault(target, []).append(q)
    accepting = {q for q in reach if q in dfa.finals}
    blocks = [part for part in (accepting, seen - accepting) if part]
    block = {q: b for b, part in enumerate(blocks) for q in part}
    work = []
    if len(blocks) == 2:
        smaller = int(len(blocks[1]) < len(blocks[0]))
        work = [(smaller, a) for a in range(width)]
    while work:
        splitter, a = work.pop()
        into = inverse[a]
        touched: dict[int, list[int]] = {}
        for target in blocks[splitter]:
            for q in into.get(target, ()):
                touched.setdefault(block[q], []).append(q)
        for b, part in touched.items():
            members = blocks[b]
            if len(part) == len(members):
                continue
            if 2 * len(part) <= len(members):
                moved = set(part)
                members -= moved
            else:
                moved = members - set(part)
                blocks[b] = set(part)
            new = len(blocks)
            blocks.append(moved)
            for q in moved:
                block[q] = new
            work.extend((new, c) for c in range(width))
    return _canonical(dfa, block)


def _canonical(dfa: Dfa, block) -> Dfa:
    """The quotient of `dfa` by its coarsest congruence, numbered
    breadth-first from the initial block, letters in alphabet order, and
    marked minimal.  `block[q]` names the class of each reachable state q:
    states in one class must agree on finality and on the classes of
    their edges, and states in different classes must be
    distinguishable."""
    delta = dfa.delta
    canon = {block[dfa.initial]: 0}
    reps = [dfa.initial]
    for q in reps:
        for target in delta[q]:
            b = block[target]
            if b not in canon:
                canon[b] = len(reps)
                reps.append(target)
    rows = tuple(tuple(canon[block[t]] for t in delta[q]) for q in reps)
    finals = frozenset(k for k, q in enumerate(reps) if q in dfa.finals)
    return Dfa._trusted(dfa.alphabet, len(reps), 0, finals, rows, minimal=True)


def _dfa_empty(alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA of the empty language, marked minimal."""
    width = len(alphabet)
    return Dfa._trusted(alphabet, 1, 0, frozenset(), ((0,) * width,), minimal=True)


def _dfa_word(alphabet: Alphabet, word: str) -> Dfa:
    """Minimal canonical DFA of the one-word language {word}, marked
    minimal: a chain of len(word) + 1 states, the last one final, and a
    dead state that every letter off the chain leads to, written directly
    in breadth-first order.  With two or more letters the dead state is
    number 1 when the word's first letter is not the alphabet's first
    letter, and number 2 otherwise; with one letter, or for the empty
    word, it comes last.  Chain state i is number i below the dead state
    and i + 1 above it."""
    width = len(alphabet)
    size = len(word)
    if width == 1 or not word:
        dead = size + 1
    else:
        dead = 1 if word[0] != alphabet.symbols[0] else 2
    rows = []
    for i, sym in enumerate(word, start=1):
        row = [dead] * width
        row[alphabet.index(sym)] = i if i < dead else i + 1
        rows.append(tuple(row))
    rows.append((dead,) * width)
    rows.insert(dead, (dead,) * width)
    final = size if size < dead else size + 1
    return Dfa._trusted(alphabet, size + 2, 0, frozenset({final}), tuple(rows), minimal=True)


def compile_pattern(text: str, alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA of a regex, compiled while it is parsed."""
    return _RegexParser(text, alphabet).parse()


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
