"""Linear temporal logic with language-bounded until/since over finite words.

Formulas are evaluated at positions 0..n+1 of a word of length n.  Position 0
is an artificial minimum, position n+1 an artificial maximum, and positions
1..n carry the letters.  The bounded until U[L](p, q) holds at i when some
j > i satisfies q, every position strictly between satisfies p, and the infix
of the word strictly between positions i and j belongs to L.  Since is the
mirror image.  The plain until/since default L to the full language, and the
derived forms X, F[L] and F are expanded at parse time.

Evaluation fills one truth vector per subformula over all positions of the
word, children first.  Until is one backward sweep carrying the set of
bound-DFA states that can still lead to acceptance, so a word of length n
costs O(n * |formula| * |states|) time; since is the until sweep on the
mirror image, where position p becomes n+1-p.

Comparison is exact.  A sweep's set at one position is a function of its
set one position further on and of the letter and the children's truths
there, so the sweeps of a formula make two deterministic machines, one per
direction, and `compile_formula` turns them into a minimal DFA.  A letter
missing from a bound's or the automaton's alphabet is caught once: the word
sweeps raise on the cache read of the missing letter, and compilation and
comparison check the alphabet before they start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    _determinize,
    _Scanner,
    accepted_words,
    accepts,
    breadth_first,
    compile_pattern,
    minimize,
    reverse,
)
from .errors import InputError


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Min(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Max(Formula):
    pass


@dataclass(frozen=True, slots=True)
class LetterAt(Formula):
    symbol: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    bound: Dfa
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Since(Formula):
    bound: Dfa
    left: Formula
    right: Formula


class _FormulaParser(_Scanner):
    """Recursive descent parser; each formula and each '!' is a nesting
    level, at most MAX_NESTING deep.

    Grammar, loosest binding first:

        formula := conj ('|' conj)*
        conj    := unary ('&' unary)*
        unary   := '!' unary | primary
        primary := 'top' | 'min' | 'max' | letter
                 | ('U' | 'S') ['[' regex ']'] '(' formula ',' formula ')'
                 | 'F' ['[' regex ']'] '(' formula ')'
                 | 'X' '(' formula ')'
                 | '(' formula ')'

    X(p) abbreviates U[_](!top, p) where _ is the empty-word language, and
    F[L](p) abbreviates U[L](top, p); omitted bounds default to the full
    language.  Keywords and operators are tried before letters, so a letter
    named U, S, F or X is read as an operator.
    """

    what = "formula"

    def parse(self) -> Formula:
        self.bounds: dict[str, Dfa] = {}
        node = self.formula()
        if not self.at_end():
            self.fail("trailing input")
        return node

    def formula(self) -> Formula:
        self.depth = self.bounded(self.depth + 1)
        node = self.conj()
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.conj())
        self.depth -= 1
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        if self.peek() == "!":
            self.pos += 1
            self.depth = self.bounded(self.depth + 1)
            node = Not(self.unary())
            self.depth -= 1
            return node
        return self.primary()

    def bound_dfa(self, default: str) -> Dfa:
        pattern = default
        if self.peek() == "[":
            self.pos += 1
            depth = 1
            start = self.pos
            while self.pos < len(self.text) and depth:
                ch = self.text[self.pos]
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                    if not depth:
                        break
                self.pos += 1
            if depth:
                self.fail("unterminated '['")
            pattern = self.text[start:self.pos]
            self.eat("]")
        return self.compiled(pattern)

    def compiled(self, pattern: str) -> Dfa:
        """The DFA of a bound, compiled once per pattern text and parse."""
        if pattern not in self.bounds:
            try:
                self.bounds[pattern] = compile_pattern(pattern, self.alphabet)
            except InputError as exc:
                self.fail(f"bad bound language: {exc}")
        return self.bounds[pattern]

    def pair(self) -> tuple[Formula, Formula]:
        self.eat("(")
        left = self.formula()
        self.eat(",")
        right = self.formula()
        self.eat(")")
        return left, right

    def primary(self) -> Formula:
        self.peek()
        if self.text.startswith("top", self.pos):
            self.pos += 3
            return Top()
        if self.text.startswith("min", self.pos):
            self.pos += 3
            return Min()
        if self.text.startswith("max", self.pos):
            self.pos += 3
            return Max()
        if self.text.startswith(("U", "S"), self.pos):
            kind = Until if self.text[self.pos] == "U" else Since
            self.pos += 1
            bound = self.bound_dfa("~%")
            left, right = self.pair()
            return kind(bound, left, right)
        if self.text.startswith("F", self.pos):
            self.pos += 1
            bound = self.bound_dfa("~%")
            self.eat("(")
            child = self.formula()
            self.eat(")")
            return Until(bound, Top(), child)
        if self.text.startswith("X", self.pos):
            self.pos += 1
            self.eat("(")
            child = self.formula()
            self.eat(")")
            return Until(self.compiled("_"), Not(Top()), child)
        if self.text.startswith("(", self.pos):
            self.eat("(")
            node = self.formula()
            self.eat(")")
            return node
        ch = self.peek()
        if ch in self.alphabet:
            self.pos += 1
            return LetterAt(ch)
        self.fail("expected a formula")


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    return _FormulaParser(text, alphabet).parse()


def _children(node: Formula) -> tuple[Formula, ...]:
    if isinstance(node, Not):
        return (node.child,)
    if isinstance(node, (Or, And, Until, Since)):
        return (node.left, node.right)
    return ()


class _Images:
    """Images of state sets (int bitmasks) of a bound DFA under single
    letters, and the sweep's `seed` and `goal` masks: predecessors from the
    finals to the initial state for until, successors from the initial
    state to the finals for since.  Computed on demand and kept per letter;
    the sweep reads `cache` inline and calls the object only on a miss.
    `cache` has keys for the bound's letters only, so reading it is the
    sweep's letter test (KeyError)."""

    def __init__(self, dfa: Dfa, backward: bool) -> None:
        self.backward = backward
        finals, initial = sum(1 << q for q in dfa.finals), 1 << dfa.initial
        self.seed, self.goal = (finals, initial) if backward else (initial, finals)
        self.columns = {
            sym: [row[i] for row in dfa.delta] for i, sym in enumerate(dfa.alphabet)
        }
        self.cache: dict[str, dict[int, int]] = {sym: {} for sym in dfa.alphabet}

    def __call__(self, sym: str, states: int) -> int:
        """The image of `states` under `sym`, computed and cached."""
        result = 0
        for q, target in enumerate(self.columns[sym]):
            source, image = (target, q) if self.backward else (q, target)
            if states >> source & 1:
                result |= 1 << image
        self.cache[sym][states] = result
        return result


def _sweep(images: _Images, word: str, left: int, right: int) -> int:
    # Backward sweep: `states` after step i holds the bound-DFA states that
    # the infix word[i:j-1] of some witness j > i links to the seed, with
    # the left side true strictly between i and j.  For since, run on the
    # mirror image, the infix is read forward from the initial state.
    n = len(word)
    seed, goal, cache = images.seed, images.goal, images.cache
    states = seed if right >> (n + 1) & 1 else 0
    out = 1 << n if states & goal else 0
    for i in range(n - 1, -1, -1):
        if states and left >> (i + 1) & 1:
            sym = word[i]
            image = cache[sym].get(states)
            states = images(sym, states) if image is None else image
        else:
            states = 0
        if right >> (i + 1) & 1:
            states |= seed
        if states & goal:
            out |= 1 << i
    return out


def _mirror(vector: int, n: int) -> int:
    """A truth vector over positions 0..n+1 with position p moved to n+1-p."""
    return int(format(vector, f"0{n + 2}b")[::-1], 2)


_KINDS = (Top, Min, Max, LetterAt, Not, Or, And, Until, Since)


def _plan(formula: Formula) -> list[tuple]:
    """The distinct subformulas in post-order, each as (kind, node, slot of
    the left or only child, slot of the right child), built from an
    explicit stack so deep formulas do not recurse."""
    slots: dict[int, int] = {}
    steps: list[tuple] = []
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in slots:
            stack.pop()
            continue
        children = _children(node)
        pending = [c for c in children if id(c) not in slots]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = next((k for k in _KINDS if isinstance(node, k)), None)
        if kind is None:
            raise TypeError(f"unknown formula node {type(node).__name__}")
        left, right = ([slots[id(c)] for c in children] + [-1, -1])[:2]
        slots[id(node)] = len(steps)
        steps.append((kind, node, left, right))
    return steps


def _truth(formula: Formula, word: str) -> int:
    """Truth values of the formula at positions 0..n+1 of the word as the
    bits of an int, one such vector per subformula, children first."""
    n = len(word)
    everywhere = (1 << (n + 2)) - 1
    # letter vectors read the reversed word as bits, and since sweeps it
    reverse = word[::-1]
    zeros = dict.fromkeys(map(ord, set(word)), "0")
    vectors: list[int] = []
    for kind, node, left, right in _plan(formula):
        if kind is And:
            value = vectors[left] & vectors[right]
        elif kind is Or:
            value = vectors[left] | vectors[right]
        elif kind is Not:
            value = everywhere ^ vectors[left]
        elif kind is Until or kind is Since:
            images = _Images(node.bound, backward=kind is Until)
            try:
                if kind is Until:
                    value = _sweep(images, word, vectors[left], vectors[right])
                else:
                    # until on the mirror image, which reads the word in order
                    p, q = _mirror(vectors[left], n), _mirror(vectors[right], n)
                    value = _mirror(_sweep(images, reverse, p, q), n)
            except KeyError as exc:
                raise InputError(f"symbol {exc.args[0]!r} is not in the alphabet") from None
        elif kind is LetterAt:
            marks = reverse.translate({**zeros, ord(node.symbol): "1"})
            value = int(marks + "0", 2)
        elif kind is Top:
            value = everywhere
        elif kind is Min:
            value = 1
        else:
            value = 1 << (n + 1)
        vectors.append(value)
    return vectors[-1]


def eval_at(formula: Formula, word: str, position: int) -> bool:
    """Truth value of the formula at the given position of the word."""
    if not 0 <= position <= len(word) + 1:
        raise InputError(
            f"position {position} out of range for a word of length {len(word)}"
        )
    return _truth(formula, word) >> position & 1 == 1


def eval_word(formula: Formula, word: str) -> bool:
    """Truth value at the artificial minimum position."""
    return eval_at(formula, word, 0)


# ---------------------------------------------------------------------------
# Compilation to a DFA, and exact comparison


def compile_formula(formula: Formula, alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA of the words over `alphabet` at whose position
    0 the formula holds; every until and since bound must read each letter.

    A bimachine (Schützenberger 1961): machine 0 reads positions 0..i-1
    forward and keeps one table per since, machine 1 reads n+1..i+1
    backward and keeps one table per until, each reading its end symbol
    first.  A table maps each state the other machine can take at the
    neighbouring position to the sweep's set at i, a function of the entry
    one step earlier and of the letter and the children's truths at that
    position.  Tables are added in plan order, each indexed by the states
    the other machine reaches with its earlier tables.  Machine 1
    recognizes the mirror images of the formula's words.
    """
    letters = alphabet.symbols
    steps = _plan(formula)
    # the symbols of positions 0 and n+1, which machines 0 and 1 read first
    ends = ("<", ">")
    # slot of a sweep -> (machine, table number, images, other machine's table count,
    # index of its states, their successors' indices per letter, slots the children read)
    tables: dict[int, tuple] = {}
    sweeps: tuple[list, list] = ([], [])
    empty = [(), ()]
    memo: dict = {}

    def reads(starts: list[int]) -> list[int]:
        """`starts` and the subformulas below them down to the nearest sweeps,
        in plan order: a sweep's truth reads its table, not its children."""
        found, stack = set(), list(starts)
        while stack:
            slot = stack.pop()
            if slot >= 0 and slot not in found:
                found.add(slot)
                if steps[slot][0] is not Until and steps[slot][0] is not Since:
                    stack.extend(steps[slot][2:])
        return sorted(found)

    def truths(states: tuple, sym: str, slots: list[int]) -> dict[int, bool]:
        """Truths at `slots` where the position holds `sym` and the machines are in `states`."""
        values = {}
        for slot in slots:
            kind, node, left, right = steps[slot]
            if kind is And:
                value = values[left] and values[right]
            elif kind is Or:
                value = values[left] or values[right]
            elif kind is Not:
                value = not values[left]
            elif slot in tables:
                side, j, images, width, index, moves, _ = tables[slot]
                # a machine that has read nothing has only empty sets; at its
                # end symbol the other one is about to take its state 0
                value = sym != ends[side]
                if value:
                    k = 0 if sym == ends[1 - side] else moves[index[states[1 - side][:width]]][sym]
                    value = bool(states[side][j][k] & images.goal)
            elif kind is LetterAt:
                value = sym == node.symbol
            else:  # top, and min and max at their end symbols
                value = kind is Top or sym == ends[kind is Max]
            values[slot] = value
        return values

    def step(side: int, state: tuple, sym: str) -> tuple:
        """The state of machine `side` after it reads `sym` in `state`."""
        key = (side, state, sym)
        if key not in memo:
            # tables only read earlier ones, so a stepped prefix is kept
            after = list(memo.get((side, state[:-1], sym), ()))
            for slot in sweeps[side][len(after):len(state)]:
                _, j, images, _, index, moves, region = tables[slot]
                _, _, left, right = steps[slot]
                entries = []
                for k, other in enumerate(index):
                    states = (state, other) if side == 0 else (other, state)
                    values = truths(states, sym, region)
                    swept = 0
                    if values[left] and sym != ends[side]:
                        swept = state[j][moves[k][sym]]
                        if swept:
                            image = images.cache[sym].get(swept)
                            swept = images(sym, swept) if image is None else image
                    entries.append(swept | images.seed if values[right] else swept)
                after.append(tuple(entries))
            memo[key] = tuple(after)
        return memo[key]

    for slot, (kind, node, left, right) in enumerate(steps):
        if kind is Until or kind is Since:
            if not set(letters) <= set(node.bound.alphabet):
                raise InputError(f"a bound of the formula does not read every letter of {letters}")
            side, other = (1, 0) if kind is Until else (0, 1)
            start = step(other, empty[other], ends[other])
            order = breadth_first([start], lambda s: [(a, step(other, s, a)) for a in letters], {})
            index = {s: k for k, s in enumerate(order)}
            moves = [{a: index[step(other, s, a)] for a in letters} for s in index]
            images = _Images(node.bound, kind is Until)
            width, region = len(empty[other]), reads([left, right])
            tables[slot] = (side, len(sweeps[side]), images, width, index, moves, region)
            sweeps[side].append(slot)
            empty[side] += ((0,) * len(index),)
    root = len(steps) - 1
    region = reads([root])
    backward = _determinize(
        alphabet,
        step(1, empty[1], ends[1]),
        lambda s: [step(1, s, sym) for sym in letters],
        lambda s: truths((empty[0], s), ends[0], region)[root],
    )
    return minimize(reverse(backward))


def compare_sampled(
    formula: Formula, dfa: Dfa, alphabet: Alphabet, max_length: int = 8
) -> list[str]:
    """Words up to the length bound where formula and automaton disagree,
    shortest first and length-lexicographic within one length.

    The list is exact: it is read off the xor product of the formula's DFA
    with the automaton, so the bound limits only the words listed.  The
    name dates from when words were sampled; bench/tracer.py rebinds it.
    When the automaton or an until or since bound lacks a letter of the
    alphabet, a word's evaluation may raise InputError, so the words are
    evaluated one at a time, formula first, and the first to fail raises.
    """
    if max_length < 0:
        raise InputError(f"sample length bound {max_length} is negative")
    symbols = alphabet.symbols
    bounds = [node.bound for kind, node, *_ in _plan(formula) if kind is Until or kind is Since]
    if not all(set(symbols) <= set(a.alphabet) for a in [dfa, *bounds]):
        products = (itertools.product(symbols, repeat=n) for n in range(max_length + 1))
        words = map("".join, itertools.chain.from_iterable(products))
        return [word for word in words if eval_word(formula, word) != accepts(dfa, word)]
    compiled = compile_formula(formula, alphabet)
    columns = [dfa.alphabet.index(sym) for sym in symbols]
    mismatches = _determinize(
        alphabet,
        (compiled.initial, dfa.initial),
        lambda s: zip(compiled.delta[s[0]], [dfa.delta[s[1]][c] for c in columns]),
        lambda s: (s[0] in compiled.finals) != (s[1] in dfa.finals),
    )
    return accepted_words(mismatches, max_length)
