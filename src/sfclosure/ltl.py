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

Sampled comparison runs the same sweeps on many words at once, in the manner
of shift-or matching but across words instead of positions.  The words of
one length, numbered length-lexicographically, form blocks of at most
BLOCK_WORDS words sharing a prefix.  Bit w of a mask stands for word w of a
block: a subformula keeps one mask per position, a sweep one mask per bound
state, and the automaton's run one mask per state.  A letter missing from a
bound's or the automaton's alphabet is caught once, where an evaluator first
meets it: the word sweeps raise on the cache read of the missing letter, and
the sampled comparison checks the sample alphabet before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Dfa, _Scanner, accepts, compile_pattern
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
        try:
            return compile_pattern(pattern, self.alphabet)
        except InputError as exc:
            self.fail(f"bad bound language: {exc}")

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
            empty_word = compile_pattern("_", self.alphabet)
            return Until(empty_word, Not(Top()), child)
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
# Sampled comparison, all words of a block at once.  A letter column holds
# one mask per alphabet letter: the words of the block carrying that letter
# at one position.

# words per block: a length whose words outnumber this is split into blocks
# of words that share a prefix
BLOCK_WORDS = 4096


def _suffix_columns(k: int, m: int) -> list[list[int]]:
    """Letter columns of the k**m words of length m over k letters, numbered
    length-lexicographically: letter c sits at position t of word w when
    digit t of w in base k, most significant first, is c."""
    width = k**m
    columns = []
    for t in range(m):
        run = k ** (m - 1 - t)
        period = k * run
        repeat = ((1 << width) - 1) // ((1 << period) - 1)
        columns.append([(((1 << run) - 1) << (c * run)) * repeat for c in range(k)])
    return columns


def _spell(index: int, length: int, symbols: tuple[str, ...]) -> str:
    """Word number `index` among the words of the given length."""
    letters = []
    for _ in range(length):
        index, digit = divmod(index, len(symbols))
        letters.append(symbols[digit])
    return "".join(reversed(letters))


def _moves(dfa: Dfa, symbols: tuple[str, ...]) -> list[list[int]]:
    """Per letter of `symbols`, the successor of each automaton state."""
    return [[row[dfa.alphabet.index(sym)] for row in dfa.delta] for sym in symbols]


def _step(moves: list, states: list[int], column: list[int], live: int, backward: bool):
    """One step of an automaton on every word of a block, restricted to the
    `live` words: the state masks after the letter column (before it, when
    backward)."""
    result = [0] * len(states)
    for targets, letter in zip(moves, column):
        letter &= live
        if not letter:
            continue
        if backward:
            for source, target in enumerate(targets):
                result[source] |= states[target] & letter
        else:
            for words, target in zip(states, targets):
                if words:
                    result[target] |= words & letter
    return result


def _block_sweep(
    bound: Dfa, moves: list, columns, left: list[int], right: list[int], backward: bool
):
    """`_sweep` with one mask per bound state: bit w of states[q] says q is
    in the swept set of word w.  Backward it is until; forward, on the
    mirror image, since, with seed and goal as in `_Images`."""
    seeds, goals = (bound.finals, [bound.initial]) if backward else ([bound.initial], bound.finals)
    n = len(columns)
    states = [0] * bound.states
    for q in seeds:
        states[q] = right[n + 1]
    out = [0] * (n + 2)
    for q in goals:
        out[n] |= states[q]
    for i in range(n - 1, -1, -1):
        states = _step(moves, states, columns[i], left[i + 1], backward)
        for q in seeds:
            states[q] |= right[i + 1]
        for q in goals:
            out[i] |= states[q]
    return out


def _block_truth(steps: list[tuple], columns, symbols, full: int) -> int:
    """Truth of the formula at position 0 of every word of a block."""
    n = len(columns)
    vectors: list[list[int]] = []
    for kind, node, left, right in steps:
        if kind is And:
            value = [x & y for x, y in zip(vectors[left], vectors[right])]
        elif kind is Or:
            value = [x | y for x, y in zip(vectors[left], vectors[right])]
        elif kind is Not:
            value = [full ^ x for x in vectors[left]]
        elif kind is Until or kind is Since:
            moves, p, q = _moves(node.bound, symbols), vectors[left], vectors[right]
            if kind is Until:
                value = _block_sweep(node.bound, moves, columns, p, q, True)
            else:
                # until on the mirror image, as in `_truth`
                value = _block_sweep(node.bound, moves, columns[::-1], p[::-1], q[::-1], False)
                value.reverse()
        elif kind is LetterAt:
            value = [0] * (n + 2)
            if node.symbol in symbols:
                c = symbols.index(node.symbol)
                value[1:n + 1] = [column[c] for column in columns]
        elif kind is Top:
            value = [full] * (n + 2)
        elif kind is Min:
            value = [full] + [0] * (n + 1)
        else:
            value = [0] * (n + 1) + [full]
        vectors.append(value)
    return vectors[-1][0]


def compare_sampled(
    formula: Formula, dfa: Dfa, alphabet: Alphabet, max_length: int = 8
) -> list[str]:
    """Words up to the length bound where formula and automaton disagree,
    shortest first and length-lexicographic within one length.

    When the automaton and every until and since bound read each letter of
    the sample alphabet, the words of one length are evaluated together,
    up to BLOCK_WORDS of them at a time: each subformula keeps one mask
    over the block's words per position, so connectives are bitwise
    operations, and the until and since sweeps and the automaton run keep
    one mask per state.  Otherwise a word's evaluation may raise
    InputError, so the words are evaluated one at a time in the same
    order, formula first, and raise at the word a word-by-word loop would.
    That path is slower for large bounds; the command line, which compiles
    everything over one alphabet, never takes it.
    """
    if max_length < 0:
        raise InputError(f"sample length bound {max_length} is negative")
    symbols = alphabet.symbols
    k = len(symbols)
    steps = _plan(formula)
    bounds = [node.bound for kind, node, *_ in steps if kind is Until or kind is Since]
    if not all(set(symbols) <= set(a.alphabet) for a in [dfa, *bounds]):
        words = (_spell(w, n, symbols) for n in range(max_length + 1) for w in range(k**n))
        return [word for word in words if eval_word(formula, word) != accepts(dfa, word)]
    dfa_moves = _moves(dfa, symbols)
    mismatches = []
    for n in range(max_length + 1):
        m = n
        while k**m > BLOCK_WORDS:
            m -= 1
        full = (1 << k**m) - 1
        suffix = _suffix_columns(k, m)
        for block in range(k ** (n - m)):
            prefix = _spell(block, n - m, symbols)
            columns = [[full if sym == p else 0 for sym in symbols] for p in prefix]
            columns += suffix
            truth = _block_truth(steps, columns, symbols, full)
            states = [0] * dfa.states
            states[dfa.initial] = full
            for column in columns:
                states = _step(dfa_moves, states, column, full, backward=False)
            accepted = 0
            for q in dfa.finals:
                accepted |= states[q]
            for w, bit in enumerate(reversed(f"{truth ^ accepted:b}")):
                if bit == "1":
                    mismatches.append(prefix + _spell(w, m, symbols))
    return mismatches
