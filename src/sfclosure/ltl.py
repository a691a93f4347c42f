"""Linear temporal logic with language-bounded until/since over finite words.

Formulas are evaluated at positions 0..n+1 of a word of length n.  Position 0
is an artificial minimum, position n+1 an artificial maximum, and positions
1..n carry the letters.  The bounded until U[L](p, q) holds at i when some
j > i satisfies q, every position strictly between satisfies p, and the infix
of the word strictly between positions i and j belongs to L.  Since is the
mirror image.  The plain until/since default L to the full language, and the
derived forms X, F[L] and F are expanded at parse time.

Evaluation fills one truth vector per subformula over all positions of the
word, children first.  Until is one backward sweep and since one forward
sweep, carrying the set of bound-DFA states that can still lead to
acceptance (until) or that have been reached (since), so a word of length n
costs O(n * |formula| * |states|) time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Dfa, _Scanner, compile_pattern
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
                 | 'U' ['[' regex ']'] '(' formula ',' formula ')'
                 | 'S' ['[' regex ']'] '(' formula ',' formula ')'
                 | 'F' ['[' regex ']'] '(' formula ')'
                 | 'X' '(' formula ')'
                 | '(' formula ')'

    X(p) abbreviates U[_](!top, p) where _ is the empty-word language, and
    F[L](p) abbreviates U[L](top, p); omitted bounds default to the full
    language.
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
        rest = self.text[self.pos:]
        if rest.startswith("top"):
            self.pos += 3
            return Top()
        if rest.startswith("min"):
            self.pos += 3
            return Min()
        if rest.startswith("max"):
            self.pos += 3
            return Max()
        if rest.startswith("U"):
            self.pos += 1
            bound = self.bound_dfa("~%")
            left, right = self.pair()
            return Until(bound, left, right)
        if rest.startswith("S"):
            self.pos += 1
            bound = self.bound_dfa("~%")
            left, right = self.pair()
            return Since(bound, left, right)
        if rest.startswith("F"):
            self.pos += 1
            bound = self.bound_dfa("~%")
            self.eat("(")
            child = self.formula()
            self.eat(")")
            return Until(bound, Top(), child)
        if rest.startswith("X"):
            self.pos += 1
            self.eat("(")
            child = self.formula()
            self.eat(")")
            empty_word = compile_pattern("_", self.alphabet)
            return Until(empty_word, Not(Top()), child)
        if rest.startswith("("):
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
    letters: predecessors for until, successors for since.  Computed on
    demand and kept per letter."""

    def __init__(self, dfa: Dfa, backward: bool) -> None:
        self.backward = backward
        self.initial = dfa.initial
        self.finals = sum(1 << q for q in dfa.finals)
        self.columns = {
            sym: [row[i] for row in dfa.delta] for i, sym in enumerate(dfa.alphabet)
        }
        self.cache: dict[str, dict[int, int]] = {sym: {} for sym in dfa.alphabet}

    def __call__(self, sym: str, states: int) -> int:
        try:
            return self.cache[sym][states]
        except KeyError:
            pass
        if sym not in self.columns:
            raise InputError(f"symbol {sym!r} is not in the alphabet")
        result = 0
        for q, target in enumerate(self.columns[sym]):
            source, image = (target, q) if self.backward else (q, target)
            if states >> source & 1:
                result |= 1 << image
        self.cache[sym][states] = result
        return result


def _until(images: _Images, word: str, left: int, right: int) -> int:
    # Backward sweep: `states` after step i holds the bound-DFA states from
    # which the infix word[i:j-1] of some witness j > i leads to a final
    # state, with the left side true strictly between i and j.
    n = len(word)
    finals, initial = images.finals, images.initial
    states = finals if right >> (n + 1) & 1 else 0
    out = (states >> initial & 1) << n
    for i in range(n - 1, -1, -1):
        states = images(word[i], states) if states and left >> (i + 1) & 1 else 0
        if right >> (i + 1) & 1:
            states |= finals
        if states >> initial & 1:
            out |= 1 << i
    return out


def _since(images: _Images, word: str, left: int, right: int) -> int:
    # Forward sweep: `states` at step i holds the bound-DFA states reached
    # on the infix word[j:i-1] of some witness j < i, with the left side
    # true strictly between j and i.
    n = len(word)
    finals, start = images.finals, 1 << images.initial
    states = start if right & 1 else 0
    out = 2 if states & finals else 0
    for i in range(2, n + 2):
        states = images(word[i - 2], states) if states and left >> (i - 1) & 1 else 0
        if right >> (i - 1) & 1:
            states |= start
        if states & finals:
            out |= 1 << i
    return out


_KINDS = (Top, Min, Max, LetterAt, Not, Or, And, Until, Since)


def _plan(formula: Formula) -> list[tuple]:
    """The distinct subformulas in post-order, each as (kind, node, slot of
    the left or only child, slot of the right child, images of its bound),
    built from an explicit stack so deep formulas do not recurse."""
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
        images = None
        if kind is Until or kind is Since:
            images = _Images(node.bound, backward=kind is Until)
        slots[id(node)] = len(steps)
        steps.append((kind, node, left, right, images))
    return steps


# the plan of the formula evaluated last; sampled comparison evaluates one
# formula on many words, and the plan keeps the bound images it has seen
_last_plan: tuple = (None, [])


def _truth(formula: Formula, word: str) -> int:
    """Truth values of the formula at positions 0..n+1 of the word as the
    bits of an int, one such vector per subformula, children first."""
    global _last_plan
    planned, steps = _last_plan
    if planned is not formula:
        steps = _plan(formula)
        _last_plan = (formula, steps)
    n = len(word)
    everywhere = (1 << (n + 2)) - 1
    vectors: list[int] = []
    for kind, node, left, right, images in steps:
        if kind is And:
            value = vectors[left] & vectors[right]
        elif kind is Or:
            value = vectors[left] | vectors[right]
        elif kind is Not:
            value = everywhere ^ vectors[left]
        elif kind is Until:
            value = _until(images, word, vectors[left], vectors[right])
        elif kind is Since:
            value = _since(images, word, vectors[left], vectors[right])
        elif kind is LetterAt:
            marks = "".join("1" if sym == node.symbol else "0" for sym in reversed(word))
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


def _words_by_length(alphabet: Alphabet, max_length: int):
    frontier = [""]
    yield ""
    for _ in range(max_length):
        frontier = [w + sym for w in frontier for sym in alphabet]
        yield from frontier


def compare_sampled(
    formula: Formula, dfa: Dfa, alphabet: Alphabet, max_length: int = 8
) -> list[str]:
    """Words up to the length bound where formula and automaton disagree."""
    from .automata import accepts

    mismatches = []
    for word in _words_by_length(alphabet, max_length):
        if eval_word(formula, word) != accepts(dfa, word):
            mismatches.append(word)
    return mismatches
