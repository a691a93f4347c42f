"""Linear temporal logic with language-bounded until/since over finite words.

Formulas are evaluated at positions 0..n+1 of a word of length n.  Position 0
is an artificial minimum, position n+1 an artificial maximum, and positions
1..n carry the letters.  The bounded until U[L](p, q) holds at i when some
j > i satisfies q, every position strictly between satisfies p, and the infix
of the word strictly between positions i and j belongs to L.  Since is the
mirror image.  The plain until/since default L to the full language, and the
derived forms X, F[L] and F are expanded at parse time.

A parsed formula is a postfix program: one (kind, argument, left, right)
step per subformula, children first, whose left and right are the slots of
earlier steps (see `_FormulaParser`); evaluation and compilation raise
InputError on a program of any other shape.  The parser compiles each
bound once per process per (regex text, alphabet), in a memo bounded to
BOUND_MEMO_SIZE entries, so bounds that many formulas share, such as the
defaults of U, F and X, compile once.  Evaluation runs the program in
order, filling one truth vector per step over all positions of the word.
Until is one backward sweep carrying the set of bound-DFA states that can
still lead to acceptance; since is the until sweep on the mirror image,
where position p becomes n+1-p.  The sweep reads the children's vectors
as digit strings and collects its own as digits, so a word of length n
costs O(n * |formula| * |states|) time.  Most untils and sinces need no
sweep: when the bound's initial state is its one useful state (it is
final, and each letter loops on it or leads to a non-final sink), and the
bound reads every letter of the word, the sweep's set is that state or
nothing.  Its recurrence is then a carry chain, in which the right side
generates and the left side propagates where the letter loops, and one
integer addition computes the whole vector.  This covers every plain U, S
and F, every X (bound `_`) and bounds such as `a*`.

Comparison is exact.  A sweep's set at one position is a function of its
set one position further on and of the letter and the children's truths
there, so the sweeps of a formula make two deterministic machines, one per
direction, and `compile_formula` turns them into a minimal DFA.  A letter
missing from a bound's or the automaton's alphabet is caught once: the word
sweeps raise on the cache read of the missing letter, and compilation and
comparison reject such an alphabet before they do any work.
"""

from __future__ import annotations

from functools import lru_cache

from .automata import (
    Alphabet,
    Dfa,
    _determinize,
    _Scanner,
    accepted_words,
    compile_pattern,
    explore,
    minimize,
    reverse,
)
from .errors import InputError

# the most (regex text, alphabet) pairs whose bound DFA the process keeps
BOUND_MEMO_SIZE = 256


@lru_cache(maxsize=BOUND_MEMO_SIZE)
def _bound(pattern: str, alphabet: Alphabet) -> Dfa:
    """The minimal DFA of a bound's regex text over the alphabet.  A call
    that raises is not kept, so a bad text raises again on each call; a miss
    looks `compile_pattern` up by its module name, so a rebinding of that
    name (the bench tracer, a test spy) sees every compile."""
    return compile_pattern(pattern, alphabet)


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

    The parser emits the formula as a postfix program: one (kind, argument,
    left, right) step per subformula, children first, in the order the
    text names them.  The kind is `top`, `min`, `max`, `letter`, `not`,
    `or`, `and`, `until` or `since`; the argument is the letter or the
    bound DFA, else None; left and right are the slots of earlier steps,
    else -1.  Each rule returns the slot of its step.  X and F emit the
    steps of their long forms, so X(p) and U[_](!top, p) parse to the same
    program.
    """

    what = "formula"

    def parse(self) -> list[tuple]:
        self.program: list[tuple] = []
        self.formula()
        if not self.at_end():
            self.fail("trailing input")
        return self.program

    def emit(self, kind: str, argument: object = None, left: int = -1, right: int = -1) -> int:
        """Append one step to the program and return its slot."""
        self.program.append((kind, argument, left, right))
        return len(self.program) - 1

    def formula(self) -> int:
        self.depth = self.bounded(self.depth + 1)
        slot = self.conj()
        while self.peek() == "|":
            self.pos += 1
            slot = self.emit("or", None, slot, self.conj())
        self.depth -= 1
        return slot

    def conj(self) -> int:
        slot = self.unary()
        while self.peek() == "&":
            self.pos += 1
            slot = self.emit("and", None, slot, self.unary())
        return slot

    def unary(self) -> int:
        if self.peek() == "!":
            self.pos += 1
            self.depth = self.bounded(self.depth + 1)
            slot = self.emit("not", None, self.unary())
            self.depth -= 1
            return slot
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
        """The DFA of a bound, read from the process-wide memo `_bound`, so
        each (pattern text, alphabet) compiles once per process while it
        stays among the BOUND_MEMO_SIZE most recently used."""
        try:
            return _bound(pattern, self.alphabet)
        except InputError as exc:
            self.fail(f"bad bound language: {exc}")

    def pair(self) -> tuple[int, int]:
        self.eat("(")
        left = self.formula()
        self.eat(",")
        right = self.formula()
        self.eat(")")
        return left, right

    def operand(self) -> int:
        self.eat("(")
        slot = self.formula()
        self.eat(")")
        return slot

    def primary(self) -> int:
        self.peek()
        for keyword in ("top", "min", "max"):
            if self.text.startswith(keyword, self.pos):
                self.pos += len(keyword)
                return self.emit(keyword)
        if self.text.startswith(("U", "S"), self.pos):
            kind = "until" if self.text[self.pos] == "U" else "since"
            self.pos += 1
            bound = self.bound_dfa("~%")
            left, right = self.pair()
            return self.emit(kind, bound, left, right)
        if self.text.startswith("F", self.pos):
            self.pos += 1
            bound = self.bound_dfa("~%")
            top = self.emit("top")
            return self.emit("until", bound, top, self.operand())
        if self.text.startswith("X", self.pos):
            self.pos += 1
            bound = self.compiled("_")
            never = self.emit("not", None, self.emit("top"))
            return self.emit("until", bound, never, self.operand())
        if self.text.startswith("(", self.pos):
            return self.operand()
        ch = self.peek()
        if ch in self.alphabet:
            self.pos += 1
            return self.emit("letter", ch)
        self.fail("expected a formula")


def parse_formula(text: str, alphabet: Alphabet) -> list[tuple]:
    return _FormulaParser(text, alphabet).parse()


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


def _sweep(images: _Images, letters: str, left: int, right: int) -> int:
    # Backward sweep over positions n..0 that reads `letters`, the word
    # reversed, in order: `states` after position i holds the bound-DFA
    # states that the infix word[i:j-1] of some witness j > i links to the
    # seed, with the left side true strictly between i and j.  The sides
    # are read as digit strings from position n+1 down and the truths are
    # collected as digits, so the sweep is linear in n.  For since, run on
    # the mirror image, the infix is read forward from the initial state.
    n = len(letters)
    lefts, rights = format(left, f"0{n + 2}b"), format(right, f"0{n + 2}b")
    seed, goal, cache = images.seed, images.goal, images.cache
    states = seed if rights[0] == "1" else 0
    digits = ["0", "1" if states & goal else "0"]
    for sym, l, r in zip(letters, lefts[1:], rights[1:]):
        if states and l == "1":
            image = cache[sym].get(states)
            states = images(sym, states) if image is None else image
        else:
            states = 0
        if r == "1":
            states |= seed
        digits.append("1" if states & goal else "0")
    return int("".join(digits), 2)


def _loop_letters(dfa: Dfa) -> set[str] | None:
    """The letters that loop on the bound's initial state when that state is
    its one useful state, else None: the state is final, and every other
    letter leads to a non-final sink.  A minimal DFA with one useful state
    has at most two states, so larger ones are not tested."""
    q = dfa.initial
    if dfa.states > 2 or q not in dfa.finals:
        return None
    loops = {sym for sym, target in zip(dfa.alphabet, dfa.delta[q]) if target == q}
    if len(loops) < len(dfa.alphabet):
        other = 1 - q
        if other in dfa.finals or any(target != other for target in dfa.delta[other]):
            return None
    return loops


def _carries(generate: int, propagate: int) -> int:
    """The bits i with some j <= i where `generate` holds at j and
    `propagate` at j+1..i: the carries of one addition."""
    total = generate | propagate
    return (total + generate ^ total ^ generate) >> 1


def _mirror(vector: int, n: int) -> int:
    """A truth vector over positions 0..n+1 with position p moved to n+1-p."""
    return int(format(vector, f"0{n + 2}b")[::-1], 2)


def _truth(formula: list[tuple], word: str) -> int:
    """Truth values of the formula's last step at positions 0..n+1 of the
    word as the bits of an int, one such vector per step, children first."""
    n = len(word)
    everywhere = (1 << (n + 2)) - 1
    # letter vectors read the reversed word as bits, and the until sweep reads it
    reverse = word[::-1]
    letters = set(word)
    zeros = dict.fromkeys(map(ord, letters), "0")
    vectors: list[int] = []
    for kind, argument, left, right in formula:
        if kind == "and":
            value = vectors[left] & vectors[right]
        elif kind == "or":
            value = vectors[left] | vectors[right]
        elif kind == "not":
            value = everywhere ^ vectors[left]
        elif kind == "until" or kind == "since":
            loops = _loop_letters(argument) if letters <= set(argument.alphabet) else None
            if loops is not None:
                # the sweep's set holds the initial state or nothing: a carry
                # chain that the right side generates and the left side, where
                # the letter loops, propagates
                marks = {**zeros, **{ord(sym): "1" for sym in loops}}
                if kind == "until":
                    # the chain runs toward position 0, so it runs mirrored
                    p, q = _mirror(vectors[left], n), _mirror(vectors[right], n)
                    chain = _carries(q, p & int(word.translate(marks) + "0", 2))
                    value = _mirror(chain & everywhere, n) >> 1
                else:
                    looping = int(reverse.translate(marks) + "0", 2)
                    value = _carries(vectors[right], vectors[left] & looping) << 1 & everywhere
            else:
                images = _Images(argument, backward=kind == "until")
                try:
                    if kind == "until":
                        value = _sweep(images, reverse, vectors[left], vectors[right])
                    else:
                        # until on the mirror image, which reads the word in order
                        p, q = _mirror(vectors[left], n), _mirror(vectors[right], n)
                        value = _mirror(_sweep(images, word, p, q), n)
                except KeyError as exc:
                    raise InputError(f"symbol {exc.args[0]!r} is not in the alphabet") from None
        elif kind == "letter":
            marks = reverse.translate({**zeros, ord(argument): "1"})
            value = int(marks + "0", 2)
        elif kind == "top":
            value = everywhere
        elif kind == "min":
            value = 1
        else:  # max
            value = 1 << (n + 1)
        vectors.append(value)
    return vectors[-1]


_OPERANDS = {"top": 0, "min": 0, "max": 0, "letter": 0, "not": 1, "or": 2, "and": 2,
             "until": 2, "since": 2}


def _check_program(formula: list[tuple]) -> None:
    """Raise InputError unless the program has steps of four fields, of known
    `str` kinds, whose `int` left and right name earlier slots where the kind
    takes operands, else -1; a letter's argument is one character and a bound
    a Dfa.  `type(...) is` rejects a bool or float slot, which `in range`
    would take for a number."""
    if not formula:
        raise InputError("a formula program needs at least one step")
    for slot, step in enumerate(formula):
        if not isinstance(step, (tuple, list)) or len(step) != 4:
            raise InputError(f"formula step {slot} is not a (kind, argument, left, right) tuple")
        kind, argument, left, right = step
        arity = _OPERANDS.get(kind) if type(kind) is str else None
        if arity is None:
            raise InputError(f"unknown formula step {kind!r}")
        if kind == "letter" and not (isinstance(argument, str) and len(argument) == 1):
            raise InputError(f"formula step {slot} (letter) has argument {argument!r}, not one letter")
        if kind in ("until", "since") and not isinstance(argument, Dfa):
            raise InputError(f"formula step {slot} ({kind}) has a bound that is not a Dfa")
        earlier = range(slot)
        left_ok = left in earlier if arity else left == -1
        right_ok = right in earlier if arity == 2 else right == -1
        if type(left) is not int or type(right) is not int or not (left_ok and right_ok):
            raise InputError(f"formula step {slot} ({kind}) has bad operands {left}, {right}")


def eval_at(formula: list[tuple], word: str, position: int) -> bool:
    """Truth value of the formula at the given position of the word."""
    _check_program(formula)
    if not 0 <= position <= len(word) + 1:
        raise InputError(
            f"position {position} out of range for a word of length {len(word)}"
        )
    return _truth(formula, word) >> position & 1 == 1


# ---------------------------------------------------------------------------
# Compilation to a DFA, and exact comparison


def _check_reads(what: str, dfa: Dfa, letters: tuple[str, ...]) -> None:
    """Raise InputError naming `what` and the first of `letters` the DFA does not read."""
    missing = [sym for sym in letters if sym not in dfa.alphabet]
    if missing:
        raise InputError(f"{what} does not read the letter {missing[0]!r} of {letters}")


def compile_formula(formula: list[tuple], alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA of the words over `alphabet` at whose position
    0 the formula holds; every until and since bound must read each letter.

    A bimachine (Schützenberger 1961): machine 0 reads positions 0..i-1
    forward and keeps one table per since, machine 1 reads n+1..i+1
    backward and keeps one table per until, each reading its end symbol
    first.  A table maps each state the other machine can take at the
    neighbouring position to the sweep's set at i, a function of the entry
    one step earlier and of the letter and the children's truths at that
    position.  Tables are added in step order, each indexed by the states
    the other machine reaches with its earlier tables.  Machine 1
    recognizes the mirror images of the formula's words.
    """
    letters = alphabet.symbols
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
        in step order: a sweep's truth reads its table, not its children."""
        found, stack = set(), list(starts)
        while stack:
            slot = stack.pop()
            if slot >= 0 and slot not in found:
                found.add(slot)
                if formula[slot][0] not in ("until", "since"):
                    stack.extend(formula[slot][2:])
        return sorted(found)

    def truths(states: tuple, sym: str, slots: list[int]) -> dict[int, bool]:
        """Truths at `slots` where the position holds `sym` and the machines are in `states`."""
        values = {}
        for slot in slots:
            kind, argument, left, right = formula[slot]
            if kind == "and":
                value = values[left] and values[right]
            elif kind == "or":
                value = values[left] or values[right]
            elif kind == "not":
                value = not values[left]
            elif slot in tables:
                side, j, images, width, index, moves, _ = tables[slot]
                # a machine that has read nothing has only empty sets; at its
                # end symbol the other one is about to take its state 0
                value = sym != ends[side]
                if value:
                    k = 0 if sym == ends[1 - side] else moves[index[states[1 - side][:width]]][sym]
                    value = bool(states[side][j][k] & images.goal)
            elif kind == "letter":
                value = sym == argument
            else:  # top, and min and max at their end symbols
                value = kind == "top" or sym == ends[kind == "max"]
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
                _, _, left, right = formula[slot]
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

    _check_program(formula)
    for kind, argument, *_ in formula:
        if kind == "until" or kind == "since":
            _check_reads("a bound of the formula", argument, letters)
    for slot, (kind, argument, left, right) in enumerate(formula):
        if kind == "until" or kind == "since":
            side, other = (1, 0) if kind == "until" else (0, 1)
            start = step(other, empty[other], ends[other])
            states, rows = explore(start, lambda s: [step(other, s, a) for a in letters])
            index = {s: k for k, s in enumerate(states)}
            moves = [dict(zip(letters, row)) for row in rows]
            images = _Images(argument, kind == "until")
            width, region = len(empty[other]), reads([left, right])
            tables[slot] = (side, len(sweeps[side]), images, width, index, moves, region)
            sweeps[side].append(slot)
            empty[side] += ((0,) * len(index),)
    root = len(formula) - 1
    region = reads([root])
    backward = _determinize(
        alphabet,
        step(1, empty[1], ends[1]),
        lambda s: [step(1, s, sym) for sym in letters],
        lambda s: truths((empty[0], s), ends[0], region)[root],
    )
    return minimize(reverse(backward))


def compare_sampled(
    formula: list[tuple], dfa: Dfa, alphabet: Alphabet, max_length: int = 8
) -> list[str]:
    """Words up to the length bound where formula and automaton disagree,
    shortest first and length-lexicographic within one length.

    The list is exact: it is read off the xor product of the formula's DFA
    with the automaton, so the bound limits only the words listed.  The
    name dates from when words were sampled; bench/tracer.py rebinds it.
    The automaton, then every until and since bound, must read each letter
    of the alphabet; otherwise InputError names the first that does not and
    its first missing letter, at any length bound and before any work.
    """
    if max_length < 0:
        raise InputError(f"sample length bound {max_length} is negative")
    _check_reads("the automaton", dfa, alphabet.symbols)
    compiled = compile_formula(formula, alphabet)
    columns = [dfa.alphabet.index(sym) for sym in alphabet.symbols]
    mismatches = _determinize(
        alphabet,
        (compiled.initial, dfa.initial),
        lambda s: zip(compiled.delta[s[0]], [dfa.delta[s[1]][c] for c in columns]),
        lambda s: (s[0] in compiled.finals) != (s[1] in dfa.finals),
    )
    return accepted_words(mismatches, max_length)
