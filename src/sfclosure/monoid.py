"""Finite monoids, morphisms from free monoids, and syntactic morphisms.

A monoid is a multiplication table over 0..size-1.  Every generated
monoid is built by one closure, `cayley_closure`: `automata.explore`
numbers the elements breadth-first from the identity with letters in
alphabet order, the same numbering every DFA construction uses, its
right Cayley graph gives each element a shortest word, and the table is
filled from the Cayley graphs, never by multiplying labels (Froidure &
Pin, "Algorithms for computing finite semigroups", 1997).  Each row is
one C-level gather (`gather`, an `operator.itemgetter`) of an earlier
row at the entries of a left-Cayley column, so no table entry costs an
interpreted call.  The syntactic morphism of a regular language is the
transition monoid of its minimal complete DFA built this way, composing
transformations by the same gather, so the numbering is canonical for a
canonical input DFA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

from .automata import Alphabet, Dfa, explore, minimize
from .config import DEFAULT
from .errors import InputError


@dataclass(frozen=True)
class FiniteMonoid:
    size: int
    identity: int
    mul: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("monoid must have at least one element")
        if not 0 <= self.identity < self.size:
            raise InputError("identity out of range")
        if len(self.mul) != self.size or any(len(row) != self.size for row in self.mul):
            raise InputError("multiplication table must be size x size")
        for row in self.mul:
            if min(row) < 0 or max(row) >= self.size:
                entry = next(e for e in row if not 0 <= e < self.size)
                raise InputError(f"multiplication entry {entry} out of range")

    @classmethod
    def _from_closure(cls, mul: tuple[tuple[int, ...], ...]) -> FiniteMonoid:
        """The monoid of a table that `cayley_closure` filled, identity 0.
        Every entry is an index the closure numbered, so the entry scan of
        __post_init__, which reads all |M|^2 entries, is skipped."""
        monoid = object.__new__(cls)
        object.__setattr__(monoid, "size", len(mul))
        object.__setattr__(monoid, "identity", 0)
        object.__setattr__(monoid, "mul", mul)
        return monoid


def gather(indices):
    """The function that reads a sequence at `indices`, in order, as a
    tuple: `operator.itemgetter(*indices)`, which gathers in C."""
    indices = tuple(indices)
    # itemgetter returns a bare item for one index and fails for none, and
    # a row or label must stay a tuple
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def validate_monoid(m: FiniteMonoid) -> None:
    """Raise InputError on the first broken identity or associativity law.

    (x*y)*z = x*(y*z) for all z is one row comparison: row x*y against
    row x read at the entries of row y.  Only a row that differs is
    scanned for its first z."""
    e = m.identity
    mul = m.mul
    for s in range(m.size):
        if mul[e][s] != s or mul[s][e] != s:
            raise InputError(f"element {e} is not an identity at {s}")
    for x, row in enumerate(mul):
        for y, xy in enumerate(row):
            x_yz = gather(mul[y])(row)
            if mul[xy] != x_yz:
                z = next(z for z, (u, v) in enumerate(zip(mul[xy], x_yz)) if u != v)
                raise InputError(f"associativity fails at ({x}, {y}, {z})")


def omega_power(x, mul):
    """The unique idempotent power x^w of x under the associative product
    `mul`: the power in the cycle of x, x^2, ... whose exponent the cycle
    length divides."""
    powers = [x]
    seen = {x: 1}
    while True:
        power = mul(powers[-1], x)
        start = seen.get(power)
        if start is not None:
            period = len(powers) + 1 - start
            return powers[start + (-start) % period - 1]
        powers.append(power)
        seen[power] = len(powers)


def idempotent_power(m: FiniteMonoid, s: int) -> int:
    """The unique idempotent in the cyclic subsemigroup generated by s."""
    table = m.mul
    return omega_power(s, lambda x, y: table[x][y])


def idempotents(m: FiniteMonoid) -> tuple[int, ...]:
    return tuple(s for s in range(m.size) if m.mul[s][s] == s)


def aperiodicity_witness(m: FiniteMonoid, subset) -> int | None:
    """An element with s^(w+1) != s^w, or None if the subset is aperiodic."""
    for s in sorted(set(subset)):
        w = idempotent_power(m, s)
        if m.mul[w][s] != w:
            return s
    return None


@dataclass(frozen=True)
class Morphism:
    """A morphism from the free monoid over `alphabet` into `codomain`.

    `letter_images` is aligned with the alphabet.  `labels`, when present,
    carries an underlying value per codomain element (for monoids derived
    from transformations, tuples or sets).
    """

    alphabet: Alphabet
    codomain: FiniteMonoid
    letter_images: tuple[int, ...]
    image: frozenset[int]
    labels: tuple | None = None

    def __post_init__(self) -> None:
        if len(self.letter_images) != len(self.alphabet):
            raise InputError("one letter image per alphabet symbol required")
        for s in self.letter_images:
            if not 0 <= s < self.codomain.size:
                raise InputError(f"letter image {s} out of range")

    def of_letter(self, sym: str) -> int:
        return self.letter_images[self.alphabet.index(sym)]

    def of_word(self, word: str) -> int:
        result = self.codomain.identity
        for sym in word:
            result = self.codomain.mul[result][self.of_letter(sym)]
        return result


def generated_image(monoid: FiniteMonoid, letter_images) -> frozenset[int]:
    image, _ = explore(monoid.identity, lambda s: map(monoid.mul[s].__getitem__, letter_images))
    return frozenset(image)


@dataclass(frozen=True)
class RecognizedLanguage:
    """A language given by a morphism and an accepting subset of the image."""

    morphism: Morphism
    accepting: frozenset[int]


def cayley_closure(alphabet: Alphabet, identity, step, cap: int, cap_message: str) -> Morphism:
    """The monoid generated by the letters of `alphabet` from `identity`.

    `step(label)` lists the labels of the element times each letter, in
    alphabet order; labels are hashable and name their elements uniquely.
    `explore` numbers the elements, its rows are the right Cayley graph,
    and it raises ResourceLimitError(cap_message) as soon as more than
    `cap` appear.  Each element y other than the identity is its BFS
    parent x times its last letter i, where (x, i) is the first entry of
    the rows that reads y: the first whose y equals the count seen so far.
    Walking each letter a along those words gives the left Cayley graph
    a * y, and row x of the table is row parent(x) read at the entries of
    last(x) * y, since x * y = parent(x) * (last(x) * y): one C-level
    gather per row, with one gather built per letter's left column.
    """
    labels, right = explore(identity, step, cap, cap_message)
    parent, last = [0], [0]
    for x, row in enumerate(right):
        for i, y in enumerate(row):
            if y == len(parent):
                parent.append(x)
                last.append(i)
    size = len(labels)
    letters = right[0]
    left = []
    for a in letters:
        column = [a]
        for y in range(1, size):
            column.append(right[column[parent[y]]][last[y]])
        left.append(column)
    gathers = [gather(column) for column in left]
    mul = [tuple(range(size))]
    for x in range(1, size):
        mul.append(gathers[last[x]](mul[parent[x]]))
    return Morphism(
        alphabet=alphabet,
        codomain=FiniteMonoid._from_closure(tuple(mul)),
        letter_images=letters,
        image=frozenset(range(size)),
        labels=tuple(labels),
    )


def syntactic_morphism(dfa: Dfa, cap: int | None = None) -> RecognizedLanguage:
    """Transition monoid of the minimal DFA, with the accepting element set.

    Element i is a transformation of the state set, labelled by the tuple
    of state images; composition is in diagram order, so mul[x][y] means
    "apply x, then y", and t followed by letter i is generator i read at
    the entries of t.  Raises ResourceLimitError when more than `cap`
    transformations appear, DEFAULT.monoid_cap when it is None.
    """
    if cap is None:
        cap = DEFAULT.monoid_cap
    dfa = minimize(dfa)
    generators = list(zip(*dfa.delta))
    morphism = cayley_closure(
        dfa.alphabet,
        tuple(range(dfa.states)),
        lambda t: map(gather(t), generators),
        cap,
        f"syntactic monoid exceeds the cap of {cap} elements",
    )
    accepting = frozenset(
        i for i, t in enumerate(morphism.labels) if t[dfa.initial] in dfa.finals
    )
    return RecognizedLanguage(morphism, accepting)


# ---------------------------------------------------------------------------
# Serialization


def morphism_to_json(lang_or_morphism) -> dict:
    if isinstance(lang_or_morphism, RecognizedLanguage):
        morphism = lang_or_morphism.morphism
        accepting = sorted(lang_or_morphism.accepting)
    else:
        morphism = lang_or_morphism
        accepting = None
    doc = {
        "size": morphism.codomain.size,
        "identity": morphism.codomain.identity,
        "mul": [list(row) for row in morphism.codomain.mul],
        "letters": {
            sym: morphism.letter_images[i]
            for i, sym in enumerate(morphism.alphabet)
        },
    }
    if accepting is not None:
        doc["accepting"] = accepting
    return doc


def _json_int(value) -> int:
    # JSON integers only: int() would truncate 1.7 to 1 and read true as 1
    if type(value) is not int:
        raise TypeError(f"expected an integer, found {value!r}")
    return value


def morphism_from_json(data: dict) -> Morphism | RecognizedLanguage:
    if not isinstance(data, dict):
        raise InputError("morphism document must be a JSON object")
    try:
        size = _json_int(data["size"])
        identity = _json_int(data["identity"])
        mul = tuple(tuple(_json_int(v) for v in row) for row in data["mul"])
        letters = {sym: _json_int(s) for sym, s in dict(data["letters"]).items()}
        accepting = frozenset(_json_int(v) for v in data.get("accepting", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed morphism document: {exc}") from exc
    monoid = FiniteMonoid(size, identity, mul)
    validate_monoid(monoid)
    alphabet = Alphabet(tuple(sorted(letters)))
    letter_images = tuple(letters[sym] for sym in alphabet)
    # the image walk below reads the letter images before Morphism checks them
    for s in letter_images:
        if not 0 <= s < size:
            raise InputError(f"letter image {s} out of range")
    morphism = Morphism(
        alphabet=alphabet,
        codomain=monoid,
        letter_images=letter_images,
        image=generated_image(monoid, letter_images),
    )
    if "accepting" in data:
        for s in accepting:
            if not 0 <= s < size:
                raise InputError(f"accepting element {s} out of range")
        return RecognizedLanguage(morphism, accepting)
    return morphism


def load_morphism(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deep: {exc}") from exc
    return morphism_from_json(data)
