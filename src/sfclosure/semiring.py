"""Finite idempotent semirings and rating maps.

Three concrete carriers:

  * TableSemiring: explicit addition and multiplication tables over ints.
  * PowersetSemiring: subsets of a finite monoid as int bitmasks, with
    union as addition and setwise product as multiplication.
  * ProductSemiring: a product of powerset semirings, each value packed
    into one int.  Component i is a bitmask at a fixed bit offset, with
    component 0 in the highest bits, so int order is the lexicographic
    order of the component tuples.  Addition is bitwise or on the whole
    int and multiplication works per component.

Addition is idempotent, so x <= y iff x + y = y is a partial order and
every element has a finite downset.  For powerset and product values
that order is bit inclusion, x | y == y, which is what the covering
solvers' antichains rely on.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .automata import Alphabet
from .errors import InputError, ResourceLimitError
from .monoid import FiniteMonoid, Morphism, RecognizedLanguage


class Semiring:
    """Shared helpers; subclasses define zero, one, add, mul, elements."""

    zero = None
    one = None
    # True when values are int bitmasks ordered by bit inclusion
    bit_inclusion_order = False

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        return self.add(x, y) == y

    def downset_of(self, x):
        raise NotImplementedError

    def element_to_json(self, x):
        raise NotImplementedError

    def omega_of(self, x):
        """The unique multiplicative idempotent power of x."""
        seen = {x: 1}
        power = x
        exp = 1
        while True:
            power = self.mul(power, x)
            exp += 1
            if power in seen:
                start = seen[power]
                period = exp - start
                omega = start + (-start) % period
                result = x
                for _ in range(omega - 1):
                    result = self.mul(result, x)
                return result
            seen[power] = exp

    def sf_closure_of(self, x):
        """x^w + x^(w+1)."""
        w = self.omega_of(x)
        return self.add(w, self.mul(w, x))


class TableSemiring(Semiring):
    def __init__(self, size: int, add_table, mul_table, zero: int, one: int) -> None:
        if size < 1:
            raise InputError("semiring must have at least one element")
        self.size = size
        self.add_table = tuple(tuple(int(v) for v in row) for row in add_table)
        self.mul_table = tuple(tuple(int(v) for v in row) for row in mul_table)
        for table, name in ((self.add_table, "addition"), (self.mul_table, "multiplication")):
            if len(table) != size or any(len(row) != size for row in table):
                raise InputError(f"{name} table must be size x size")
            for row in table:
                for v in row:
                    if not 0 <= v < size:
                        raise InputError(f"{name} entry {v} out of range")
        if not 0 <= zero < size or not 0 <= one < size:
            raise InputError("distinguished element out of range")
        self.zero = zero
        self.one = one

    def add(self, x, y):
        return self.add_table[x][y]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def elements(self):
        return range(self.size)

    def downset_of(self, x):
        return [y for y in range(self.size) if self.leq(y, x)]

    def element_to_json(self, x):
        return x


class PowersetSemiring(Semiring):
    """Subsets of a finite monoid, encoded as bitmasks."""

    bit_inclusion_order = True

    def __init__(self, monoid: FiniteMonoid, cap: int = 16) -> None:
        if monoid.size > cap:
            raise ResourceLimitError(
                f"monoid of size {monoid.size} exceeds the powerset cap of {cap}"
            )
        self.monoid = monoid
        self.zero = 0
        self.one = 1 << monoid.identity
        # singleton product rows let setwise products run on bit tricks
        self._single = tuple(
            tuple(1 << monoid.mul[x][y] for y in range(monoid.size))
            for x in range(monoid.size)
        )
        self._mul_cache: dict[tuple[int, int], int] = {}

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def add(self, x, y):
        return x | y

    def mul(self, x, y):
        key = (x, y)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        result = 0
        for i in self._bits(x):
            row = self._single[i]
            for j in self._bits(y):
                result |= row[j]
        self._mul_cache[key] = result
        return result

    def leq(self, x, y) -> bool:
        return x | y == y

    def elements(self):
        return range(1 << self.monoid.size)

    def downset_of(self, x):
        # all submasks, including 0, in increasing order
        subs = []
        sub = 0
        while True:
            subs.append(sub)
            if sub == x:
                break
            sub = (sub - x) & x
        return subs

    def singleton(self, element: int) -> int:
        return 1 << element

    def mask_of(self, elements) -> int:
        mask = 0
        for e in elements:
            mask |= 1 << e
        return mask

    def contents(self, mask: int) -> tuple[int, ...]:
        return tuple(self._bits(mask))

    def element_to_json(self, x):
        return list(self._bits(x))


class ProductSemiring(Semiring):
    """Product of powerset semirings with each value packed into one int.

    Component i takes as many bits as its monoid has elements, at
    `offsets[i]`; component 0 sits in the highest bits.
    """

    bit_inclusion_order = True

    def __init__(self, components) -> None:
        self.components = tuple(components)
        if not self.components:
            raise InputError("product semiring needs at least one component")
        for c in self.components:
            if not isinstance(c, PowersetSemiring):
                raise InputError("product semiring components must be powerset semirings")
        widths = [c.monoid.size for c in self.components]
        self.offsets = tuple(sum(widths[i + 1:]) for i in range(len(widths)))
        self._fields = tuple(
            (c, offset, (1 << width) - 1)
            for c, offset, width in zip(self.components, self.offsets, widths)
        )
        self.zero = 0
        self.one = self.pack(c.one for c in self.components)
        self._mul_cache: dict[tuple[int, int], int] = {}

    def pack(self, parts) -> int:
        """The int holding one bitmask per component."""
        value = 0
        for part, offset in zip(parts, self.offsets):
            value |= part << offset
        return value

    def unpack(self, x: int) -> tuple[int, ...]:
        """The component bitmasks of a packed value."""
        return tuple((x >> offset) & mask for _, offset, mask in self._fields)

    def add(self, x, y):
        return x | y

    def mul(self, x, y):
        key = (x, y)
        cached = self._mul_cache.get(key)
        if cached is None:
            cached = 0
            for c, offset, mask in self._fields:
                cached |= c.mul((x >> offset) & mask, (y >> offset) & mask) << offset
            self._mul_cache[key] = cached
        return cached

    def leq(self, x, y) -> bool:
        return x | y == y

    def elements(self):
        return (
            self.pack(parts)
            for parts in itertools.product(*(c.elements() for c in self.components))
        )

    def downset_of(self, x):
        return [
            self.pack(parts)
            for parts in itertools.product(
                *(c.downset_of(a) for c, a in zip(self.components, self.unpack(x)))
            )
        ]

    def element_to_json(self, x):
        return [c.element_to_json(a) for c, a in zip(self.components, self.unpack(x))]


def validate_semiring(sr: Semiring, elements=None) -> str | None:
    """Exhaustively check the axioms; return a description of the first
    violation (axiom name plus witness) or None when all hold."""
    elems = list(sr.elements() if elements is None else elements)
    for x in elems:
        if sr.add(x, x) != x:
            return f"addition idempotence fails at ({x}, {x})"
    for x in elems:
        if sr.add(sr.zero, x) != x or sr.add(x, sr.zero) != x:
            return f"zero is not neutral for addition at {x}"
        if sr.mul(sr.one, x) != x or sr.mul(x, sr.one) != x:
            return f"one is not neutral for multiplication at {x}"
        if sr.mul(sr.zero, x) != sr.zero or sr.mul(x, sr.zero) != sr.zero:
            return f"zero is not absorbing at {x}"
    for x in elems:
        for y in elems:
            if sr.add(x, y) != sr.add(y, x):
                return f"addition commutativity fails at ({x}, {y})"
    for x in elems:
        for y in elems:
            for z in elems:
                if sr.add(sr.add(x, y), z) != sr.add(x, sr.add(y, z)):
                    return f"addition associativity fails at ({x}, {y}, {z})"
                if sr.mul(sr.mul(x, y), z) != sr.mul(x, sr.mul(y, z)):
                    return f"multiplication associativity fails at ({x}, {y}, {z})"
                if sr.mul(x, sr.add(y, z)) != sr.add(sr.mul(x, y), sr.mul(x, z)):
                    return f"left distributivity fails at ({x}, {y}, {z})"
                if sr.mul(sr.add(x, y), z) != sr.add(sr.mul(x, z), sr.mul(y, z)):
                    return f"right distributivity fails at ({x}, {y}, {z})"
    return None


def downset(sr: Semiring, subset) -> list:
    """Downward closure of a set of elements, deduplicated, stable order."""
    seen = []
    found = set()
    for x in subset:
        for y in sr.downset_of(x):
            if y not in found:
                found.add(y)
                seen.append(y)
    return seen


# ---------------------------------------------------------------------------
# Rating maps


@dataclass(frozen=True)
class RatingMap:
    """A multiplicative rating map determined by its letter images."""

    semiring: Semiring
    alphabet: Alphabet
    letter_images: tuple

    def __post_init__(self) -> None:
        if len(self.letter_images) != len(self.alphabet):
            raise InputError("one letter image per alphabet symbol required")

    def of_word(self, word: str):
        result = self.semiring.one
        for sym in word:
            result = self.semiring.mul(
                result, self.letter_images[self.alphabet.index(sym)]
            )
        return result

    def of_language(self, words):
        """Sum over a finite language."""
        result = self.semiring.zero
        for w in words:
            result = self.semiring.add(result, self.of_word(w))
        return result


def rho_alpha(lang: RecognizedLanguage, cap: int = 16) -> RatingMap:
    """The canonical rating map of a recognized language: words rate to the
    singleton of their image, languages to their whole image set."""
    morphism = lang.morphism
    sr = PowersetSemiring(morphism.codomain, cap=cap)
    letters = tuple(sr.singleton(s) for s in morphism.letter_images)
    return RatingMap(sr, morphism.alphabet, letters)


def product_rating_map(maps) -> RatingMap:
    maps = list(maps)
    if not maps:
        raise InputError("product of zero rating maps is not defined")
    alphabet = maps[0].alphabet
    for rm in maps[1:]:
        if rm.alphabet != alphabet:
            raise InputError("all rating maps must share one alphabet")
    sr = ProductSemiring(rm.semiring for rm in maps)
    letters = tuple(
        sr.pack(rm.letter_images[i] for rm in maps) for i in range(len(alphabet))
    )
    return RatingMap(sr, alphabet, letters)


def image_monoid(rm: RatingMap, cap: int | None = None) -> Morphism:
    """The multiplicative submonoid generated by the letter images,
    presented as a morphism whose labels are the semiring values."""
    sr = rm.semiring
    index = {sr.one: 0}
    order = [sr.one]
    queue = deque([sr.one])
    while queue:
        x = queue.popleft()
        for g in rm.letter_images:
            y = sr.mul(x, g)
            if y not in index:
                if cap is not None and len(order) >= cap:
                    raise ResourceLimitError(
                        f"rating map image exceeds the cap of {cap} elements"
                    )
                index[y] = len(order)
                order.append(y)
                queue.append(y)
    mul = tuple(
        tuple(index[sr.mul(x, y)] for y in order) for x in order
    )
    monoid = FiniteMonoid(len(order), 0, mul)
    return Morphism(
        alphabet=rm.alphabet,
        codomain=monoid,
        letter_images=tuple(index[g] for g in rm.letter_images),
        image=frozenset(range(len(order))),
        labels=tuple(order),
    )
