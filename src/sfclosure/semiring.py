"""Powerset semirings of finite monoids, and rating maps into them.

Every rating value is one int:

  * PowersetSemiring: subsets of a finite monoid as int bitmasks, with
    union as addition and setwise product as multiplication.
  * ProductSemiring: a product of powerset semirings, each value packed
    into one int.  Component i is a bitmask at a fixed bit offset, with
    component 0 in the highest bits, so int order is the lexicographic
    order of the component tuples.  Addition is bitwise or on the whole
    int and multiplication works per component.

Addition is idempotent, so x <= y iff x + y = y is a partial order, and
for these values it is bit inclusion, x | y == y, which is what the
covering solvers' antichains rely on.  Every element has a finite
downset: its submasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import Alphabet
from .errors import InputError, ResourceLimitError
from .monoid import FiniteMonoid, RecognizedLanguage, omega_power


def sf_closure_of(sr, x: int) -> int:
    """x^w + x^(w+1), the jump rule of the star-free closure."""
    w = omega_power(x, sr.mul)
    return w | sr.mul(w, x)


class PowersetSemiring:
    """Subsets of a finite monoid, encoded as bitmasks."""

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

    def element_to_json(self, x):
        return list(self._bits(x))


class ProductSemiring:
    """Product of powerset semirings with each value packed into one int.

    Component i takes as many bits as its monoid has elements, at
    `offsets[i]`; component 0 sits in the highest bits.
    """

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


def downset(sr, subset) -> list:
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

    semiring: PowersetSemiring | ProductSemiring
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
