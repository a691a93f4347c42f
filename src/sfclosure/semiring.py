"""Powerset semirings of finite monoids, and rating maps into them.

Every rating value is one int.  ProductSemiring(monoids) is the product
of the powerset semirings of some finite monoids: component i is the
bitmask of a subset of monoid i, at a fixed bit offset, with component 0
in the highest bits, so int order is the lexicographic order of the
component tuples.  A one-language rating map is the one-component case.
Addition is bitwise or on the whole int, and multiplication is the
setwise product per component.

Addition is idempotent, so x <= y iff x + y = y is a partial order, and
for these values it is bit inclusion on the whole int, x | y == y, which
is what the covering solvers' antichains rely on.  Every element has a
finite downset: the submasks of its int.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .automata import Alphabet
from .config import DEFAULT
from .errors import InputError, ResourceLimitError
from .monoid import RecognizedLanguage, omega_power


def sf_closure_of(sr, x: int) -> int:
    """x^w + x^(w+1), the jump rule of the star-free closure."""
    w = omega_power(x, sr.mul)
    return w | sr.mul(w, x)


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ProductSemiring:
    """Product of the powerset semirings of some finite monoids, with each
    value packed into one int.

    Component i takes as many bits as monoid i has elements, at
    `offsets[i]`; component 0 sits in the highest bits.
    """

    def __init__(self, monoids) -> None:
        self.monoids = tuple(monoids)
        if not self.monoids:
            raise InputError("product semiring needs at least one component")
        widths = [m.size for m in self.monoids]
        self.width = sum(widths)
        self.offsets = tuple(sum(widths[i + 1:]) for i in range(len(widths)))
        # per component: offset, field mask, field width, multiplication
        # table, and a cache of shifted field products keyed by the two
        # field values side by side
        self._fields = tuple(
            (offset, (1 << m.size) - 1, m.size, m.mul, {})
            for m, offset in zip(self.monoids, self.offsets)
        )
        self.zero = 0
        self.one = self.pack(1 << m.identity for m in self.monoids)
        # x -> {y -> x * y}; covering's saturation reads and fills it in
        # place, so a cached product there costs no call
        self._rows: defaultdict[int, dict[int, int]] = defaultdict(dict)

    def pack(self, parts) -> int:
        """The int holding one bitmask per component."""
        value = 0
        for part, offset in zip(parts, self.offsets):
            value |= part << offset
        return value

    def unpack(self, x: int) -> tuple[int, ...]:
        """The component bitmasks of a packed value."""
        return tuple((x >> offset) & mask for offset, mask, _, _, _ in self._fields)

    def product(self, x, y):
        """x * y field by field, without the whole-value cache."""
        value = 0
        for offset, mask, width, table, cache in self._fields:
            a = x >> offset & mask
            b = y >> offset & mask
            key = a << width | b
            part = cache.get(key)
            if part is None:
                part = 0
                while a:
                    low = a & -a
                    a ^= low
                    row = table[low.bit_length() - 1]
                    rest = b
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        part |= 1 << row[bit.bit_length() - 1]
                part = cache[key] = part << offset
            value |= part
        return value

    def mul(self, x, y):
        products = self._rows[x]
        value = products.get(y)
        if value is None:
            value = products[y] = self.product(x, y)
        return value

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

    def element_to_json(self, x):
        return [_members(part) for part in self.unpack(x)]


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

    semiring: ProductSemiring
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


def rho_alpha(lang: RecognizedLanguage, cap: int | None = None) -> RatingMap:
    """The canonical rating map of a recognized language: words rate to the
    singleton of their image, languages to their whole image set.  The
    monoid may have at most cap elements, DEFAULT.powerset_cap when it is
    None."""
    if cap is None:
        cap = DEFAULT.powerset_cap
    morphism = lang.morphism
    monoid = morphism.codomain
    if monoid.size > cap:
        raise ResourceLimitError(
            f"monoid of size {monoid.size} exceeds the powerset cap of {cap}"
        )
    letters = tuple(1 << s for s in morphism.letter_images)
    return RatingMap(ProductSemiring([monoid]), morphism.alphabet, letters)


def product_rating_map(maps) -> RatingMap:
    maps = list(maps)
    if not maps:
        raise InputError("product of zero rating maps is not defined")
    alphabet = maps[0].alphabet
    for rm in maps[1:]:
        if rm.alphabet != alphabet:
            raise InputError("all rating maps must share one alphabet")
    sr = ProductSemiring(m for rm in maps for m in rm.semiring.monoids)
    letters = []
    for i in range(len(alphabet)):
        value = 0
        for rm in maps:
            value = value << rm.semiring.width | rm.letter_images[i]
        letters.append(value)
    return RatingMap(sr, alphabet, tuple(letters))
