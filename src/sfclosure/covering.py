"""Covering and separation for star-free closures.

Both solvers compute the optimal set of rating-map values reachable by
covers ("imprints") as a least fixpoint.  Sets of semiring values that
are closed downward are represented by their maximal elements only; this
is sound because multiplication distributes over the idempotent addition
and is therefore monotone, and the closure rule r -> r^w + r^(w+1) is
monotone as well.

Values are ints ordered by bit inclusion, one bit field per component
(see semiring.py), so the antichains compare with x | y == y and sort by
plain int order.  A bucket of more than 64 maxima is bit-sliced: one int
per bit of the values marks the maxima that have that bit.

Finite base class, with canonical morphism eta into N: the pointed
saturation is the least subset of N x R containing the letter pairs
(eta(a), rho(a)) and the identity pair, closed under componentwise
product, downward closure on R, and, for idempotent e in N, the jump
(e, r) -> (e, r^w + r^(w+1)).  A pair (n, r) is one value of the
product semiring P(N) x R whose top field is the singleton {n}.
Products of singletons are singletons, read off N's table, and a
singleton field lies below another only when the two are equal, so the
product rule and the order are the plain ones; the jump is applied only
where n is idempotent, which keeps the field a singleton.  Int order is
(n, r) order.  The antichain keeps one bucket per top field, so pairs
with different class elements are never compared.

Group base class: the saturation is the least downward closed subset S
of R closed under product, the jump above, and the group step: build the
map mu sending a letter to {s rho(a) s' : s, s' in S}, take the kernel of
its image monoid (built by monoid.cayley_closure, like every generated
monoid) for the base class, and pour the union of the kernel members
back into S.  For mod the kernel is {1} u X^w, X the letter images, and
the union of the members is a morphism into the semiring of downsets, so
the step is {one} u P^w with P the maxima of the union of the letter
sets: no image monoid is built, and the power walk is
`oracles.stable_monoid`, the one `oracles.mod_kernel` takes, under the
same bound.  The first round's set is empty, so its step is {one}.  The
optimal imprint additionally absorbs the values rho(w) of single words
and closes under product again.

The product and jump rules run semi-naively: a maximal element that was
already in an earlier snapshot had its products with every other such
element and its jump inserted back then, and the represented set only
grows, so each round pairs only the new maxima with all maxima.  The
inserts that succeed, hence traces and round counts, are the same as
with all pairs every round.

A covering instance (L0, L1..Ln) is reduced to the product of the
canonical rating maps of all the languages; it is coverable exactly when
no optimal value meets every accepting set at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT, Config
from .errors import InputError
from .monoid import (
    Morphism,
    RecognizedLanguage,
    cayley_closure,
    syntactic_morphism,
)
from .oracles import FinitePrevariety, GroupClass, group_kernel, stable_monoid
from .semiring import (
    ProductSemiring,
    RatingMap,
    downset,
    product_rating_map,
    rho_alpha,
    sf_closure_of,
)


class _Slices:
    """A bucket of maxima, bit-sliced: slot i holds `values[i]`, bit i of
    `masks[b]` is set when that value has bit b, and `used` marks the live
    slots.  A dead slot keeps its mask bits until the slots are compacted,
    once dead ones outnumber live ones."""

    __slots__ = ("values", "masks", "used", "dead")

    def __init__(self, values) -> None:
        self._fill(values)

    def _fill(self, values) -> None:
        self.values: list = []
        self.masks: list[int] = []
        self.used = 0
        self.dead = 0
        for x in values:
            self._add(x)

    def _add(self, x) -> None:
        slot = 1 << len(self.values)
        self.values.append(x)
        self.used |= slot
        masks = self.masks
        if x.bit_length() > len(masks):
            masks.extend([0] * (x.bit_length() - len(masks)))
        while x:
            low = x & -x
            x ^= low
            masks[low.bit_length() - 1] |= slot

    def covers(self, x) -> bool:
        """Whether a live value has every bit of x."""
        masks = self.masks
        if x.bit_length() > len(masks):
            return False
        slots = self.used
        while x and slots:
            low = x & -x
            x ^= low
            slots &= masks[low.bit_length() - 1]
        return slots != 0

    def insert(self, x, members: set) -> bool:
        if self.covers(x):
            return False
        masks = self.masks
        # the live values below x are those without a bit that x lacks
        lacking = ~x & ((1 << len(masks)) - 1)
        outside = 0
        while lacking:
            low = lacking & -lacking
            lacking ^= low
            outside |= masks[low.bit_length() - 1]
        below = self.used & ~outside
        if below:
            self.used ^= below
            values = self.values
            while below:
                low = below & -below
                below ^= low
                members.discard(values[low.bit_length() - 1])
                self.dead += 1
        self._add(x)
        members.add(x)
        if 2 * self.dead > len(self.values):
            # compact: bit i of `used`, read as a string from the lowest bit up
            bits = format(self.used, "b")[::-1]
            self._fill([y for y, bit in zip(self.values, bits) if bit == "1"])
        return True


class Antichain:
    """Maximal elements of a downward closed set of bitmask values.

    With `exact` set, values that differ at or above that bit offset are
    never compared: each such high part has its own bucket of maxima.
    `members` is the set of current maxima, so a caller can drop an exact
    duplicate of one, the most common failed insert, with one set lookup.

    A bucket is a plain list, scanned value by value, until it holds more
    than `threshold` maxima; then it is bit-sliced (`_Slices`), so that
    finding a value above x, or the values below it, costs one big-int
    operation per bit of the values instead of one comparison per value.
    Only tests set `threshold`.
    """

    def __init__(self, exact: int | None = None, threshold: int = 64) -> None:
        self._exact = exact
        self._threshold = threshold
        self._buckets: dict[int, list] = {}
        self._sliced: dict[int, _Slices] = {}
        self.members: set = set()

    def covers(self, x) -> bool:
        key = 0 if self._exact is None else x >> self._exact
        bucket = self._buckets.get(key)
        if bucket is None:
            sliced = self._sliced.get(key)
            return sliced is not None and sliced.covers(x)
        for y in bucket:
            if x | y == y:
                return True
        return False

    def insert(self, x) -> bool:
        """Add x; returns True when the represented set grows."""
        key = 0 if self._exact is None else x >> self._exact
        bucket = self._buckets.get(key)
        if bucket is None:
            sliced = self._sliced.get(key)
            if sliced is not None:
                return sliced.insert(x, self.members)
            self._buckets[key] = [x]
            self.members.add(x)
            return True
        for y in bucket:
            if x | y == y:
                return False
        kept = [y for y in bucket if x | y != x]
        if len(kept) < len(bucket):
            self.members.difference_update(set(bucket).difference(kept))
            bucket[:] = kept
        bucket.append(x)
        self.members.add(x)
        if len(bucket) > self._threshold:
            self._sliced[key] = _Slices(self._buckets.pop(key))
        return True

    def snapshot(self) -> list:
        return sorted(self.members)

    def __len__(self) -> int:
        return len(self.members)


class Saturation:
    """A downward closed set of packed values of the semiring `sr`, kept as
    its maxima, with the rounds run so far and the trace of successful
    inserts."""

    def __init__(self, sr: ProductSemiring, trace: bool, exact: int | None = None) -> None:
        self.sr = sr
        self.chain = Antichain(exact)
        self.rounds = 0
        self.trace: list | None = [] if trace else None
        # maxima of earlier snapshots, whose products and jumps are in the chain
        self._seen: set = set()

    def maxima(self) -> list:
        """The maximal values of the rating map's semiring, ascending."""
        return self.chain.snapshot()

    def _entry(self, rule: str, value) -> dict:
        return {"rule": rule, "value": self.sr.element_to_json(value)}

    def _may_jump(self, value) -> bool:
        return True

    def _record(self, rule: str, value) -> None:
        if self.trace is not None:
            self.trace.append(self._entry(rule, value))

    def insert(self, value, rule: str) -> bool:
        """Add a value; returns True when the set grows."""
        if not self.chain.insert(value):
            return False
        self._record(rule, value)
        return True

    def close_round(self, jump: bool) -> bool:
        """One semi-naive round of the product rule, then of the jump when
        `jump` is set; returns True when the set grew.  Products are read
        from the semiring's cached row of x, filled on a miss, and one equal
        to a current maximum is dropped without an insert.  A pair with the
        identity as an operand is skipped: 1*y = y*1 = y is covered."""
        snapshot = self.chain.snapshot()
        seen = self._seen
        flags = [value not in seen for value in snapshot]
        fresh = [value for value, new in zip(snapshot, flags) if new]
        seen.update(fresh)
        rows = self.sr._rows
        product = self.sr.product
        members = self.chain.members
        add = self.chain.insert
        one = self.sr.one
        grew = False
        for x, new in zip(snapshot, flags):
            if x == one:
                continue
            row = rows[x]
            for y in snapshot if new else fresh:
                if y == one:
                    continue
                value = row.get(y)
                if value is None:
                    value = row[y] = product(x, y)
                if value not in members and add(value):
                    self._record("product", value)
                    grew = True
        if jump:
            for x in fresh:
                if self._may_jump(x) and self.insert(sf_closure_of(self.sr, x), "closure"):
                    grew = True
        return grew


class FiniteSaturation(Saturation):
    """The pointed saturation: each pair (n, r) is one value of the
    product semiring whose top field, above the rating map's fields, is
    the class monoid's, holding the singleton {n}."""

    def __init__(self, rho: RatingMap, eta: Morphism, trace: bool) -> None:
        n_monoid = eta.codomain
        shift = rho.semiring.width
        sr = ProductSemiring([n_monoid, *rho.semiring.monoids])
        super().__init__(sr, trace, exact=shift)
        self._rating = rho.semiring
        self._shift = shift
        self._idempotents = sum(
            1 << e for e in range(n_monoid.size) if n_monoid.mul[e][e] == e
        )

    def pack(self, n: int, r) -> int:
        return 1 << n << self._shift | r

    def unpack(self, value: int) -> tuple[int, int]:
        return (value >> self._shift).bit_length() - 1, value & ((1 << self._shift) - 1)

    def pairs(self) -> list[tuple[int, int]]:
        """The maximal pairs (n, r), ascending."""
        return [self.unpack(value) for value in self.chain.snapshot()]

    def maxima(self) -> list:
        return list(_max_reduce(r for _, r in self.pairs()))

    def _entry(self, rule: str, value) -> dict:
        n, r = self.unpack(value)
        return {"rule": rule, "value": self._rating.element_to_json(r), "class_element": n}

    def _may_jump(self, value) -> bool:
        return bool(value >> self._shift & self._idempotents)


def saturate_finite(
    c: FinitePrevariety, rho: RatingMap, config: Config = DEFAULT
) -> FiniteSaturation:
    eta = c.eta
    if eta.alphabet != rho.alphabet:
        raise InputError("the class morphism must use the rating map's alphabet")
    sat = FiniteSaturation(rho, eta, config.trace)
    sat.insert(sat.pack(eta.codomain.identity, rho.semiring.one), "seed")
    for n, r in zip(eta.letter_images, rho.letter_images):
        sat.insert(sat.pack(n, r), "letter")
    sat.rounds = 1
    while sat.close_round(jump=True):
        sat.rounds += 1
    return sat


def _max_reduce(values) -> tuple:
    """The maximal elements of some bitmask values, ascending.  A value
    strictly below another in bit inclusion is also a smaller int, so a
    descending scan only ever checks a value against kept ones."""
    kept: list[int] = []
    for v in sorted(set(values), reverse=True):
        for k in kept:
            if v | k == k:
                break
        else:
            kept.append(v)
    kept.reverse()
    return tuple(kept)


def _products(sr: ProductSemiring, xs, ys) -> set:
    """The setwise product of xs and ys, read from the semiring's cached
    rows, filled from `sr.product` on a miss."""
    rows = sr._rows
    product = sr.product
    values = set()
    for x in xs:
        row = rows[x]
        for y in ys:
            value = row.get(y)
            if value is None:
                value = row[y] = product(x, y)
            values.add(value)
    return values


def _mu_image_monoid(
    rho: RatingMap, letter_sets: list[tuple], cap: int
) -> Morphism:
    """Image monoid of the set-valued map a -> letter_sets[a].

    Elements are antichains of semiring values; the product is the
    setwise product reduced to its maxima, which tracks the downward
    closure of the honest setwise product.  A maximal antichain names its
    downward closure uniquely and products of downward closures are
    associative, so `cayley_closure` can tabulate the monoid from the
    right products by single letter sets alone.
    """
    sr = rho.semiring
    # value -> its products with the members of each letter set
    right_products: dict[int, list[set]] = {}

    def times_letters(xs: tuple) -> list[tuple]:
        result = []
        for i in range(len(letter_sets)):
            values = set()
            for v in xs:
                sets = right_products.get(v)
                if sets is None:
                    sets = right_products[v] = [_products(sr, (v,), gs) for gs in letter_sets]
                values |= sets[i]
            result.append(_max_reduce(values))
        return result

    return cayley_closure(
        rho.alphabet,
        (sr.one,),
        times_letters,
        cap,
        f"group step exceeded the cap of {cap} set values",
    )


def _group_step(
    g: GroupClass, rho: RatingMap, chain: Antichain, config: Config
) -> list:
    """Values contributed by the group rule for the current set S.

    The rule takes the kernel of the image monoid of mu, the map sending a
    letter a to {s rho(a) s' : s, s' in S}, and returns the union of the
    kernel members.  For mod the kernel is {1} u X^w, with X the letter
    images (`oracles.mod_kernel`), and sending a set of mu's elements to
    the union of their members is a morphism into the semiring of
    downsets, so the values are {one} u P^w, with P the maxima of the
    union of the letter sets, and `oracles.stable_monoid` takes the
    w-power over reduced setwise products: no image monoid is built, and
    `powerset2_cap` is not read.
    """
    sr = rho.semiring
    maxima = chain.snapshot()
    letter_sets = [
        _max_reduce(_products(sr, _products(sr, maxima, (img,)), maxima))
        for img in rho.letter_images
    ]
    if g.tag == "mod":
        letters = _max_reduce(v for gs in letter_sets for v in gs)
        return sorted(
            stable_monoid(sr.one, letters, lambda xs, ys: _max_reduce(_products(sr, xs, ys)))
        )
    mu = _mu_image_monoid(rho, letter_sets, cap=config.powerset2_cap)
    kernel = group_kernel(g, mu, config=config)
    values = set()
    for k in sorted(kernel):
        values.update(mu.labels[k])
    return sorted(values)


def saturate_group(g: GroupClass, rho: RatingMap, config: Config = DEFAULT) -> Saturation:
    sat = Saturation(rho.semiring, config.trace)
    changed = True
    while changed:
        changed = False
        sat.rounds += 1
        if sat.rounds == 1:
            # every letter set of the empty set is empty: the step gives {one}
            step = [rho.semiring.one]
        else:
            step = _group_step(g, rho, sat.chain, config)
        for r in step:
            if sat.insert(r, "group"):
                changed = True
        while sat.close_round(jump=True):
            changed = True
    return sat


def _opt_chain_group(g: GroupClass, rho: RatingMap, config: Config) -> Saturation:
    """Saturation extended with word values and product closure: the
    maximal elements of the optimal imprint."""
    sat = saturate_group(g, rho, config=config)
    sat.insert(rho.semiring.one, "word")
    for img in rho.letter_images:
        sat.insert(img, "word")
    while sat.close_round(jump=False):
        pass
    return sat


def _optimal(cls, rho: RatingMap, config: Config) -> Saturation:
    """The saturation whose maxima are those of the optimal imprint."""
    if isinstance(cls, FinitePrevariety):
        return saturate_finite(cls, rho, config)
    if isinstance(cls, GroupClass):
        return _opt_chain_group(cls, rho, config)
    raise InputError(f"unsupported class object {cls!r}")


def opt_finite(c: FinitePrevariety, rho: RatingMap) -> list:
    """The optimal imprint, fully materialized.  Meant for small carriers;
    decision procedures use the maximal elements instead."""
    return sorted(downset(rho.semiring, _optimal(c, rho, DEFAULT).maxima()))


def opt_group(g: GroupClass, rho: RatingMap, config: Config = DEFAULT) -> list:
    return sorted(downset(rho.semiring, _optimal(g, rho, config).maxima()))


# ---------------------------------------------------------------------------
# Covering instances


@dataclass
class CoverInstance:
    rho: RatingMap
    languages: list[RecognizedLanguage]
    # per language, its accepting set shifted to the language's bit field
    accepting_masks: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        masks = []
        for lang, offset in zip(self.languages, self.rho.semiring.offsets):
            mask = 0
            for s in lang.accepting:
                mask |= 1 << s
            masks.append(mask << offset)
        self.accepting_masks = tuple(masks)

    def is_bad(self, value: int) -> bool:
        """True when the value meets the accepting set of every language;
        such a value defeats every candidate cover."""
        for mask in self.accepting_masks:
            if not value & mask:
                return False
        return True


def reduce_cover_instance(l0, others, config: Config = DEFAULT) -> CoverInstance:
    """The product rating map of l0 and the others, under config's
    monoid_cap and powerset_cap."""
    dfas = [l0, *others]
    if not others:
        raise InputError("a covering instance needs at least one avoided language")
    languages = [syntactic_morphism(d, cap=config.monoid_cap) for d in dfas]
    maps = [rho_alpha(lang, cap=config.powerset_cap) for lang in languages]
    return CoverInstance(product_rating_map(maps), languages)


@dataclass
class CoverReport:
    answer: bool
    opt_size: int
    rounds: int
    trace: list | None

    def to_json(self) -> dict:
        doc = {"answer": self.answer, "opt_size": self.opt_size, "rounds": self.rounds}
        if self.trace is not None:
            doc["trace"] = self.trace
        return doc


def is_coverable(cls, l0, others, config: Config = DEFAULT) -> CoverReport:
    instance = reduce_cover_instance(l0, others, config)
    sat = _optimal(cls, instance.rho, config)
    maxima = sat.maxima()
    answer = not any(instance.is_bad(v) for v in maxima)
    return CoverReport(answer, len(maxima), sat.rounds, sat.trace)


def is_separable(cls, left, right, config: Config = DEFAULT) -> CoverReport:
    """Separation of the left language from the right one, reduced to
    covering: a separator exists iff ({left}, {right}) is coverable."""
    return is_coverable(cls, left, [right], config=config)
