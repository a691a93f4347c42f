"""Covering and separation for star-free closures.

Both solvers compute the optimal set of rating-map values reachable by
covers ("imprints") as a least fixpoint.  Sets of semiring values that
are closed downward are represented by their maximal elements only; this
is sound because multiplication distributes over the idempotent addition
and is therefore monotone, and the closure rule r -> r^w + r^(w+1) is
monotone as well.

Values are ints ordered by bit inclusion: powerset masks, or product
values packed one component per bit field (see semiring.py), so the
antichains compare with x | y == y and sort by plain int order.

Finite base class, with canonical morphism eta into N: the pointed
saturation is the least subset of N x R containing the letter pairs
(eta(a), rho(a)) and the identity pair, closed under componentwise
product, downward closure on R, and, for idempotent e in N, the jump
(e, r) -> (e, r^w + r^(w+1)).

Group base class: the saturation is the least downward closed subset S
of R closed under product, the jump above, and the group step: build the
map sending a letter to {s rho(a) s' : s, s' in S}, take the kernel of
its image monoid (built by monoid.cayley_closure, like every generated
monoid) for the base class, and pour the union of the kernel members
back into S.  The optimal imprint additionally absorbs the
values rho(w) of single words and closes under product again.

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
from .monoid import Morphism, RecognizedLanguage, cayley_closure, syntactic_morphism
from .oracles import FinitePrevariety, GroupClass, group_kernel
from .semiring import RatingMap, downset, product_rating_map, rho_alpha, sf_closure_of


class Antichain:
    """Maximal elements of a downward closed set of bitmask values."""

    def __init__(self) -> None:
        self.elems: list = []

    def covers(self, x) -> bool:
        for y in self.elems:
            if x | y == y:
                return True
        return False

    def insert(self, x) -> bool:
        """Add x; returns True when the represented set grows."""
        for y in self.elems:
            if x | y == y:
                return False
        self.elems = [y for y in self.elems if x | y != x]
        self.elems.append(x)
        return True

    def snapshot(self) -> list:
        return sorted(self.elems)

    def __len__(self) -> int:
        return len(self.elems)


def _trace_add(trace, rule, value, sr, n=None):
    if trace is not None:
        entry = {"rule": rule, "value": sr.element_to_json(value)}
        if n is not None:
            entry["class_element"] = n
        trace.append(entry)


def _split_fresh(snapshot: list, seen: set) -> tuple[list, list]:
    """Flags marking the snapshot items absent from `seen`, and those
    items in snapshot order; `seen` then takes them in."""
    flags = [item not in seen for item in snapshot]
    fresh = [item for item, new in zip(snapshot, flags) if new]
    seen.update(fresh)
    return flags, fresh


@dataclass
class FiniteSaturation:
    rho: RatingMap
    eta: Morphism
    chains: dict[int, Antichain]
    rounds: int
    trace: list | None

    def contains(self, n: int, r) -> bool:
        chain = self.chains.get(n)
        return chain is not None and chain.covers(r)

    def projection_max(self) -> list:
        merged = Antichain()
        for n in sorted(self.chains):
            for r in self.chains[n].snapshot():
                merged.insert(r)
        return merged.snapshot()


def saturate_finite(
    c: FinitePrevariety, rho: RatingMap, want_trace: bool = False
) -> FiniteSaturation:
    eta = c.eta
    if eta.alphabet != rho.alphabet:
        raise InputError("the class morphism must use the rating map's alphabet")
    sr = rho.semiring
    mul = sr.mul
    n_monoid = eta.codomain
    trace = [] if want_trace else None
    chains: dict[int, Antichain] = {}

    def insert(n: int, r, rule: str) -> bool:
        chain = chains.get(n)
        if chain is None:
            chain = chains[n] = Antichain()
        if chain.insert(r):
            _trace_add(trace, rule, r, sr, n=n)
            return True
        return False

    insert(n_monoid.identity, sr.one, "seed")
    for i in range(len(rho.alphabet)):
        insert(eta.letter_images[i], rho.letter_images[i], "letter")

    idem = {e for e in range(n_monoid.size) if n_monoid.mul[e][e] == e}
    # (n, r) maxima of earlier snapshots: their products and jumps are in
    # the chains already
    seen: set[tuple[int, int]] = set()
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        snapshot = [
            (n, r) for n in sorted(chains) for r in chains[n].snapshot()
        ]
        flags, fresh = _split_fresh(snapshot, seen)
        for (n1, r1), new in zip(snapshot, flags):
            row = n_monoid.mul[n1]
            for n2, r2 in snapshot if new else fresh:
                if insert(row[n2], mul(r1, r2), "product"):
                    changed = True
        for n, r in fresh:
            if n in idem:
                if insert(n, sf_closure_of(sr, r), "closure"):
                    changed = True
    return FiniteSaturation(rho, eta, chains, rounds, trace)


def opt_finite(c: FinitePrevariety, rho: RatingMap) -> list:
    """The optimal imprint, fully materialized.  Meant for small carriers;
    decision procedures use the maximal elements instead."""
    sat = saturate_finite(c, rho)
    return sorted(downset(rho.semiring, sat.projection_max()))


@dataclass
class GroupSaturation:
    rho: RatingMap
    chain: Antichain
    rounds: int
    trace: list | None
    # maxima of earlier snapshots, whose products and jumps are in the chain
    seen: set = field(default_factory=set, repr=False)

    def contains(self, r) -> bool:
        return self.chain.covers(r)


def _close_products(chain: Antichain, insert, sr, seen: set, jump: bool) -> bool:
    """Close the chain under product, and under the jump when `jump` is
    set, semi-naively; returns True when the chain grew."""
    mul = sr.mul
    grew = False
    inner = True
    while inner:
        inner = False
        snapshot = chain.snapshot()
        flags, fresh = _split_fresh(snapshot, seen)
        for r1, new in zip(snapshot, flags):
            for r2 in snapshot if new else fresh:
                if insert(mul(r1, r2), "product"):
                    inner = grew = True
        if jump:
            for r in fresh:
                if insert(sf_closure_of(sr, r), "closure"):
                    inner = grew = True
    return grew


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
    mul = rho.semiring.mul
    # value -> its products with the members of each letter set
    right_products: dict[int, list[set]] = {}

    def times_letter(xs: tuple, i: int) -> tuple:
        values = set()
        for v in xs:
            rows = right_products.get(v)
            if rows is None:
                rows = right_products[v] = [{mul(v, g) for g in gs} for gs in letter_sets]
            values |= rows[i]
        return _max_reduce(values)

    return cayley_closure(
        rho.alphabet,
        (rho.semiring.one,),
        times_letter,
        cap,
        f"group step exceeded the cap of {cap} set values",
    )


def _group_step(
    g: GroupClass, rho: RatingMap, chain: Antichain, config: Config
) -> list:
    """Values contributed by the group rule for the current set."""
    mul = rho.semiring.mul
    maxima = chain.snapshot()
    letter_sets = []
    for img in rho.letter_images:
        lefts = [mul(s, img) for s in maxima]
        letter_sets.append(_max_reduce(mul(s, t) for s in lefts for t in maxima))
    mu = _mu_image_monoid(rho, letter_sets, cap=config.powerset2_cap)
    kernel = group_kernel(g, mu, config=config)
    values = set()
    for k in sorted(kernel):
        values.update(mu.labels[k])
    return sorted(values)


def saturate_group(
    g: GroupClass, rho: RatingMap, config: Config = DEFAULT, want_trace: bool = False
) -> GroupSaturation:
    sr = rho.semiring
    sat = GroupSaturation(rho, Antichain(), 0, [] if want_trace else None)

    def insert(r, rule: str) -> bool:
        if sat.chain.insert(r):
            _trace_add(sat.trace, rule, r, sr)
            return True
        return False

    changed = True
    while changed:
        changed = False
        sat.rounds += 1
        for r in _group_step(g, rho, sat.chain, config):
            if insert(r, "group"):
                changed = True
        if _close_products(sat.chain, insert, sr, sat.seen, jump=True):
            changed = True
    return sat


def _opt_chain_group(
    g: GroupClass, rho: RatingMap, config: Config, want_trace: bool = False
) -> GroupSaturation:
    """Saturation extended with word values and product closure: the
    maximal elements of the optimal imprint."""
    sat = saturate_group(g, rho, config=config, want_trace=want_trace)
    sr = rho.semiring

    def insert(r, rule: str) -> bool:
        if sat.chain.insert(r):
            _trace_add(sat.trace, rule, r, sr)
            return True
        return False

    insert(sr.one, "word")
    for img in rho.letter_images:
        insert(img, "word")
    _close_products(sat.chain, insert, sr, sat.seen, jump=False)
    return sat


def opt_group(g: GroupClass, rho: RatingMap, config: Config = DEFAULT) -> list:
    sat = _opt_chain_group(g, rho, config)
    return sorted(downset(rho.semiring, sat.chain.snapshot()))


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


def reduce_cover_instance(
    l0, others, monoid_cap: int = 4096, powerset_cap: int = 16
) -> CoverInstance:
    dfas = [l0, *others]
    if not others:
        raise InputError("a covering instance needs at least one avoided language")
    languages = [syntactic_morphism(d, cap=monoid_cap) for d in dfas]
    maps = [rho_alpha(lang, cap=powerset_cap) for lang in languages]
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
    instance = reduce_cover_instance(
        l0, others, monoid_cap=config.monoid_cap, powerset_cap=config.powerset_cap
    )
    if isinstance(cls, FinitePrevariety):
        sat = saturate_finite(cls, instance.rho, want_trace=config.trace)
        maxima = sat.projection_max()
        rounds = sat.rounds
        trace = sat.trace
    elif isinstance(cls, GroupClass):
        sat = _opt_chain_group(cls, instance.rho, config, want_trace=config.trace)
        maxima = sat.chain.snapshot()
        rounds = sat.rounds
        trace = sat.trace
    else:
        raise InputError(f"unsupported class object {cls!r}")
    answer = not any(instance.is_bad(v) for v in maxima)
    return CoverReport(answer, len(maxima), rounds, trace)


def is_separable(cls, left, right, config: Config = DEFAULT) -> CoverReport:
    """Separation of the left language from the right one, reduced to
    covering: a separator exists iff ({left}, {right}) is coverable."""
    return is_coverable(cls, left, [right], config=config)
