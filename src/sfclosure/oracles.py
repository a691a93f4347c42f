"""Pair relations and kernels: the separation oracles for base classes.

For a finite prevariety given by a canonical morphism eta, s and t are a
pair when some eta-image x is reached jointly with both of them by one
walk over the product of alpha and eta.  `c_pairs` walks that product
once, O(|M| |N| |A|) for monoids M, N and alphabet A, and keeps the
reached (s, x) grouped both ways instead of listing every pair; the
orbit of an idempotent e is then e * (the s reached with some x that e
is reached with) * e.

For the group classes, the kernel of a morphism alpha collects the
elements whose fiber is inseparable from the empty word:

  * mod: the stable monoid {1} + alpha(A^d), from one walk of the powers
    of the letter set A until a power repeats.
  * amt: elements reachable with all letter counts divisible by every
    modulus at once: one walk over the image whose residues are taken
    modulo the cycle lattices of the R-classes it passes through, each
    lattice spanned by spanning-tree potential differences.
  * gr:  Ash's type-II closure, evaluated semi-naively: each round
    combines only the elements new since the last round with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .config import DEFAULT, Config
from .errors import InputError, ResourceLimitError
from .monoid import FiniteMonoid, Morphism


@dataclass(frozen=True)
class FinitePrevariety:
    """A finite base class, presented by its canonical morphism."""

    eta: Morphism


@dataclass(frozen=True)
class GroupClass:
    tag: str


MOD = GroupClass("mod")
AMT = GroupClass("amt")
GR = GroupClass("gr")

GROUP_CLASSES = {"mod": MOD, "amt": AMT, "gr": GR}


def trivial_morphism(alphabet) -> Morphism:
    one = FiniteMonoid(1, 0, ((0,),))
    return Morphism(
        alphabet=alphabet,
        codomain=one,
        letter_images=(0,) * len(alphabet),
        image=frozenset({0}),
    )


def st_class(alphabet) -> FinitePrevariety:
    return FinitePrevariety(trivial_morphism(alphabet))


@dataclass(frozen=True)
class PairSet:
    """The (s, x) reached jointly by the product walk of alpha and eta.

    `by_witness[x]` holds the elements s reached together with the
    eta-image x, and `by_element[s]` the eta-images reached with s.  Two
    elements are related when they share a witness.
    """

    by_witness: dict[int, frozenset[int]]
    by_element: dict[int, frozenset[int]]

    def related(self, s: int, t: int) -> bool:
        witnesses = self.by_element.get(s)
        others = self.by_element.get(t)
        return bool(witnesses and others) and not witnesses.isdisjoint(others)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """Every related (s, t), listed anew on each read: sum over the
        witnesses x of |by_witness[x]|^2 tuples.  Nothing in the library
        reads it; it exists only for the `oracles.pairs` counter of the
        benchmark tracer (bench/tracer.py)."""
        return frozenset(
            (s, t)
            for group in self.by_witness.values()
            for s in group
            for t in group
        )


def c_pairs(c: FinitePrevariety, alpha: Morphism) -> PairSet:
    """The pair relation of alpha inside the base class c.

    Two elements are a pair exactly when some eta-image is reached jointly
    with both of them, so one walk over the product of alpha and eta
    decides it: O(|R| |A|) steps for the reached set R, at most |M| |N|
    of the codomains M and N.  The pairs themselves, up to |M|^2 of them,
    are never listed; the result keeps R grouped by each coordinate.
    """
    eta = c.eta
    if eta.alphabet != alpha.alphabet:
        raise InputError("the class morphism must use the language's alphabet")
    m_mul, n_mul = alpha.codomain.mul, eta.codomain.mul
    letters = tuple(zip(alpha.letter_images, eta.letter_images))
    start = (alpha.codomain.identity, eta.codomain.identity)
    seen = {start}
    stack = [start]
    while stack:
        s, x = stack.pop()
        row_s, row_x = m_mul[s], n_mul[x]
        for g, h in letters:
            nxt = (row_s[g], row_x[h])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    by_witness: dict[int, set[int]] = {}
    by_element: dict[int, set[int]] = {}
    for s, x in seen:
        by_witness.setdefault(x, set()).add(s)
        by_element.setdefault(s, set()).add(x)
    return PairSet(
        {x: frozenset(group) for x, group in by_witness.items()},
        {s: frozenset(group) for s, group in by_element.items()},
    )


def c_orbit(pairs: PairSet, alpha: Morphism, e: int) -> frozenset[int]:
    """The orbit of an idempotent e: every e*t*e with (e, t) a pair.

    The t related to e are the union, over the witnesses x of e, of the
    elements reached with x; the orbit is that union multiplied by e on
    both sides, O(|M|) lookups per witness of e and two per element.
    """
    m = alpha.codomain
    if not 0 <= e < m.size or m.mul[e][e] != e:
        raise InputError(f"element {e} is not an idempotent")
    witnesses = pairs.by_element.get(e, ())
    related = set().union(*(pairs.by_witness[x] for x in witnesses))
    mul = m.mul
    return frozenset(mul[y][e] for y in set(map(mul[e].__getitem__, related)))


# ---------------------------------------------------------------------------
# mod: the stable monoid


def _stability_bound(alpha: Morphism) -> int:
    return 2 ** (min(len(alpha.image), 20) + 1)


def _stable_power(alpha: Morphism) -> tuple[int, frozenset[int]]:
    """The stability index d and alpha(A^d), from one walk of the powers.

    S_k = alpha(A^k) satisfies S_(k+1) = S_k * A, so the walk S_1, S_2, ...
    repeats for the first time at some step j with S_j = S_i, and is
    periodic with period p = j - i from step i on.  S_d = S_2d holds
    exactly when d >= i and p divides d, so d is the least multiple of p
    that is at least i.  Each step costs |S_k| |A| lookups.  The index is
    bounded by `_stability_bound`, 2^(min(|image|, 20) + 1):
    ResourceLimitError is raised when d exceeds it, and as soon as the
    walk grows longer than twice the bound, since then i or p, hence d,
    exceeds it too.
    """
    mul = alpha.codomain.mul
    letters = frozenset(alpha.letter_images)
    limit = _stability_bound(alpha)
    first: dict[frozenset[int], int] = {}
    powers: list[frozenset[int]] = []
    current = letters
    while current not in first:
        if len(powers) >= 2 * limit:
            raise ResourceLimitError("stability index search exceeded its bound")
        powers.append(current)
        first[current] = len(powers)
        current = frozenset(mul[s][g] for s in current for g in letters)
    i = first[current]
    period = len(powers) + 1 - i
    d = -(-i // period) * period
    if d > limit:
        raise ResourceLimitError("stability index search exceeded its bound")
    return d, powers[i - 1 + (d - i) % period]


def mod_stability_index(alpha: Morphism) -> int:
    """Least d >= 1 with alpha(A^d) = alpha(A^2d)."""
    return _stable_power(alpha)[0]


def mod_kernel(alpha: Morphism) -> frozenset[int]:
    """The stable monoid: the identity plus alpha(A^d) for the stability
    index d, read off the one walk of the powers of A that finds d."""
    return frozenset({alpha.codomain.identity}) | _stable_power(alpha)[1]


# ---------------------------------------------------------------------------
# amt: counting letters modulo every integer at once
#
# An element s belongs to the kernel when for every q >= 1 some word with
# all letter counts divisible by q maps to s.  Walk the right Cayley graph
# of the image.  Its strongly connected components are the R-classes
# (s*image = t*image; Froidure & Pin 1997).  Give each vertex u a potential
# pi(u), the Parikh vector of a path inside its component from the
# component's first element; the vectors pi(u) + e_a - pi(u*a) over the
# letter edges inside the component span the integer lattice of its cycles.
# A walk can be padded with closed walks covering each component it enters,
# so divisible vectors exist for every modulus exactly when some walk to s
# has its Parikh vector in the lattice L of the components it entered:
# reducing modulo q = n! for growing n kills the free part of Z^dim / L and
# then its torsion, and integer coefficients can be shifted upward by
# multiples of q into N.  The walk keys its states by element, set of
# components and residue modulo their L.  Inside a component the residue is
# the residue at entry plus a difference of potentials, so the walk ends
# without a round bound.


class IntegerLattice:
    """The integer span of a list of vectors, in Hermite row form.

    reduce() maps a vector to the canonical representative of its coset,
    so membership is reduce(v) == 0 and representatives can be used as
    dictionary keys.
    """

    def __init__(self, dim: int, vectors=()) -> None:
        self.dim = dim
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
        for v in vectors:
            self.add(v)

    def add(self, vector) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        v = list(vector)
        if len(v) != self.dim:
            raise InputError("vector dimension mismatch")
        work = [v]
        grew = False
        while work:
            v = work.pop()
            v = self._partial_reduce(v)
            col = next((i for i, c in enumerate(v) if c), None)
            if col is None:
                continue
            grew = True
            if v[col] < 0:
                v = [-c for c in v]
            slot = next(
                (k for k, (pc, _) in enumerate(self.rows) if pc == col), None
            )
            if slot is None:
                self.rows.append((col, v))
                self.rows.sort(key=lambda item: item[0])
            else:
                # same pivot column: keep the gcd row, requeue the remainder
                pc, row = self.rows[slot]
                while v[col]:
                    q = row[col] // v[col]
                    row = [a - q * b for a, b in zip(row, v)]
                    row, v = v, row
                self.rows[slot] = (col, row)
                work.append(v)
        if grew:
            self._normalize()
        return grew

    def _partial_reduce(self, v: list[int]) -> list[int]:
        for col, row in self.rows:
            if v[col]:
                q = v[col] // row[col]
                if q:
                    v = [a - q * b for a, b in zip(v, row)]
        return v

    def _normalize(self) -> None:
        # entries above each pivot reduced into [0, pivot); row k only
        # changes columns from its own pivot on, so going down the pivots
        # leaves the columns already reduced as they are
        for k in range(len(self.rows)):
            col, row = self.rows[k]
            for j in range(k):
                cj, rj = self.rows[j]
                q = rj[col] // row[col]
                if q:
                    self.rows[j] = (cj, [a - q * b for a, b in zip(rj, row)])

    def reduce(self, vector) -> tuple[int, ...]:
        v = list(vector)
        for col, row in self.rows:
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vector) -> bool:
        return all(c == 0 for c in self.reduce(vector))


def amt_kernel(
    alpha: Morphism, alphabet_cap: int = 3, monoid_cap: int = 10
) -> frozenset[int]:
    width = len(alpha.alphabet)
    if width > alphabet_cap:
        raise ResourceLimitError(
            f"alphabet of size {width} exceeds the counting cap of {alphabet_cap}"
        )
    if len(alpha.image) > monoid_cap:
        raise ResourceLimitError(
            f"image of size {len(alpha.image)} exceeds the counting cap of {monoid_cap}"
        )
    mul = alpha.codomain.mul
    image = sorted(alpha.image)
    edges = tuple(enumerate(alpha.letter_images))
    # components: the R-classes, keyed by the right ideal s * image
    classes: dict[frozenset[int], int] = {}
    component = {
        s: classes.setdefault(frozenset(map(mul[s].__getitem__, image)), len(classes))
        for s in image
    }
    # potentials: a breadth-first tree inside each component from its first
    # element; every other edge inside the component adds its cycle vector
    zero = (0,) * width
    potential: dict[int, tuple[int, ...]] = {}
    cycles = [IntegerLattice(width) for _ in classes]
    for root in image:
        if root in potential:
            continue
        potential[root] = zero
        c = component[root]
        queue = [root]
        for u in queue:
            for i, g in edges:
                v = mul[u][g]
                if component[v] != c:
                    continue
                path = list(potential[u])
                path[i] += 1
                if v in potential:
                    cycles[c].add([a - b for a, b in zip(path, potential[v])])
                else:
                    potential[v] = tuple(path)
                    queue.append(v)

    lattices: dict[int, IntegerLattice] = {}

    def lattice_for(mask: int) -> IntegerLattice:
        lat = lattices.get(mask)
        if lat is None:
            rows = [row for c, part in enumerate(cycles) if mask >> c & 1 for _, row in part.rows]
            lat = lattices[mask] = IntegerLattice(width, rows)
        return lat

    initial = (alpha.codomain.identity, 1 << component[alpha.codomain.identity], zero)
    seen = {initial}
    stack = [initial]
    while stack:
        s, mask, residue = stack.pop()
        row = mul[s]
        for i, g in edges:
            t = row[g]
            nmask = mask | 1 << component[t]
            stepped = list(residue)
            stepped[i] += 1
            state = (t, nmask, lattice_for(nmask).reduce(stepped))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return frozenset(s for s, _, residue in seen if residue == zero)


# ---------------------------------------------------------------------------
# gr: type-II saturation (Ash, "Inevitable graphs: a proof of the type II
# conjecture and some related decision procedures", IJAC 1991)


def gr_kernel(alpha: Morphism) -> frozenset[int]:
    """Least submonoid T with s*T*t and t*T*s inside T whenever s*t*s = s.

    Semi-naive evaluation in rounds: each round takes only the elements
    new since the previous one (the delta D) and
      * multiplies them on both sides with all of T, so that each product
        of two members is formed once or twice: at most 2 |T|^2 lookups;
      * for each regular s of the image, with weak inverses
        W_s = {t : s*t*s = s}, adds (s*x)*t and t*(x*s) for x in D and t
        in W_s.  These depend on x only through s*x and x*s, so a per-s
        done set expands each distinct value once: at most
        sum over s of (|s*T| + |T*s|) |W_s| lookups.
    Listing the W_s reads |image|^2 products; the result is the same
    fixpoint as re-applying every rule to all of T until nothing changes.
    """
    m = alpha.codomain
    mul = m.mul
    elems = sorted(alpha.image)
    rules = []
    for s in elems:
        row, column = mul[s], list(map(itemgetter(s), mul))
        # the t with (s*t)*s == s
        sts = map(column.__getitem__, map(row.__getitem__, elems))
        weak = list(compress(elems, map(s.__eq__, sts)))
        if weak:
            rules.append((row, itemgetter(s), weak, [mul[t] for t in weak], set(), set()))
    kernel = {m.identity}
    members = [m.identity]
    delta = members[:]
    while delta and len(kernel) < len(elems):
        delta_rows = [mul[x] for x in delta]
        fresh = set()
        for row_x in delta_rows:
            fresh.update(map(row_x.__getitem__, members))
        for y in members:
            fresh.update(map(mul[y].__getitem__, delta))
        for row_s, at_s, weak, weak_rows, left_done, right_done in rules:
            lefts = set(map(row_s.__getitem__, delta)) - left_done
            left_done |= lefts
            for y in lefts:
                fresh.update(map(mul[y].__getitem__, weak))
            rights = set(map(at_s, delta_rows)) - right_done
            right_done |= rights
            for z in rights:
                fresh.update(map(itemgetter(z), weak_rows))
        fresh -= kernel
        kernel |= fresh
        delta = list(fresh)
        members += delta
    return frozenset(kernel)


def group_kernel(
    cls: GroupClass, alpha: Morphism, config: Config = DEFAULT
) -> frozenset[int]:
    if not isinstance(cls, GroupClass):
        raise InputError(f"kernels are defined for group classes, not {cls!r}")
    if cls.tag == "mod":
        return mod_kernel(alpha)
    if cls.tag == "amt":
        return amt_kernel(
            alpha, alphabet_cap=config.amt_alphabet_cap, monoid_cap=config.amt_monoid_cap
        )
    if cls.tag == "gr":
        return gr_kernel(alpha)
    raise InputError(f"unknown group class {cls.tag!r}")
