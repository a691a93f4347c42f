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
    modulus at once, via Parikh decompositions and integer lattices.
  * gr:  Ash's type-II closure, evaluated semi-naively: each round
    combines only the elements new since the last round with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

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

_GROUP_CLASSES = {"mod": MOD, "amt": AMT, "gr": GR}


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
# of the image submonoid: the Parikh vectors of the walks from the
# identity to s form a finite union of linear sets, one per set Q of
# visited vertices, with base walks of length at most |Q|^2 and periods
# the simple cycles inside Q.  For a linear set b + N-span(P), divisible
# vectors exist for every modulus exactly when b lies in the integer span
# of P: reducing modulo q = n! for growing n kills the free part of
# Z^dim / span(P) and then its torsion, and conversely integer
# coefficients can be shifted upward by multiples of q into N.  So s is in
# the kernel iff some walk of length at most |image|^2 reaches s with a
# Parikh vector inside the lattice of the cycles it could have grafted.


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
        # entries above each pivot reduced into [0, pivot)
        for k in range(len(self.rows) - 1, -1, -1):
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


def _image_cayley(alpha: Morphism):
    """Vertices (sorted image elements) and letter-indexed successor rows."""
    m = alpha.codomain
    vertices = sorted(alpha.image)
    pos = {s: k for k, s in enumerate(vertices)}
    succ = [
        [pos[m.mul[s][g]] for g in alpha.letter_images] for s in vertices
    ]
    return vertices, pos, succ


def _simple_cycles(succ, width: int):
    """Parikh vector and vertex set of every simple cycle in the graph."""
    size = len(succ)
    cycles: list[tuple[int, tuple[int, ...]]] = []  # (vertex mask, parikh)
    for root in range(size):
        # cycles whose least vertex is the root: DFS through larger vertices
        stack = [(root, 1 << root, (0,) * width)]
        while stack:
            v, mask, parikh = stack.pop()
            for i in range(width):
                nxt = succ[v][i]
                counted = list(parikh)
                counted[i] += 1
                if nxt == root:
                    cycles.append((mask, tuple(counted)))
                elif nxt > root and not (mask >> nxt) & 1:
                    stack.append((nxt, mask | (1 << nxt), tuple(counted)))
    return cycles


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
    vertices, pos, succ = _image_cayley(alpha)
    cycles = _simple_cycles(succ, width)

    lattices: dict[int, IntegerLattice] = {}

    def lattice_for(mask: int) -> IntegerLattice:
        lat = lattices.get(mask)
        if lat is None:
            lat = IntegerLattice(
                width,
                (parikh for cmask, parikh in cycles if cmask & ~mask == 0),
            )
            lattices[mask] = lat
        return lat

    m = alpha.codomain
    start = pos[m.identity]
    zero = (0,) * width
    initial = (start, 1 << start, lattice_for(1 << start).reduce(zero))
    seen = {initial}
    frontier = [initial]
    hits = {start}
    for _ in range(len(vertices) ** 2):
        if not frontier:
            break
        fresh = []
        for v, mask, residue in frontier:
            for i in range(width):
                nxt = succ[v][i]
                nmask = mask | (1 << nxt)
                stepped = list(residue)
                stepped[i] += 1
                state = (nxt, nmask, lattice_for(nmask).reduce(stepped))
                if state not in seen:
                    seen.add(state)
                    fresh.append(state)
                    if state[2] == zero:
                        hits.add(nxt)
        frontier = fresh
    return frozenset(vertices[v] for v in hits)


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


def group_kernel(cls: GroupClass, alpha: Morphism, config=None) -> frozenset[int]:
    if not isinstance(cls, GroupClass):
        raise InputError(f"kernels are defined for group classes, not {cls!r}")
    if cls.tag == "mod":
        return mod_kernel(alpha)
    if cls.tag == "amt":
        if config is not None:
            return amt_kernel(
                alpha,
                alphabet_cap=config.amt_alphabet_cap,
                monoid_cap=config.amt_monoid_cap,
            )
        return amt_kernel(alpha)
    if cls.tag == "gr":
        return gr_kernel(alpha)
    raise InputError(f"unknown group class {cls.tag!r}")
