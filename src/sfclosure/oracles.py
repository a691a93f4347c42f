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

  * mod: the stable monoid {1} + alpha(A)^w, from one bounded walk of
    the powers of the letter set until one repeats (`stable_monoid`, the
    walk covering's mod group step takes too).
  * amt: elements reachable with all letter counts divisible by every
    modulus at once: one walk over the image whose residues are taken
    modulo the cycle lattices of the R-classes it passes through, each
    lattice spanned by spanning-tree potential differences.
  * gr:  Ash's type-II closure, the least submonoid T with s*T*t and
    t*T*s inside T for every weak pair s*t*s = s.  Every idempotent e is
    in T, because (e, e) is a weak pair and e*1*e = e, so T is seeded
    with the submonoid the idempotents generate.  A weak pair with s and
    t both in T already holds, because T is closed under products, so
    only the pairs that touch image - T are checked; what a failed check
    forces is added until nothing is.  Two checks give the same forced
    set.  Up to |T| = 104 (`_SMALL_KERNEL`) `_ideal_products` multiplies
    each ideal s*T and T*s by the partners of the s that share it.  Above
    it `_forced` tests each ideal by one bit-parallel inclusion in a
    bitmask of the elements whose products with every partner stay in T,
    instead of forming |ideal| |partners| products; its masks and
    Tarjan passes cost more than that saves on small kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from operator import and_, eq, getitem, itemgetter

from .automata import explore
from .config import DEFAULT, Config
from .errors import InputError, ResourceLimitError
from .monoid import FiniteMonoid, Morphism, gather, omega_power


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

    def successors(pair):
        row_s, row_x = m_mul[pair[0]], n_mul[pair[1]]
        return [(row_s[g], row_x[h]) for g, h in letters]

    reached, _ = explore((alpha.codomain.identity, eta.codomain.identity), successors)
    by_witness: dict[int, set[int]] = {}
    by_element: dict[int, set[int]] = {}
    for s, x in reached:
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
    left = set(gather(related)(mul[e]))
    return frozenset(map(itemgetter(e), map(mul.__getitem__, left)))


# ---------------------------------------------------------------------------
# mod: the stable monoid


# the most products one walk of `stable_monoid` takes
_POWER_WALK_LIMIT = 2 * 2**21


def stable_monoid(one, letters, times) -> frozenset:
    """{one} + letters^w: the identity and the idempotent power of the
    letter set under the associative setwise product `times`.

    `monoid.omega_power` walks the powers letters, letters^2, ... until one
    repeats, taking one product per power.  ResourceLimitError is raised
    once it takes more than `_POWER_WALK_LIMIT` products, that is, when
    more than that many distinct powers come before the first repeat.
    """
    taken = 0

    def counted(xs, ys):
        nonlocal taken
        taken += 1
        if taken > _POWER_WALK_LIMIT:
            raise ResourceLimitError("power walk exceeded its bound")
        return times(xs, ys)

    return frozenset({one}).union(omega_power(letters, counted))


def mod_kernel(alpha: Morphism) -> frozenset[int]:
    """The stable monoid {1} + alpha(A)^w, over the table's setwise
    product: each power costs |alpha(A^k)| |A| lookups."""
    mul = alpha.codomain.mul
    return stable_monoid(
        alpha.codomain.identity,
        frozenset(alpha.letter_images),
        lambda xs, ys: frozenset(mul[s][g] for s in xs for g in ys),
    )


# ---------------------------------------------------------------------------
# amt: counting letters modulo every integer at once
#
# An element s belongs to the kernel when for every q >= 1 some word with
# all letter counts divisible by q maps to s.  Walk the right Cayley graph
# of the image.  Its strongly connected components, from one Tarjan pass
# over the letter edges, are the R-classes (s*image = t*image; Froidure &
# Pin 1997).  Give each vertex u a potential
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
            v = list(self.reduce(work.pop()))
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


def _components(nodes, successors) -> dict[int, int]:
    """The strongly connected components of the graph on `nodes` whose
    edges run from v to each of `successors(v)`: node -> component number,
    numbered 0, 1, ... in the order they close (Tarjan 1972, with an
    explicit stack instead of recursion)."""
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    component: dict[int, int] = {}
    stack: list[int] = []
    count = 0
    for root in nodes:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    work.append((w, iter(successors(w))))
                    break
                # a reached node without a component is still on the stack
                if w not in component and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        component[w] = count
                        if w == v:
                            break
                    count += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return component


def amt_kernel(
    alpha: Morphism, alphabet_cap: int | None = None, monoid_cap: int | None = None
) -> frozenset[int]:
    """The amt kernel; the caps default to DEFAULT's amt_alphabet_cap
    and amt_monoid_cap."""
    if alphabet_cap is None:
        alphabet_cap = DEFAULT.amt_alphabet_cap
    if monoid_cap is None:
        monoid_cap = DEFAULT.amt_monoid_cap
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
    component = _components(image, lambda s: map(mul[s].__getitem__, alpha.letter_images))
    # potentials: a breadth-first tree inside each component from its first
    # element; every other edge inside the component adds its cycle vector
    zero = (0,) * width
    potential: dict[int, tuple[int, ...]] = {}
    cycles = [IntegerLattice(width) for _ in range(max(component.values()) + 1)]
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

    def successors(state):
        s, mask, residue = state
        for i, g in edges:
            t = mul[s][g]
            nmask = mask | 1 << component[t]
            stepped = list(residue)
            stepped[i] += 1
            yield (t, nmask, lattice_for(nmask).reduce(stepped))

    initial = (alpha.codomain.identity, 1 << component[alpha.codomain.identity], zero)
    reached, _ = explore(initial, successors)
    return frozenset(s for s, _, residue in reached if residue == zero)


# ---------------------------------------------------------------------------
# gr: type-II saturation (Ash, "Inevitable graphs: a proof of the type II
# conjecture and some related decision procedures", IJAC 1991)


# The largest kernel checked by `_ideal_products`; larger ones take
# `_forced`.  Timed on the same inputs, the check calls of one pass of
# membership-ladder and cover-saturation at seed 1 plus T_4 and T_5 (2 vCPUs,
# Python 3.11), _ideal_products / _forced read 0.45 for |T| <= 64, 0.75-0.9
# for 65-104, 1.1-1.2 for 105-128, 2.0 on T_4 (|T| = 233) and 6.4 on T_5
# (|T| = 3,006).
_SMALL_KERNEL = 104


def _extend(mul, kernel: set, members: list, gens: list, new: list) -> None:
    """Add the generators `new` to the submonoid `kernel`, listed in
    `members` and closed under right products with `gens`: every member
    times a new generator, then every new member times every generator,
    until nothing new appears."""
    fresh = set()
    for g in new:
        fresh.update(map(itemgetter(g), map(mul.__getitem__, members)))
    gens += new
    fresh -= kernel
    while fresh:
        kernel |= fresh
        delta = list(fresh)
        members += delta
        fresh = set()
        for x in delta:
            fresh.update(map(mul[x].__getitem__, gens))
        fresh -= kernel


def _weak_pairs(mul, image, members, inside: str, idempotent: tuple) -> dict[int, list[int]]:
    """s -> the t of the image with s*t*s = s, for the pairs with s or t
    outside the kernel.  `inside` holds "1" at the members, `idempotent`
    is True at the idempotents.  s*t*s = s makes s*t and t*s idempotents,
    so each row is screened for them first, by two gathers: row s over
    the image for s outside, row t over the members for t outside."""
    weak: dict[int, list[int]] = {}
    at_image = gather(image)
    at_members = gather(members)
    for x in image:
        if inside[x] == "1":
            continue
        row = mul[x]
        screen = gather(at_image(row))(idempotent)
        found = [t for t in compress(image, screen) if mul[row[t]][x] == x]
        if found:
            weak[x] = found
        for s in compress(members, gather(at_members(row))(idempotent)):
            if mul[s][row[s]] == s:
                weak.setdefault(s, []).append(x)
    return weak


def _forced(mul, members, gens, inside: str, weak) -> set[int]:
    """The s*x*t and t*x*s, for x in the kernel T and t listed under s,
    that a failed check finds outside T (empty when every check passes):
    the check of `gr_kernel` for kernels above `_SMALL_KERNEL`.

    s*T*t lies in T for every listed t exactly when s*T lies in the AND of
    the right masks {y : y*t in T}, and t*T*s exactly when T*s lies in the
    AND of the left masks {y : t*y in T}.  A mask is read from one column
    or row of the table as a binary numeral whose y-th digit stands for
    element y; the digits of elements outside the image are never read.
    Masks and ideals are read by C-level gathers.  Members of T in one
    component of T's right Cayley graph over `gens` share s*T, and those
    in one component of the left graph share T*s, so each component is
    checked once, against the AND over all its t.  One inclusion per
    component replaces |ideal| |partners| products, which pays for the
    masks and the two Tarjan passes only on large kernels such as T_4's
    and T_5's.
    """
    width = f"0{len(inside)}b"
    listed = {t for found in weak.values() for t in found}
    right = {t: int("".join(gather(map(itemgetter(t), mul))(inside)), 2) for t in listed}
    left = {t: int("".join(gather(mul[t])(inside)), 2) for t in listed}
    at_gens = gather(gens)
    gen_rows = [mul[g] for g in gens]
    right_class = _components(members, lambda x: at_gens(mul[x]))
    left_class = _components(members, lambda x: map(itemgetter(x), gen_rows))
    by_right: dict[int, list[int]] = {}
    by_left: dict[int, list[int]] = {}
    for s in weak:
        if inside[s] == "1":
            by_right.setdefault(right_class[s], []).append(s)
            by_left.setdefault(left_class[s], []).append(s)
        else:
            by_right[-1 - s] = by_left[-1 - s] = [s]
    forced = set()
    at_members = gather(members)
    member_rows = [mul[x] for x in members]
    for group in by_right.values():
        mask = format(reduce(and_, [right[t] for s in group for t in weak[s]]), width)
        ideal = set(at_members(mul[group[0]]))
        for y in compress(ideal, map("0".__eq__, gather(ideal)(mask))):
            for s in group:
                forced.update(gather(weak[s])(mul[y]))
    for group in by_left.values():
        mask = format(reduce(and_, [left[t] for s in group for t in weak[s]]), width)
        ideal = set(map(itemgetter(group[0]), member_rows))
        for y in compress(ideal, map("0".__eq__, gather(ideal)(mask))):
            for s in group:
                forced.update(mul[t][y] for t in weak[s])
    return forced


def _ideal_products(mul, members, weak) -> set[int]:
    """The s*x*t and t*x*s, for x in the kernel T and t listed under s:
    every check passes when all of them lie in T.  The check of
    `gr_kernel` for kernels up to `_SMALL_KERNEL`; minus T it is the set
    `_forced` returns minus T.

    The listed s are grouped by their right ideal s*T and, separately, by
    their left ideal T*s, each group with the union W of its partners t.
    A group forms ideal*W (or W*ideal) once for all its s, which is exact:
    the s of a group share s*T, so the union over the group of (s*T)*W_s
    is (s*T)*W.  Each product set is read by C-level gathers, W off the
    row of each y of the ideal on the right, the ideal off the row of
    each t of W on the left.  Nothing is set up beyond the ideals, so on
    small kernels this beats the masks and Tarjan passes of `_forced`.
    """
    at_members = gather(members)
    columns = list(zip(*map(mul.__getitem__, members)))
    by_right: dict[frozenset, set[int]] = {}
    by_left: dict[frozenset, set[int]] = {}
    for s, found in weak.items():
        by_right.setdefault(frozenset(at_members(mul[s])), set()).update(found)
        by_left.setdefault(frozenset(columns[s]), set()).update(found)
    rows = mul.__getitem__
    forced = set()
    for ideal, partners in by_right.items():
        forced.update(chain.from_iterable(map(gather(partners), map(rows, ideal))))
    for ideal, partners in by_left.items():
        forced.update(chain.from_iterable(map(gather(ideal), map(rows, partners))))
    return forced


def gr_kernel(alpha: Morphism) -> frozenset[int]:
    """Least submonoid T with s*T*t and t*T*s inside T whenever s*t*s = s.

    Seed, check, repair:
      * every idempotent e is in T, since (e, e) is a weak pair and
        e*1*e = e, so T starts as the submonoid that the idempotents of
        the image generate (each one a generator only when the ones
        before it do not generate it already);
      * a weak pair with s and t both in T needs no check, because T is
        closed under products, so only the pairs that touch image - T are
        listed: 2 |image| |image - T| products;
      * the listed pairs are checked by products of ideals
        (`_ideal_products`) while |T| is at most `_SMALL_KERNEL`, by
        bitmask inclusions (`_forced`) above it; what a failed check
        forces is added, T is closed again, and the check repeats until
        nothing is forced.
    Every element added lies in the least fixpoint, and the last check
    shows that T is a fixpoint, so T is the least one.
    """
    m = alpha.codomain
    mul = m.mul
    image = sorted(alpha.image)
    every = range(m.size)
    idempotent = tuple(map(eq, map(getitem, mul, every), every))
    kernel, members, gens = {m.identity}, [m.identity], []
    for e in image:
        if idempotent[e] and e not in kernel:
            _extend(mul, kernel, members, gens, [e])
    weak = None
    while len(kernel) < len(image):
        flags = ["0"] * m.size
        for x in members:
            flags[x] = "1"
        inside = "".join(flags)
        if weak is None:
            weak = _weak_pairs(mul, image, members, inside, idempotent)
        else:
            # s now in T keeps only the t still outside
            listed = {}
            for s, found in weak.items():
                if inside[s] == "1":
                    found = [t for t in found if inside[t] == "0"]
                if found:
                    listed[s] = found
            weak = listed
        if len(kernel) <= _SMALL_KERNEL:
            forced = _ideal_products(mul, members, weak) - kernel
        else:
            forced = _forced(mul, members, gens, inside, weak) - kernel
        if not forced:
            break
        _extend(mul, kernel, members, gens, sorted(forced))
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
