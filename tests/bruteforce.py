"""Slow reference oracles used to cross-check the library.

Everything here recomputes answers from first principles (word enumeration
and dynamic programming over explicit words), deliberately avoiding the
algorithms under test.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from sfclosure.automata import (
    MAX_NESTING,
    Alphabet,
    Dfa,
    _dfa_empty,
    _dfa_epsilon,
    _dfa_letter,
    accepts,
    complement,
    concat,
    minimize,
    product,
    star,
)
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import (
    FiniteMonoid,
    Morphism,
    RecognizedLanguage,
    is_aperiodic,
    syntactic_morphism,
)
from sfclosure.oracles import group_kernel
from sfclosure.sd import prefix_code_violation


def words_up_to(alphabet, maxlen: int):
    """All words over the alphabet with length <= maxlen, shortest first."""
    letters = list(alphabet)
    for n in range(maxlen + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def accepted_slice(dfa: Dfa, maxlen: int) -> set[str]:
    return {w for w in words_up_to(dfa.alphabet, maxlen) if accepts(dfa, w)}


def nerode_class_count(accept, alphabet, word_depth: int, ext_depth: int) -> int:
    """Number of distinct left quotients among short words.

    `accept` is a plain membership predicate.  For small minimal automata
    this equals the state count once the depths exceed the automaton size.
    """
    exts = list(words_up_to(alphabet, ext_depth))
    signatures = set()
    for u in words_up_to(alphabet, word_depth):
        signatures.add(tuple(accept(u + e) for e in exts))
    return len(signatures)


def syntactic_class_count(accept, alphabet, word_depth: int, ctx_depth: int) -> int:
    """Number of distinct two-sided contexts among short words."""
    ctxs = [(l, r) for l in words_up_to(alphabet, ctx_depth)
            for r in words_up_to(alphabet, ctx_depth)]
    signatures = set()
    for w in words_up_to(alphabet, word_depth):
        signatures.add(tuple(accept(l + w + r) for l, r in ctxs))
    return len(signatures)


def naive_syntactic_morphism(dfa: Dfa, cap: int = 4096) -> RecognizedLanguage:
    """The syntactic morphism by composing transformation tuples: the
    closure hashes every composed generator, and the table composes and
    hashes all |M|^2 pairs of transformations."""
    dfa = minimize(dfa)
    identity = tuple(range(dfa.states))
    generators = [
        tuple(dfa.delta[q][i] for q in range(dfa.states)) for i in range(len(dfa.alphabet))
    ]
    index: dict[tuple[int, ...], int] = {identity: 0}
    order = [identity]
    queue = deque([identity])
    while queue:
        t = queue.popleft()
        for g in generators:
            composed = tuple(g[t[q]] for q in range(dfa.states))
            if composed not in index:
                if len(order) >= cap:
                    raise ResourceLimitError(
                        f"syntactic monoid exceeds the cap of {cap} elements"
                    )
                index[composed] = len(order)
                order.append(composed)
                queue.append(composed)
    size = len(order)
    mul = tuple(
        tuple(
            index[tuple(y[x[q]] for q in range(dfa.states))] for y in order
        )
        for x in order
    )
    monoid = FiniteMonoid(size, 0, mul)
    letter_images = tuple(index[g] for g in generators)
    morphism = Morphism(
        alphabet=dfa.alphabet,
        codomain=monoid,
        letter_images=letter_images,
        image=frozenset(range(size)),
        labels=tuple(order),
    )
    accepting = frozenset(
        i for i, t in enumerate(order) if t[dfa.initial] in dfa.finals
    )
    return RecognizedLanguage(morphism, accepting)


def is_group(m: FiniteMonoid) -> bool:
    """Every element has a two-sided inverse."""
    e = m.identity
    for s in range(m.size):
        if not any(
            m.mul[s][t] == e and m.mul[t][s] == e for t in range(m.size)
        ):
            return False
    return True


def schutzenberger_check(dfa: Dfa, monoid_cap: int = 4096) -> bool:
    """Star-freeness in the classical sense: the whole monoid is aperiodic."""
    lang = syntactic_morphism(dfa, cap=monoid_cap)
    return is_aperiodic(lang.morphism.codomain)


def validate_semiring(sr, elements=None) -> str | None:
    """Exhaustively check the semiring axioms; return a description of the
    first violation (axiom name plus witness) or None when all hold."""
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


def infix_memberships(kdfa: Dfa, word: str):
    """in_k[i][j] tells whether word[i:j] is in K; plus[j] whether word[:j]
    is in K+ (with plus[0] false: K+ excludes the empty word)."""
    n = len(word)
    in_k = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        state = kdfa.initial
        in_k[i][i] = state in kdfa.finals
        for j in range(i, n):
            state = kdfa.step(state, word[j])
            in_k[i][j + 1] = state in kdfa.finals
    plus = [False] * (n + 1)
    for j in range(1, n + 1):
        plus[j] = any((i == 0 or plus[i]) and in_k[i][j] for i in range(j))
    return in_k, plus


def in_kplus(kdfa: Dfa, word: str) -> bool:
    if not word:
        return accepts(kdfa, "")
    return infix_memberships(kdfa, word)[1][len(word)]


def power_reach(in_k, start: int, d: int, n: int) -> set[int]:
    """End positions reachable from `start` by exactly d factors in K."""
    cur = {start}
    for _ in range(d):
        cur = {j for i in cur for j in range(i, n + 1) if j > i and in_k[i][j]}
    return cur


def in_kpower(kdfa: Dfa, word: str, d: int) -> bool:
    in_k, _ = infix_memberships(kdfa, word)
    return len(word) in power_reach(in_k, 0, d, len(word))


def check_delay_witness(kdfa: Dfa, d: int, witness) -> bool:
    """Confirm (u, v, w) really violates the delay condition for d."""
    u, v, w = witness
    return (
        in_kplus(kdfa, u + v + w)
        and in_kpower(kdfa, v, d)
        and not in_kplus(kdfa, u + v)
    )


def search_delay_violation(kdfa: Dfa, d: int, maxlen: int = 8):
    """Exhaustive violation search over words uvw with |uvw| <= maxlen."""
    for x in words_up_to(kdfa.alphabet, maxlen):
        if not x or not in_kplus(kdfa, x):
            continue
        in_k, plus = infix_memberships(kdfa, x)
        n = len(x)
        for i in range(n + 1):
            for j in power_reach(in_k, i, d, n):
                if not plus[j]:
                    return x[:i], x[i:j], x[j:]
    return None


def naive_power(k: Dfa, d: int) -> Dfa:
    """k^d as a minimal DFA, one concatenation with k at a time, starting
    from the empty-word language."""
    result = _dfa_epsilon(k.alphabet)
    for _ in range(d):
        result = minimize(concat(result, k))
    return result


def naive_sync_delay_witness(k: Dfa, d: int):
    """The per-d delay check with everything rebuilt for each d: k+, its
    shortest prefix and suffix maps, k^d, then the (k+ x k^d) search."""
    if d < 1:
        raise InputError("synchronization delay must be at least 1")
    bad = prefix_code_violation(k)
    if bad is not None:
        raise InputError(f"not a prefix code, witness {bad!r}")
    plus = minimize(concat(k, star(k)))
    block = naive_power(k, d)
    width = len(k.alphabet)

    # shortest completion into a final state, per state of k+
    suffix: dict[int, str] = {q: "" for q in plus.finals}
    queue = deque(sorted(plus.finals))
    while queue:
        target = queue.popleft()
        for q in range(plus.states):
            for i in range(width):
                if plus.delta[q][i] == target and q not in suffix:
                    suffix[q] = k.alphabet.symbols[i] + suffix[target]
                    queue.append(q)
    # breadth-first shortest prefixes u
    prefix = {plus.initial: ""}
    order = [plus.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for i in range(width):
            nxt = plus.delta[q][i]
            if nxt not in prefix:
                prefix[nxt] = prefix[q] + k.alphabet.symbols[i]
                order.append(nxt)
                queue.append(nxt)

    for p1 in order:
        # shortest v per (state of k+, state of k^d) from (p1, start)
        start = (p1, block.initial)
        mids = {start: ""}
        frontier = deque([start])
        while frontier:
            p, b = frontier.popleft()
            if b in block.finals and p not in plus.finals and p in suffix:
                return (prefix[p1], mids[(p, b)], suffix[p])
            for i in range(width):
                nxt = (plus.delta[p][i], block.delta[b][i])
                if nxt not in mids:
                    mids[nxt] = mids[(p, b)] + k.alphabet.symbols[i]
                    frontier.append(nxt)
    return None


def naive_min_sync_delay(k: Dfa, dmax: int = 8):
    """The first d up to dmax for which the per-d check finds no witness."""
    for d in range(1, dmax + 1):
        if naive_sync_delay_witness(k, d) is None:
            return d
    return None


def search_prefix_violation(kdfa: Dfa, maxlen: int = 7):
    """A pair of slice words where one strictly prefixes the other, or the
    empty word when K contains it."""
    if accepts(kdfa, ""):
        return ""
    slice_words = sorted(accepted_slice(kdfa, maxlen), key=len)
    for u in slice_words:
        for v in slice_words:
            if len(v) > len(u) and v.startswith(u):
                return v
    return None


def ambiguous_split(left: Dfa, right: Dfa, maxlen: int = 8):
    """A word with two distinct left/right factorizations, if one exists."""
    for w in words_up_to(left.alphabet, maxlen):
        splits = [i for i in range(len(w) + 1)
                  if accepts(left, w[:i]) and accepts(right, w[i:])]
        if len(splits) > 1:
            return w
    return None


def parikh(word: str, alphabet) -> tuple[int, ...]:
    return tuple(word.count(sym) for sym in alphabet)


def images_by_length(alpha, length: int) -> list[frozenset[int]]:
    """sets[k] = images of all words of length exactly k."""
    m = alpha.codomain
    sets = [frozenset([m.identity])]
    for _ in range(length):
        prev = sets[-1]
        sets.append(frozenset(
            m.mul[s][g] for s in prev for g in alpha.letter_images
        ))
    return sets


# ---------------------------------------------------------------------------
# Class oracles as first written: the materialised pair set, the two-pass
# stable monoid and the round-based type-II fixpoint.


def naive_c_pairs(c, alpha: Morphism) -> frozenset[tuple[int, int]]:
    """Every (s, t) reached jointly with one eta-image in the product walk
    of alpha and eta, as an explicit set of pairs."""
    eta = c.eta
    if eta.alphabet != alpha.alphabet:
        raise InputError("the class morphism must use the language's alphabet")
    m, n = alpha.codomain, eta.codomain
    start = (m.identity, n.identity)
    seen = {start}
    queue = deque([start])
    while queue:
        s, x = queue.popleft()
        for g, h in zip(alpha.letter_images, eta.letter_images):
            nxt = (m.mul[s][g], n.mul[x][h])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    by_witness: dict[int, list[int]] = {}
    for s, x in seen:
        by_witness.setdefault(x, []).append(s)
    return frozenset(
        (s, t) for group in by_witness.values() for s in group for t in group
    )


def naive_c_orbit(pairs, alpha: Morphism, e: int) -> frozenset[int]:
    """All e*t*e where (e, t) is in the explicit pair set."""
    m = alpha.codomain
    if not 0 <= e < m.size or m.mul[e][e] != e:
        raise InputError(f"element {e} is not an idempotent")
    return frozenset(m.mul[m.mul[e][t]][e] for s, t in pairs if s == e)


def _set_product(m: FiniteMonoid, xs, ys) -> frozenset[int]:
    return frozenset(m.mul[x][y] for x in xs for y in ys)


def naive_mod_stability_index(alpha: Morphism, limit: int | None = None) -> int:
    """Least d >= 1 with alpha(A^d) = alpha(A^2d), squaring A^d at every d;
    ResourceLimitError once d passes `limit` (default 2^(min(|image|, 20)+1))."""
    if limit is None:
        limit = 2 ** (min(len(alpha.image), 20) + 1)
    m = alpha.codomain
    letters = frozenset(alpha.letter_images)
    current = letters
    d = 1
    while _set_product(m, current, current) != current:
        current = _set_product(m, current, letters)
        d += 1
        if d > limit:
            raise ResourceLimitError("stability index search exceeded its bound")
    return d


def naive_mod_kernel(alpha: Morphism, limit: int | None = None) -> frozenset[int]:
    """Identity plus alpha(A^d), walking the powers of A a second time."""
    m = alpha.codomain
    letters = frozenset(alpha.letter_images)
    current = letters
    for _ in range(naive_mod_stability_index(alpha, limit) - 1):
        current = _set_product(m, current, letters)
    return frozenset({m.identity}) | current


def naive_gr_kernel(alpha: Morphism) -> frozenset[int]:
    """Least submonoid T with s*T*t and t*T*s inside T whenever s*t*s = s,
    re-applying every rule to the whole of T until a round adds nothing."""
    m = alpha.codomain
    elems = sorted(alpha.image)
    weak_inverses = [
        (s, t) for s in elems for t in elems if m.mul[m.mul[s][t]][s] == s
    ]
    kernel = {m.identity}
    changed = True
    while changed:
        changed = False
        snapshot = sorted(kernel)
        for x in snapshot:
            for y in snapshot:
                p = m.mul[x][y]
                if p not in kernel:
                    kernel.add(p)
                    changed = True
        for s, t in weak_inverses:
            for x in snapshot:
                for p in (m.mul[m.mul[s][x]][t], m.mul[m.mul[t][x]][s]):
                    if p not in kernel:
                        kernel.add(p)
                        changed = True
    return frozenset(kernel)


def zero_parikh_images(alpha, q: int) -> frozenset[int]:
    """Images of words whose letter counts are all divisible by q, computed
    by a product walk over the monoid and counts modulo q."""
    m = alpha.codomain
    width = len(alpha.alphabet)
    start = (m.identity, (0,) * width)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s, residue in frontier:
            for i, g in enumerate(alpha.letter_images):
                bumped = list(residue)
                bumped[i] = (bumped[i] + 1) % q
                node = (m.mul[s][g], tuple(bumped))
                if node not in seen:
                    seen.add(node)
                    nxt.append(node)
        frontier = nxt
    zero = (0,) * width
    return frozenset(s for s, residue in seen if residue == zero)


def naive_ltl(formula, word: str, position: int) -> bool:
    """Memo-free recursive evaluation, recomputing automaton runs per query."""
    from sfclosure import ltl as l

    n = len(word)

    def infix_in(dfa, i: int, j: int) -> bool:
        lo = min(i, n)
        hi = max(lo, j - 1)
        return accepts(dfa, word[lo:hi])

    def at(node, i: int) -> bool:
        if isinstance(node, l.Top):
            return True
        if isinstance(node, l.Min):
            return i == 0
        if isinstance(node, l.Max):
            return i == n + 1
        if isinstance(node, l.LetterAt):
            return 1 <= i <= n and word[i - 1] == node.symbol
        if isinstance(node, l.Not):
            return not at(node.child, i)
        if isinstance(node, l.Or):
            return at(node.left, i) or at(node.right, i)
        if isinstance(node, l.And):
            return at(node.left, i) and at(node.right, i)
        if isinstance(node, l.Until):
            return any(
                at(node.right, j)
                and infix_in(node.bound, i, j)
                and all(at(node.left, k) for k in range(i + 1, j))
                for j in range(i + 1, n + 2)
            )
        if isinstance(node, l.Since):
            return any(
                at(node.right, j)
                and infix_in(node.bound, j, i)
                and all(at(node.left, k) for k in range(j + 1, i))
                for j in range(i)
            )
        raise TypeError(type(node).__name__)

    return at(formula, position)


# ---------------------------------------------------------------------------
# Covering: the saturations over plain tuples of bitmasks, all pairs of
# maxima every round, with setwise products read off the monoid tables.


class TupleProduct:
    """Product of the powerset semirings of some monoids, on tuples with
    one bitmask per monoid."""

    def __init__(self, monoids) -> None:
        self.monoids = tuple(monoids)
        self.one = tuple(1 << m.identity for m in self.monoids)

    @staticmethod
    def _members(mask: int) -> list[int]:
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    def mul(self, x: tuple, y: tuple) -> tuple:
        out = []
        for m, a, b in zip(self.monoids, x, y):
            mask = 0
            for i in self._members(a):
                for j in self._members(b):
                    mask |= 1 << m.mul[i][j]
            out.append(mask)
        return tuple(out)

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(a | b for a, b in zip(x, y))

    @staticmethod
    def leq(x: tuple, y: tuple) -> bool:
        return all(a | b == b for a, b in zip(x, y))

    def sf_closure_of(self, x: tuple) -> tuple:
        # the first idempotent power of x is its idempotent power x^w
        w = x
        while self.mul(w, w) != w:
            w = self.mul(w, x)
        return self.add(w, self.mul(w, x))

    def to_json(self, x: tuple) -> list:
        return [self._members(a) for a in x]


class TupleAntichain:
    def __init__(self, product: TupleProduct) -> None:
        self.product = product
        self.elems: list = []

    def covers(self, x) -> bool:
        return any(self.product.leq(x, y) for y in self.elems)

    def insert(self, x) -> bool:
        if self.covers(x):
            return False
        self.elems = [y for y in self.elems if not self.product.leq(y, x)]
        self.elems.append(x)
        return True

    def snapshot(self) -> list:
        return sorted(self.elems)


def tuple_rating(languages):
    """The product of the languages' canonical rating maps: the tuple
    semiring and the tuple image of each letter."""
    product = TupleProduct(lang.morphism.codomain for lang in languages)
    width = len(languages[0].morphism.alphabet)
    letters = [
        tuple(1 << lang.morphism.letter_images[i] for lang in languages)
        for i in range(width)
    ]
    return product, letters


def naive_saturate_finite(eta, languages):
    """Pointed saturation for a finite class with morphism eta: the maxima
    per class element, the round count and the trace."""
    product, letters = tuple_rating(languages)
    n_monoid = eta.codomain
    trace = []
    chains: dict[int, TupleAntichain] = {}

    def insert(n, r, rule) -> bool:
        chain = chains.setdefault(n, TupleAntichain(product))
        if chain.insert(r):
            trace.append({"rule": rule, "value": product.to_json(r), "class_element": n})
            return True
        return False

    insert(n_monoid.identity, product.one, "seed")
    for i, img in enumerate(letters):
        insert(eta.letter_images[i], img, "letter")
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        snapshot = [(n, r) for n in sorted(chains) for r in chains[n].snapshot()]
        for n1, r1 in snapshot:
            for n2, r2 in snapshot:
                if insert(n_monoid.mul[n1][n2], product.mul(r1, r2), "product"):
                    changed = True
        for n, r in snapshot:
            if n_monoid.mul[n][n] == n:
                if insert(n, product.sf_closure_of(r), "closure"):
                    changed = True
    maxima = {n: chain.snapshot() for n, chain in chains.items()}
    return maxima, rounds, trace


def _tuple_max_reduce(product, values) -> tuple:
    chain = TupleAntichain(product)
    for v in sorted(set(values)):
        chain.insert(v)
    return tuple(chain.snapshot())


def _naive_mu_image(product, alphabet, letter_sets, cap: int):
    """Image monoid of a -> letter_sets[a] with every product of two
    elements computed as a reduced setwise product."""
    def amul(xs, ys):
        return _tuple_max_reduce(product, (product.mul(x, y) for x in xs for y in ys))

    one = (product.one,)
    index = {one: 0}
    order = [one]
    queue = deque([one])
    while queue:
        xs = queue.popleft()
        for g in letter_sets:
            ys = amul(xs, g)
            if ys not in index:
                if len(order) >= cap:
                    raise ResourceLimitError(f"group step exceeded the cap of {cap}")
                index[ys] = len(order)
                order.append(ys)
                queue.append(ys)
    mul = tuple(tuple(index[amul(x, y)] for y in order) for x in order)
    return Morphism(
        alphabet=alphabet,
        codomain=FiniteMonoid(len(order), 0, mul),
        letter_images=tuple(index[amul(one, g)] for g in letter_sets),
        image=frozenset(range(len(order))),
        labels=tuple(order),
    )


def naive_opt_group(cls, languages, config):
    """Group saturation followed by the word values and product closure:
    the maxima of the optimal imprint, the round count and the trace."""
    product, letters = tuple_rating(languages)
    alphabet = languages[0].morphism.alphabet
    chain = TupleAntichain(product)
    trace = []

    def insert(r, rule) -> bool:
        if chain.insert(r):
            trace.append({"rule": rule, "value": product.to_json(r)})
            return True
        return False

    def close_products(jump: bool) -> bool:
        grew = False
        inner = True
        while inner:
            inner = False
            snapshot = chain.snapshot()
            for r1 in snapshot:
                for r2 in snapshot:
                    if insert(product.mul(r1, r2), "product"):
                        inner = grew = True
            if jump:
                for r in snapshot:
                    if insert(product.sf_closure_of(r), "closure"):
                        inner = grew = True
        return grew

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        maxima = chain.snapshot()
        letter_sets = [
            _tuple_max_reduce(product, [
                product.mul(product.mul(s, img), t) for s in maxima for t in maxima
            ])
            for img in letters
        ]
        mu = _naive_mu_image(product, alphabet, letter_sets, config.powerset2_cap)
        values = set()
        for k in group_kernel(cls, mu, config=config):
            values.update(mu.labels[k])
        for r in sorted(values):
            if insert(r, "group"):
                changed = True
        if close_products(jump=True):
            changed = True
    insert(product.one, "word")
    for img in letters:
        insert(img, "word")
    close_products(jump=False)
    return chain.snapshot(), rounds, trace


# ---------------------------------------------------------------------------
# Regexes: the syntax tree, its parser and its post-order compiler as they
# were before the library's parser compiled while it parsed; the property
# test requires the same DFA or the same error from both.


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Letter(Regex):
    symbol: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Intersect(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    child: Regex


@dataclass(frozen=True)
class Complement(Regex):
    child: Regex


# nesting bound of the regex parser: the most '(', '~' and '*' levels on
# one path of the syntax tree.  Each '(' costs the parser four Python
# frames and each level costs compile_regex one.
MAX_REGEX_DEPTH = MAX_NESTING


class _RegexParser:
    """Recursive descent for the grammar

        expr   := term ('+' term)*
        term   := factor ('&' factor)*
        factor := atom atom ...          (possibly zero atoms: epsilon)
        atom   := base '*'* where base := letter | '_' | '%' | '~' atom | '(' expr ')'

    '*' binds tighter than '~', which binds tighter than juxtaposition.
    Each rule returns its node and its nesting height: the most '(', '~'
    and '*' levels on one path below it, at most MAX_REGEX_DEPTH.
    """

    _ATOM_START_EXTRA = "_%~("

    def __init__(self, text: str, alphabet: Alphabet) -> None:
        self.text = text
        self.pos = 0
        self.alphabet = alphabet
        # '(' and '~' levels open around the current position
        self.depth = 0

    def fail(self, message: str):
        raise InputError(f"regex syntax error at offset {self.pos}: {message}")

    def bounded(self, height: int) -> int:
        if height > MAX_REGEX_DEPTH:
            self.fail(f"regex nested deeper than {MAX_REGEX_DEPTH} levels")
        return height

    def peek(self) -> str | None:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_atom(self) -> bool:
        self.skip_ws()
        ch = self.peek()
        if ch is None:
            return False
        return ch in self.alphabet or ch in self._ATOM_START_EXTRA

    def parse(self) -> Regex:
        node, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> tuple[Regex, int]:
        node, height = self.term()
        while True:
            self.skip_ws()
            if self.peek() == "+":
                self.take()
                right, right_height = self.term()
                node, height = Union(node, right), max(height, right_height)
            else:
                return node, height

    def term(self) -> tuple[Regex, int]:
        node, height = self.factor()
        while True:
            self.skip_ws()
            if self.peek() == "&":
                self.take()
                right, right_height = self.factor()
                node, height = Intersect(node, right), max(height, right_height)
            else:
                return node, height

    def factor(self) -> tuple[Regex, int]:
        if not self.at_atom():
            return Epsilon(), 0
        node, height = self.atom()
        while self.at_atom():
            right, right_height = self.atom()
            node, height = Concat(node, right), max(height, right_height)
        return node, height

    def atom(self) -> tuple[Regex, int]:
        self.skip_ws()
        ch = self.peek()
        if ch is None:
            self.fail("expected an atom, found end of input")
        if ch == "~":
            self.take()
            self.depth = self.bounded(self.depth + 1)
            child, height = self.atom()
            self.depth -= 1
            return Complement(child), self.bounded(height + 1)
        node: Regex
        height = 0
        if ch == "(":
            self.take()
            self.depth = self.bounded(self.depth + 1)
            node, height = self.expr()
            self.depth -= 1
            height = self.bounded(height + 1)
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.take()
        elif ch == "_":
            self.take()
            node = Epsilon()
        elif ch == "%":
            self.take()
            node = Empty()
        elif ch in self.alphabet:
            node = Letter(self.take())
        else:
            self.fail(f"unexpected {ch!r}")
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.take()
                node, height = Star(node), self.bounded(height + 1)
            else:
                return node, height


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    return _RegexParser(text, alphabet).parse()


def compile_regex(node: Regex, alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA for a parsed expression."""
    if isinstance(node, Empty):
        return _dfa_empty(alphabet)
    if isinstance(node, Epsilon):
        return minimize(_dfa_epsilon(alphabet))
    if isinstance(node, Letter):
        if node.symbol not in alphabet:
            raise InputError(f"letter {node.symbol!r} is not in the alphabet")
        return minimize(_dfa_letter(alphabet, node.symbol))
    if isinstance(node, Union):
        return minimize(
            product(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet), "union")
        )
    if isinstance(node, Intersect):
        return minimize(
            product(
                compile_regex(node.left, alphabet),
                compile_regex(node.right, alphabet),
                "intersection",
            )
        )
    if isinstance(node, Concat):
        return minimize(
            concat(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet))
        )
    if isinstance(node, Star):
        return minimize(star(compile_regex(node.child, alphabet)))
    if isinstance(node, Complement):
        return complement(compile_regex(node.child, alphabet))
    raise InputError(f"unknown regex node {node!r}")


def naive_compile_pattern(text: str, alphabet: Alphabet) -> Dfa:
    """Parse and compile in one go."""
    return compile_regex(parse_regex(text, alphabet), alphabet)
