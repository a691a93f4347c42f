"""Slow reference oracles used to cross-check the library.

Everything here recomputes answers from first principles (word enumeration
and dynamic programming over explicit words), deliberately avoiding the
algorithms under test.  The few helpers that only tests call (DFA JSON
reading, emptiness, witness rechecks) live here too, not in the library.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, or_

from sfclosure.automata import (
    MAX_NESTING,
    Alphabet,
    Dfa,
    _canonical,
    _dfa_empty,
    _Scanner,
    accepts,
    compile_pattern,
    complement,
    concat,
    minimize,
    product,
    shortest_word,
    star,
)
from sfclosure.covering import _max_reduce, _mu_image_monoid
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.membership import MembershipVerdict
from sfclosure.monoid import (
    FiniteMonoid,
    Morphism,
    RecognizedLanguage,
    idempotent_power,
    syntactic_morphism,
)
from sfclosure.oracles import (
    IntegerLattice,
    PairSet,
    group_kernel,
    mod_kernel,
)
from sfclosure.ltl import eval_at
from sfclosure.sd import (
    SdViolation,
    _delay_witness,
    _require_prefix_code,
    ambiguity_witness,
    disjointness_witness,
    prefix_code_violation,
)


def words_up_to(alphabet, maxlen: int):
    """All words over the alphabet with length <= maxlen, shortest first."""
    letters = list(alphabet)
    for n in range(maxlen + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def accepted_slice(dfa: Dfa, maxlen: int) -> set[str]:
    return {w for w in words_up_to(dfa.alphabet, maxlen) if accepts(dfa, w)}


def is_empty(dfa: Dfa) -> bool:
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        if q in dfa.finals:
            return False
        for target in dfa.delta[q]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return True


def dfa_from_json(data: dict) -> Dfa:
    if not isinstance(data, dict):
        raise InputError("DFA document must be a JSON object")
    try:
        alphabet = Alphabet(tuple(data["alphabet"]))
        states = int(data["states"])
        initial = int(data["initial"])
        finals = frozenset(int(q) for q in data["finals"])
        delta = tuple(tuple(int(t) for t in row) for row in data["delta"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed DFA document: {exc}") from exc
    return Dfa(alphabet, states, initial, finals, delta)


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


def naive_validate_monoid(m: FiniteMonoid) -> None:
    """Raise InputError on the first broken identity or associativity law,
    checking (x*y)*z = x*(y*z) one triple at a time."""
    e = m.identity
    for s in range(m.size):
        if m.mul[e][s] != s or m.mul[s][e] != s:
            raise InputError(f"element {e} is not an identity at {s}")
    for x in range(m.size):
        for y in range(m.size):
            xy = m.mul[x][y]
            for z in range(m.size):
                if m.mul[xy][z] != m.mul[x][m.mul[y][z]]:
                    raise InputError(f"associativity fails at ({x}, {y}, {z})")


def recheck_witness(verdict: MembershipVerdict, lang: RecognizedLanguage) -> bool:
    """Confirm that a negative verdict's witness really breaks aperiodicity
    inside the reported kernel or orbit."""
    if verdict.answer:
        return verdict.witness is None
    s = verdict.witness
    if s is None:
        return False
    m = lang.morphism.codomain
    if "kernel" in verdict.detail:
        if s not in verdict.detail["kernel"]:
            return False
    elif not any(s in orbit for orbit in verdict.detail["orbits"].values()):
        return False
    w = idempotent_power(m, s)
    return m.mul[w][s] != w


def is_aperiodic(m: FiniteMonoid, subset=None) -> bool:
    """True when s^(w+1) = s^w for every s in the subset (default: all).

    The subset must be closed under multiplication, otherwise the question
    is not well posed and we raise InputError.
    """
    if subset is None:
        elems = range(m.size)
    else:
        elems = sorted(set(subset))
        for s in elems:
            if not 0 <= s < m.size:
                raise InputError(f"subset element {s} out of range")
        member = set(elems)
        for s in elems:
            for t in elems:
                if m.mul[s][t] not in member:
                    raise InputError(
                        f"subset is not closed under multiplication: {s}*{t} escapes"
                    )
    for s in elems:
        w = idempotent_power(m, s)
        if m.mul[w][s] != w:
            return False
    return True


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


def validate_semiring(sr, elements=None, add=or_) -> str | None:
    """Exhaustively check the semiring axioms; return a description of the
    first violation (axiom name plus witness) or None when all hold.  The
    elements default to every packed value of a ProductSemiring, and the
    addition to their union."""
    elems = list(range(1 << sr.width) if elements is None else elements)
    for x in elems:
        if add(x, x) != x:
            return f"addition idempotence fails at ({x}, {x})"
    for x in elems:
        if add(sr.zero, x) != x or add(x, sr.zero) != x:
            return f"zero is not neutral for addition at {x}"
        if sr.mul(sr.one, x) != x or sr.mul(x, sr.one) != x:
            return f"one is not neutral for multiplication at {x}"
        if sr.mul(sr.zero, x) != sr.zero or sr.mul(x, sr.zero) != sr.zero:
            return f"zero is not absorbing at {x}"
    for x in elems:
        for y in elems:
            if add(x, y) != add(y, x):
                return f"addition commutativity fails at ({x}, {y})"
    for x in elems:
        for y in elems:
            for z in elems:
                if add(add(x, y), z) != add(x, add(y, z)):
                    return f"addition associativity fails at ({x}, {y}, {z})"
                if sr.mul(sr.mul(x, y), z) != sr.mul(x, sr.mul(y, z)):
                    return f"multiplication associativity fails at ({x}, {y}, {z})"
                if sr.mul(x, add(y, z)) != add(sr.mul(x, y), sr.mul(x, z)):
                    return f"left distributivity fails at ({x}, {y}, {z})"
                if sr.mul(add(x, y), z) != add(sr.mul(x, z), sr.mul(y, z)):
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


def has_sync_delay(k: Dfa, d: int, maxlen: int = 8) -> bool:
    """No word of length at most maxlen violates delay d, by the
    exhaustive search rather than the library's factor walk."""
    return search_delay_violation(k, d, maxlen) is None


def is_unambiguous_concat(k: Dfa, l: Dfa, maxlen: int = 8) -> bool:
    """No word of length at most maxlen splits two ways, by the
    exhaustive search rather than the library's ambiguity witness."""
    return ambiguous_split(k, l, maxlen) is None


# ---------------------------------------------------------------------------
# Prefix codes as first written, each with its own search: the prefix-code
# check through a product automaton, k+ by concatenation and star with an
# edge scan per suffix, the ambiguity search with its own parent pointers,
# and the per-d delay check that builds k^d.


def naive_prefix_code_violation(k: Dfa) -> str | None:
    """The empty word if k holds it, else the shortest word of k ∩ k·A+,
    from the product automaton."""
    if accepts(k, ""):
        return ""
    width = len(k.alphabet)
    a_plus = Dfa(k.alphabet, 2, 0, frozenset({1}), ((1,) * width, (1,) * width))
    return shortest_word(product(k, concat(k, a_plus), "intersection"))


def naive_plus_maps(k: Dfa) -> tuple[Dfa, dict[int, str]]:
    """k+ by concatenation and star, with, per live state, a shortest word
    leading from it into a final state, found by scanning every edge for
    each dequeued target."""
    plus = minimize(concat(k, star(k)))
    symbols = k.alphabet.symbols
    width = len(symbols)

    suffix: dict[int, str] = {q: "" for q in plus.finals}
    queue = deque(sorted(plus.finals))
    while queue:
        target = queue.popleft()
        for q in range(plus.states):
            for i in range(width):
                if plus.delta[q][i] == target and q not in suffix:
                    suffix[q] = symbols[i] + suffix[target]
                    queue.append(q)
    return plus, suffix


def naive_ambiguity_witness(k: Dfa, l: Dfa) -> str | None:
    """A word of k l with two split points, from a breadth-first search
    with explicit parent pointers and epsilon closures over three phases:
    inside k, after a first split, after a second, later split."""
    if k.alphabet != l.alphabet:
        raise InputError("concatenation requires identical alphabets")
    width = len(k.alphabet)

    def closure(node):
        spawned = []
        kind = node[0]
        if kind == 0:
            _, p = node
            if p in k.finals:
                spawned.append((1, p, l.initial, False))
        elif kind == 1:
            _, p, q1, moved = node
            if moved and p in k.finals:
                spawned.append((2, q1, l.initial))
        return spawned

    root = (0, k.initial)
    parent: dict[tuple, tuple] = {root: (None, None)}
    queue = deque([root])
    pending = closure(root)
    for extra in pending:
        parent[extra] = (root, None)
        queue.append(extra)

    def build(node) -> str:
        chunks = []
        while node is not None:
            prev, sym = parent[node]
            if sym is not None:
                chunks.append(sym)
            node = prev
        return "".join(reversed(chunks))

    while queue:
        node = queue.popleft()
        if node[0] == 2 and node[1] in l.finals and node[2] in l.finals:
            return build(node)
        for i in range(width):
            sym = k.alphabet.symbols[i]
            kind = node[0]
            if kind == 0:
                nxt = (0, k.delta[node[1]][i])
            elif kind == 1:
                nxt = (1, k.delta[node[1]][i], l.delta[node[2]][i], True)
            else:
                nxt = (2, l.delta[node[1]][i], l.delta[node[2]][i])
            if nxt not in parent:
                parent[nxt] = (node, sym)
                queue.append(nxt)
                for spawn in closure(nxt):
                    if spawn not in parent:
                        parent[spawn] = (nxt, None)
                        queue.append(spawn)
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
    bad = naive_prefix_code_violation(k)
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


def factor_walk(k: Dfa, plus: Dfa, starts, limit: int):
    """Breadth-first over (state of k+, factors of k read, state of k) from
    (p, 0, initial state of k) for each p in `starts`, yielding each node.
    After a final state of k the next letter is read from k's initial
    row, and no factor past the limit-th is started."""
    seen = {(p, 0, k.initial) for p in starts}
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        yield node
        p, count, q = node
        if q in k.finals:
            if count == limit:
                continue
            q = k.initial
        for nxt_p, t in zip(plus.delta[p], k.delta[q]):
            nxt = (nxt_p, count + (t in k.finals), t)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def ladder_min_sync_delay(k: Dfa, dmax: int):
    """The least delay up to dmax as a ladder of factor walks over k+ built
    by concatenation and star: R_0 is the set of states with a shortest
    word into a final state, and each R_d keeps the live k+ states that a
    walk of one factor ends at from R_{d-1}, until R_d holds only final
    states or stops shrinking."""
    _require_prefix_code(k)
    plus, live = naive_plus_maps(k)
    reached = set(live)
    for d in range(1, dmax + 1):
        walk = factor_walk(k, plus, reached, 1)
        ends = {p for p, count, _q in walk if count == 1 and p in live}
        if ends <= plus.finals:
            return d
        if ends == reached:
            return None
        reached = ends
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
# stable monoid, the round-based type-II fixpoint and its semi-naive
# successor; and the pair test and stability index that only tests read.


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


def naive_mod_stability_index(alpha: Morphism) -> int:
    """Least d >= 1 with alpha(A^d) = alpha(A^2d), squaring A^d at every d.
    The powers of A are eventually periodic, so some d has it."""
    m = alpha.codomain
    letters = frozenset(alpha.letter_images)
    current = letters
    d = 1
    while _set_product(m, current, current) != current:
        current = _set_product(m, current, letters)
        d += 1
    return d


def naive_mod_kernel(alpha: Morphism, limit: int | None = None) -> frozenset[int]:
    """Identity plus alpha(A^d), walking the powers of A a second time.
    ResourceLimitError when the distinct powers A, A^2, ... before the
    first repeat number more than `limit` (no bound when it is None)."""
    m = alpha.codomain
    letters = frozenset(alpha.letter_images)
    if limit is not None:
        powers = [letters]
        while (power := _set_product(m, powers[-1], letters)) not in powers:
            powers.append(power)
        if len(powers) > limit:
            raise ResourceLimitError("power walk exceeded its bound")
    current = letters
    for _ in range(naive_mod_stability_index(alpha) - 1):
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


def pairs_related(pairs: PairSet, s: int, t: int) -> bool:
    """Whether s and t are a pair: some eta-image is reached with both."""
    witnesses = pairs.by_element.get(s)
    others = pairs.by_element.get(t)
    return bool(witnesses and others) and not witnesses.isdisjoint(others)


def mod_stability_index(alpha: Morphism) -> int:
    """Least d >= 1 with alpha(A^d) = alpha(A^2d).  The library never reads
    d, so this is the independent search `naive_mod_stability_index`."""
    return naive_mod_stability_index(alpha)


def seminaive_gr_kernel(alpha: Morphism) -> frozenset[int]:
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


def naive_amt_kernel(
    alpha: Morphism, alphabet_cap: int = 3, monoid_cap: int = 10
) -> frozenset[int]:
    """The amt kernel from the simple cycles of the image's Cayley graph:
    a walk over (vertex, visited-vertex set, residue modulo the span of
    the simple cycles inside that set), cut off after |image|^2 rounds.
    Exponential in the image."""
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


def naive_ltl(formula, word: str, position: int) -> bool:
    """Memo-free recursive evaluation from the definitions, recomputing
    automaton runs per query: each step of the postfix program recurses
    into the slots of its children, from the last step down."""
    n = len(word)

    def infix_in(dfa, i: int, j: int) -> bool:
        lo = min(i, n)
        hi = max(lo, j - 1)
        return accepts(dfa, word[lo:hi])

    def at(slot: int, i: int) -> bool:
        kind, argument, left, right = formula[slot]
        if kind == "top":
            return True
        if kind == "min":
            return i == 0
        if kind == "max":
            return i == n + 1
        if kind == "letter":
            return 1 <= i <= n and word[i - 1] == argument
        if kind == "not":
            return not at(left, i)
        if kind == "or":
            return at(left, i) or at(right, i)
        if kind == "and":
            return at(left, i) and at(right, i)
        if kind == "until":
            return any(
                at(right, j)
                and infix_in(argument, i, j)
                and all(at(left, k) for k in range(i + 1, j))
                for j in range(i + 1, n + 2)
            )
        if kind == "since":
            return any(
                at(right, j)
                and infix_in(argument, j, i)
                and all(at(left, k) for k in range(j + 1, i))
                for j in range(i)
            )
        raise TypeError(kind)

    return at(len(formula) - 1, position)


def _shift_sweep(images, word: str, left: int, right: int) -> int:
    # The per-position until sweep that ltl._sweep replaced: it shifts the
    # whole side vectors and ORs into the whole output at each position, so
    # a word of length n costs O(n^2 / w) on w-bit words.
    n = len(word)
    seed, goal, cache = images.seed, images.goal, images.cache
    states = seed if right >> (n + 1) & 1 else 0
    out = 1 << n if states & goal else 0
    for i in range(n - 1, -1, -1):
        if states and left >> (i + 1) & 1:
            sym = word[i]
            image = cache[sym].get(states)
            states = images(sym, states) if image is None else image
        else:
            states = 0
        if right >> (i + 1) & 1:
            states |= seed
        if states & goal:
            out |= 1 << i
    return out


def shift_truth(formula, word: str) -> int:
    """The truth vector of the formula's last step over positions 0..n+1,
    every until and since by the per-position sweep of `_shift_sweep`: the
    reference for `ltl._truth`, whose untils and sinces take a carry chain
    or a linear sweep.  A since is the until sweep on the mirror image."""
    from sfclosure.ltl import _Images

    n = len(word)
    everywhere = (1 << (n + 2)) - 1

    def mirror(vector: int) -> int:
        return int(format(vector, f"0{n + 2}b")[::-1], 2)

    vectors: list[int] = []
    for kind, argument, left, right in formula:
        if kind == "and":
            value = vectors[left] & vectors[right]
        elif kind == "or":
            value = vectors[left] | vectors[right]
        elif kind == "not":
            value = everywhere ^ vectors[left]
        elif kind == "until" or kind == "since":
            images = _Images(argument, backward=kind == "until")
            try:
                if kind == "until":
                    value = _shift_sweep(images, word, vectors[left], vectors[right])
                else:
                    p, q = mirror(vectors[left]), mirror(vectors[right])
                    value = mirror(_shift_sweep(images, word[::-1], p, q))
            except KeyError as exc:
                raise InputError(f"symbol {exc.args[0]!r} is not in the alphabet") from None
        elif kind == "letter":
            value = sum(1 << (i + 1) for i, sym in enumerate(word) if sym == argument)
        elif kind == "top":
            value = everywhere
        elif kind == "min":
            value = 1
        else:  # max
            value = 1 << (n + 1)
        vectors.append(value)
    return vectors[-1]


def _words_by_length(alphabet: Alphabet, max_length: int):
    frontier = [""]
    yield ""
    for _ in range(max_length):
        frontier = [w + sym for w in frontier for sym in alphabet]
        yield from frontier


def naive_compare_sampled(
    formula, dfa: Dfa, alphabet: Alphabet, max_length: int = 8
) -> list[str]:
    """Words up to the length bound where formula and automaton disagree,
    one word at a time through the per-word evaluator."""
    mismatches = []
    for word in _words_by_length(alphabet, max_length):
        if eval_at(formula, word, 0) != accepts(dfa, word):
            mismatches.append(word)
    return mismatches


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


def naive_mod_group_step(rho, chain, cap: int) -> list:
    """The mod group rule as the library ran it before it took {one} ∪ P^ω:
    tabulate µ, the image monoid of a -> {s rho(a) s' : s, s' in S}, up to
    `cap` elements, take its mod kernel and return the union of the
    kernel members' labels, ascending.  S is `chain`'s set of maxima."""
    mul = rho.semiring.mul
    maxima = chain.snapshot()
    letter_sets = []
    for img in rho.letter_images:
        lefts = [mul(s, img) for s in maxima]
        letter_sets.append(_max_reduce(mul(s, t) for s in lefts for t in maxima))
    mu = _mu_image_monoid(rho, letter_sets, cap=cap)
    values = set()
    for k in sorted(mod_kernel(mu)):
        values.update(mu.labels[k])
    return sorted(values)


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


def naive_minimize(dfa: Dfa) -> Dfa:
    """Moore refinement on the reachable states, then the breadth-first
    numbering of the blocks: `automata.minimize` before Hopcroft's
    refinement replaced it."""
    # restrict to reachable states
    reach = [dfa.initial]
    seen = {dfa.initial}
    queue = deque(reach)
    while queue:
        q = queue.popleft()
        for target in dfa.delta[q]:
            if target not in seen:
                seen.add(target)
                reach.append(target)
                queue.append(target)
    # Moore refinement on the reachable part
    block = {q: int(q in dfa.finals) for q in reach}
    while True:
        signature = {
            q: (block[q], tuple(block[t] for t in dfa.delta[q])) for q in reach
        }
        renumber: dict[tuple, int] = {}
        for q in reach:
            renumber.setdefault(signature[q], len(renumber))
        new_block = {q: renumber[signature[q]] for q in reach}
        if new_block == block:
            break
        block = new_block
    # canonical breadth-first numbering of the blocks
    repr_of: dict[int, int] = {}
    for q in reach:
        repr_of.setdefault(block[q], q)
    canon = {block[dfa.initial]: 0}
    order = [block[dfa.initial]]
    queue = deque(order)
    while queue:
        b = queue.popleft()
        q = repr_of[b]
        for target in dfa.delta[q]:
            tb = block[target]
            if tb not in canon:
                canon[tb] = len(canon)
                order.append(tb)
                queue.append(tb)
    delta = tuple(
        tuple(canon[block[t]] for t in dfa.delta[repr_of[b]]) for b in order
    )
    finals = frozenset(canon[b] for b in order if repr_of[b] in dfa.finals)
    return Dfa(dfa.alphabet, len(order), 0, finals, delta)


def naive_explore_order(start, successors) -> list:
    """The states reachable from `start`, ordered by the shortlex-least
    word of successor positions that leads to each: the breadth-first
    numbering of `automata.explore`, from word enumeration instead of a
    queue.  Every reachable state has such a word shorter than the number
    of states, so enumerating until a length adds none suffices."""
    first: dict = {start: ()}
    length = 0
    while True:
        length += 1
        found = len(first)
        # every word of this length, in lexicographic order, by extension
        frontier = [((), start)]
        for _ in range(length):
            frontier = [
                (word + (i,), nxt) for word, state in frontier
                for i, nxt in enumerate(successors(state))
            ]
        for word, state in frontier:
            first.setdefault(state, word)
        if len(first) == found:
            return sorted(first, key=lambda state: (len(first[state]), first[state]))


def rebuilt(dfa: Dfa) -> Dfa:
    """The same DFA through the public constructor: every check of
    `Dfa.__post_init__` runs again, and the copy is not marked minimal."""
    return Dfa(dfa.alphabet, dfa.states, dfa.initial, dfa.finals, dfa.delta)


def naive_dfa_word(alphabet: Alphabet, word: str) -> Dfa:
    """DFA of {word}: the chain 0 .. len(word), its last state final, and
    a dead state, which is minimal, renumbered breadth-first by
    `automata._canonical`; `automata._dfa_word` before it wrote that
    numbering directly."""
    width = len(alphabet)
    dead = len(word) + 1
    rows = []
    for sym in word:
        row = [dead] * width
        row[alphabet.index(sym)] = len(rows) + 1
        rows.append(tuple(row))
    rows += [(dead,) * width] * 2
    chain = Dfa(alphabet, dead + 1, 0, frozenset({dead - 1}), tuple(rows))
    return _canonical(chain, range(dead + 1))


def naive_dfa_words(alphabet: Alphabet, words) -> Dfa:
    """DFA of a finite set of words: the chain of each word unioned by
    `product` and minimized by Moore refinement, one word at a time, from
    the empty language; the regex parser's fold of a '+' chain of plain
    words before `automata._dfa_words` built their trie."""
    width = len(alphabet)
    dfa = Dfa(alphabet, 1, 0, frozenset(), ((0,) * width,))
    for word in words:
        dfa = naive_minimize(product(dfa, naive_dfa_word(alphabet, word), "union"))
    return naive_minimize(dfa)


def _dfa_epsilon(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 2, 0, frozenset({0}), ((1,) * width, (1,) * width))


def _dfa_letter(alphabet: Alphabet, symbol: str) -> Dfa:
    width = len(alphabet)
    idx = alphabet.index(symbol)
    row0 = tuple(1 if i == idx else 2 for i in range(width))
    return Dfa(alphabet, 3, 0, frozenset({1}), (row0, (2,) * width, (2,) * width))


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    return _RegexParser(text, alphabet).parse()


def compile_regex(node: Regex, alphabet: Alphabet) -> Dfa:
    """Minimal canonical DFA for a parsed expression."""
    if isinstance(node, Empty):
        return _dfa_empty(alphabet)
    if isinstance(node, Epsilon):
        return naive_minimize(_dfa_epsilon(alphabet))
    if isinstance(node, Letter):
        if node.symbol not in alphabet:
            raise InputError(f"letter {node.symbol!r} is not in the alphabet")
        return naive_minimize(_dfa_letter(alphabet, node.symbol))
    if isinstance(node, Union):
        return naive_minimize(
            product(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet), "union")
        )
    if isinstance(node, Intersect):
        return naive_minimize(
            product(
                compile_regex(node.left, alphabet),
                compile_regex(node.right, alphabet),
                "intersection",
            )
        )
    if isinstance(node, Concat):
        return naive_minimize(
            concat(compile_regex(node.left, alphabet), compile_regex(node.right, alphabet))
        )
    if isinstance(node, Star):
        return naive_minimize(star(compile_regex(node.child, alphabet)))
    if isinstance(node, Complement):
        return complement(compile_regex(node.child, alphabet))
    raise InputError(f"unknown regex node {node!r}")


def naive_compile_pattern(text: str, alphabet: Alphabet) -> Dfa:
    """Parse into a syntax tree, then compile the tree in post-order with
    one letter per atom and Moore's minimization after each step."""
    return compile_regex(parse_regex(text, alphabet), alphabet)


# ---------------------------------------------------------------------------
# SD expressions: the syntax tree, its parser and its recursive validator as
# they were before the library's parser emitted a postfix program; the
# property test requires the same DFA and violations or the same error.


class SdExpr:
    __slots__ = ()


@dataclass(frozen=True)
class SdEmpty(SdExpr):
    pass


@dataclass(frozen=True)
class SdLetter(SdExpr):
    symbol: str


@dataclass(frozen=True)
class SdUnion(SdExpr):
    left: SdExpr
    right: SdExpr


@dataclass(frozen=True)
class SdConcat(SdExpr):
    left: SdExpr
    right: SdExpr


@dataclass(frozen=True)
class SdCap(SdExpr):
    child: SdExpr
    pattern: str


@dataclass(frozen=True)
class SdStar(SdExpr):
    child: SdExpr
    delay: int


class _TreeSdParser(_Scanner):
    """Syntax: `%`, letters, `dunion(E,F)`, `uconcat(E,F)`,
    `capC(E, "<regex>")` and `star(E, d=<int>)`, nested at most
    MAX_NESTING deep; each rule returns its node."""

    what = "expression"

    def ident(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def parse(self) -> SdExpr:
        node = self.expr()
        if not self.at_end():
            self.fail(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> SdExpr:
        self.depth = self.bounded(self.depth + 1)
        node = self.node()
        self.depth -= 1
        return node

    def node(self) -> SdExpr:
        if self.peek() == "%":
            self.pos += 1
            return SdEmpty()
        mark = self.pos
        name = self.ident()
        if name in ("dunion", "uconcat"):
            self.eat("(")
            left = self.expr()
            self.eat(",")
            right = self.expr()
            self.eat(")")
            return SdUnion(left, right) if name == "dunion" else SdConcat(left, right)
        if name == "capC":
            self.eat("(")
            child = self.expr()
            self.eat(",")
            self.eat('"')
            end = self.text.find('"', self.pos)
            if end < 0:
                self.fail("unterminated pattern string")
            pattern = self.text[self.pos:end]
            self.pos = end + 1
            self.eat(")")
            return SdCap(child, pattern)
        if name == "star":
            self.eat("(")
            child = self.expr()
            self.eat(",")
            key = self.ident()
            if key != "d":
                self.fail("expected d=<int>")
            self.eat("=")
            self.peek()
            digits = self.pos
            # ASCII digits only: str.isdigit also takes "²", which int rejects
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            if digits == self.pos:
                self.fail("expected a delay bound")
            try:
                delay = int(self.text[digits:self.pos])
            except ValueError:  # past Python's digit limit for int()
                self.pos = digits
                self.fail("delay bound has too many digits")
            self.eat(")")
            return SdStar(child, delay)
        if len(name) == 1 and name in self.alphabet:
            return SdLetter(name)
        self.pos = mark
        self.fail(f"expected an expression, found {name!r}" if name else "expected an expression")


def tree_validate_sd_expression(
    text: str, alphabet: Alphabet, dmax: int | None = None
) -> tuple[Dfa | None, list[SdViolation]]:
    """Parse into a syntax tree, then compile the tree in post-order with
    one call per node, checking each side condition on the way up."""
    expr = _TreeSdParser(text, alphabet).parse()
    violations: list[SdViolation] = []

    def walk(node: SdExpr, path: str) -> Dfa:
        if isinstance(node, SdEmpty):
            return _dfa_empty(alphabet)
        if isinstance(node, SdLetter):
            return compile_pattern(node.symbol, alphabet)
        if isinstance(node, SdUnion):
            left = walk(node.left, path + ".left")
            right = walk(node.right, path + ".right")
            witness = disjointness_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "disjoint", witness))
            return minimize(product(left, right, "union"))
        if isinstance(node, SdConcat):
            left = walk(node.left, path + ".left")
            right = walk(node.right, path + ".right")
            witness = ambiguity_witness(left, right)
            if witness is not None:
                violations.append(SdViolation(path, "unambiguous", witness))
            return minimize(concat(left, right))
        if isinstance(node, SdCap):
            child = walk(node.child, path + ".child")
            other = compile_pattern(node.pattern, alphabet)
            return minimize(product(child, other, "intersection"))
        if isinstance(node, SdStar):
            child = walk(node.child, path + ".child")
            if node.delay < 1:
                raise InputError("star delay must be at least 1")
            if dmax is not None and node.delay > dmax:
                raise InputError(
                    f"star delay {node.delay} exceeds the bound {dmax}"
                )
            bad = prefix_code_violation(child)
            if bad is not None:
                violations.append(SdViolation(path, "prefix-code", bad))
            else:
                triple = _delay_witness(child, node.delay)
                if triple is not None:
                    violations.append(SdViolation(path, "sync-delay", list(triple)))
            return minimize(star(child))
        raise InputError(f"unknown expression node {node!r}")

    dfa = walk(expr, "root")
    if violations:
        return None, violations
    return dfa, []

