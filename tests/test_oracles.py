import dataclasses
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import (
    images_by_length,
    mod_stability_index,
    naive_amt_kernel,
    naive_c_orbit,
    naive_c_pairs,
    naive_gr_kernel,
    naive_mod_kernel,
    pairs_related,
    seminaive_gr_kernel,
    zero_parikh_images,
)
from conftest import (
    permutation_morphism,
    proper_image_morphisms,
    recognized,
    syntactic_morphisms,
    transformation_dfa,
    transformation_morphisms,
)
from test_golden_monoid import LANGUAGES, LARGER
from sfclosure import oracles
from sfclosure.automata import Dfa, make_alphabet
from sfclosure.config import DEFAULT, Config
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import idempotents, syntactic_morphism
from sfclosure.oracles import (
    AMT,
    GR,
    MOD,
    FinitePrevariety,
    IntegerLattice,
    amt_kernel,
    c_orbit,
    c_pairs,
    gr_kernel,
    group_kernel,
    mod_kernel,
    st_class,
    trivial_morphism,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def perm_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i]
    )
    return inversions % 2


class TestPairsAndOrbits:
    def test_flat_monoid_pairs(self, alphabet_testable, flat_morphism):
        # the letters a, b sit at indices 1, 2 and the zero at index 3
        pairs = c_pairs(alphabet_testable, flat_morphism)
        assert pairs_related(pairs, 1, 3)
        assert pairs_related(pairs, 3, 2)
        assert not pairs_related(pairs, 1, 2)

    def test_flat_monoid_zero_orbit(self, alphabet_testable, flat_morphism):
        pairs = c_pairs(alphabet_testable, flat_morphism)
        assert c_orbit(pairs, flat_morphism, 3) == {3}

    def test_orbit_requires_idempotent(self, alphabet_testable, flat_morphism):
        pairs = c_pairs(alphabet_testable, flat_morphism)
        with pytest.raises(InputError):
            c_orbit(pairs, flat_morphism, 1)

    def test_trivial_class_relates_everything(self):
        lang = recognized("(ab)*")
        pairs = c_pairs(st_class(AB), lang.morphism)
        image = sorted(lang.morphism.image)
        for s in image:
            for t in image:
                assert pairs_related(pairs, s, t)
        for e in idempotents(lang.morphism.codomain):
            m = lang.morphism.codomain
            want = {m.mul[m.mul[e][s]][e] for s in image}
            assert c_orbit(pairs, lang.morphism, e) == want

    def test_pairs_alphabet_mismatch(self, alphabet_testable):
        with pytest.raises(InputError):
            c_pairs(alphabet_testable, recognized("(aa)*", A).morphism)


class TestModKernel:
    def test_stability_index_goldens(self):
        assert mod_stability_index(recognized("(aa)*", A).morphism) == 2
        assert mod_stability_index(recognized("~%a~%", AB).morphism) == 1
        assert mod_stability_index(recognized("(aa)*", AB).morphism) == 2
        assert mod_stability_index(trivial_morphism(AB)) == 1

    def test_stability_index_matches_length_enumeration(self, corpus_languages):
        for lang in corpus_languages[:40]:
            alpha = lang.morphism
            d = mod_stability_index(alpha)
            sets = images_by_length(alpha, 4 * d)
            assert sets[d] == sets[2 * d]
            for k in range(1, d):
                assert sets[k] != sets[2 * k]

    def test_kernel_goldens(self):
        unary = recognized("(aa)*", A).morphism
        assert mod_kernel(unary) == {unary.codomain.identity}
        marked = recognized("~%a~%", AB).morphism
        assert mod_kernel(marked) == {0, 1}


class TestAmtKernel:
    def test_s3_kernel_is_alternating_group(self, s3_morphism):
        kernel = amt_kernel(s3_morphism)
        even = {
            s for s in range(s3_morphism.codomain.size)
            if perm_sign(s3_morphism.labels[s]) == 0
        }
        assert len(kernel) == 3
        assert kernel == even

    def test_one_letter_counting(self):
        # words with an even number of a: the group Z2, counting one letter.
        # No word with #a divisible by 2 reaches the odd class, so only the
        # identity survives.
        even_a = recognized("(b+ab*a)*", AB).morphism
        assert even_a.codomain.size == 2
        assert amt_kernel(even_a) == {even_a.codomain.identity}
        # the absorbing idempotent of A*aA* is reached by a^q b^q for any q,
        # so there the kernel is everything
        marked = recognized("~%a~%", AB).morphism
        assert amt_kernel(marked) == frozenset(range(2))

    def test_matches_modular_product_walks(self, s3_morphism):
        kernel = amt_kernel(s3_morphism)
        for q in range(1, 13):
            assert kernel <= zero_parikh_images(s3_morphism, q)

    def test_alphabet_cap(self):
        wide = permutation_morphism(
            {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)}
        )
        with pytest.raises(ResourceLimitError):
            amt_kernel(wide, alphabet_cap=3)

    def test_monoid_cap(self):
        big = recognized("(aaaaaaaaaaaa)*", A).morphism
        with pytest.raises(ResourceLimitError):
            amt_kernel(big, monoid_cap=10)
        assert big.codomain.identity in amt_kernel(big, monoid_cap=12)

    def test_caps_default_to_the_config(self):
        wide = permutation_morphism(
            {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)}
        )
        big = recognized("(aaaaaaaaaaaa)*", A).morphism
        with pytest.raises(ResourceLimitError):
            amt_kernel(wide)
        with pytest.raises(ResourceLimitError):
            amt_kernel(big)
        wide_caps = Config(amt_alphabet_cap=4, amt_monoid_cap=12)
        with mock.patch.object(oracles, "DEFAULT", wide_caps):
            assert wide.codomain.identity in amt_kernel(wide)
            assert big.codomain.identity in amt_kernel(big)

    def test_full_transformation_monoid_t4(self):
        # 256 elements in 15 R-classes: far above the default counting cap
        alpha = syntactic_morphism(transformation_dfa(4)).morphism
        assert len(alpha.image) == 256
        kernel = amt_kernel(alpha, monoid_cap=256)
        assert gr_kernel(alpha) <= kernel <= mod_kernel(alpha)
        for q in range(1, 5):
            assert kernel <= zero_parikh_images(alpha, q)


class TestGrKernel:
    def test_group_morphism_kernel_is_identity(self, s3_morphism):
        assert gr_kernel(s3_morphism) == {0}

    def test_idempotent_absorber_pulls_everything(self):
        marked = recognized("~%a~%", AB).morphism
        assert gr_kernel(marked) == {0, 1}

    def test_trivial(self):
        assert gr_kernel(trivial_morphism(AB)) == {0}

    def test_kernel_that_takes_two_repairs(self):
        # the first repair leaves a kernel of 10 whose check fails again;
        # the second repair brings it to 12
        delta = ((3, 1), (4, 2), (1, 2), (2, 4), (4, 4))
        alpha = syntactic_morphism(Dfa(AB, 5, 0, frozenset({2, 3, 4}), delta)).morphism
        kernel = gr_kernel(alpha)
        assert len(alpha.image) == 15 and len(kernel) == 12
        assert kernel == naive_gr_kernel(alpha)

    def test_dispatch(self, s3_morphism):
        assert group_kernel(GR, s3_morphism) == {0}
        assert group_kernel(MOD, s3_morphism) == frozenset(range(6))
        assert group_kernel(AMT, s3_morphism) == amt_kernel(s3_morphism)
        with pytest.raises(InputError):
            group_kernel(st_class(AB), s3_morphism)

    def test_amt_config_caps_apply(self, s3_morphism):
        tight = dataclasses.replace(DEFAULT, amt_monoid_cap=3)
        with pytest.raises(ResourceLimitError):
            group_kernel(AMT, s3_morphism, config=tight)


def test_kernel_inclusions(corpus_languages):
    for lang in corpus_languages[:60]:
        alpha = lang.morphism
        if alpha.codomain.size > 10:
            continue
        gr = gr_kernel(alpha)
        amt = amt_kernel(alpha)
        mod = mod_kernel(alpha)
        assert gr <= amt <= mod


class TestIntegerLattice:
    def test_membership_and_reduction(self):
        lat = IntegerLattice(2)
        assert lat.add((2, 0))
        assert lat.add((0, 2))
        assert not lat.add((4, 2))
        assert not any(lat.reduce((2, 2)))
        assert not any(lat.reduce((-2, 4)))
        assert any(lat.reduce((1, 1)))
        assert lat.reduce((3, 5)) == (1, 1)
        assert lat.reduce((4, -2)) == (0, 0)

    def test_reduce_is_coset_invariant(self):
        lat = IntegerLattice(3, [(2, 0, 4), (0, 3, 1)])
        vectors = [(1, 1, 1), (5, -2, 3), (0, 0, 7)]
        members = [(2, 0, 4), (0, 3, 1), (2, 3, 5), (-4, 0, -8)]
        for v in vectors:
            base = lat.reduce(v)
            for m in members:
                shifted = tuple(a + b for a, b in zip(v, m))
                assert lat.reduce(shifted) == base

    def test_gcd_on_single_coordinate(self):
        lat = IntegerLattice(1)
        assert lat.add((6,))
        assert lat.add((10,))
        # the two generators collapse to gcd 2
        assert not any(lat.reduce((2,)))
        assert any(lat.reduce((3,)))
        assert lat.reduce((7,)) == (1,)

    def test_zero_vector(self):
        lat = IntegerLattice(2)
        assert not lat.add((0, 0))
        assert not any(lat.reduce((0, 0)))

    def test_rows_are_in_hermite_form(self):
        # normalizing from the last pivot up left -2 above the pivot 10
        lat = IntegerLattice(3, [(1, 4, 3), (-1, 4, -3), (2, 4, 1)])
        assert lat.rows == [(0, [1, 0, 8]), (1, [0, 4, 5]), (2, [0, 0, 10])]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=4), st.data())
    def test_rows_are_hermite_and_independent_of_vector_order(self, vectors, data):
        lat = IntegerLattice(3, vectors)
        for k, (col, row) in enumerate(lat.rows):
            assert all(c == 0 for c in row[:col])
            for _, above in lat.rows[:k]:
                assert 0 <= above[col] < row[col]
        shuffled = data.draw(st.permutations(vectors))
        assert IntegerLattice(3, shuffled).rows == lat.rows


# ---------------------------------------------------------------------------
# the oracles against the references they replaced (tests/bruteforce.py)


def _assert_pairs_match(c, alpha):
    pairs = c_pairs(c, alpha)
    reference = naive_c_pairs(c, alpha)
    assert pairs.pairs == reference
    size = alpha.codomain.size
    for s in range(size):
        for t in range(size):
            assert pairs_related(pairs, s, t) == ((s, t) in reference)
    for e in idempotents(alpha.codomain):
        assert c_orbit(pairs, alpha, e) == naive_c_orbit(reference, alpha, e)


def _assert_kernels_match(alpha):
    assert gr_kernel(alpha) == naive_gr_kernel(alpha)
    assert mod_kernel(alpha) == naive_mod_kernel(alpha)


_widths = st.integers(1, 3)


@settings(max_examples=200)
@given(_widths.flatmap(lambda k: st.tuples(transformation_morphisms(k),
                                           transformation_morphisms(k))))
def test_oracles_match_references_on_random_morphisms(morphisms):
    alpha, eta = morphisms
    _assert_kernels_match(alpha)
    _assert_pairs_match(FinitePrevariety(eta), alpha)
    _assert_pairs_match(st_class(alpha.alphabet), alpha)


@settings(max_examples=200)
@given(syntactic_morphisms(), transformation_morphisms(2))
def test_oracles_match_references_on_syntactic_monoids(alpha, eta):
    _assert_kernels_match(alpha)
    _assert_pairs_match(st_class(AB), alpha)
    _assert_pairs_match(FinitePrevariety(eta), alpha)


@given(st.integers(2, 3).flatmap(
    lambda k: syntactic_morphisms(cap=256, alphabet=make_alphabet("abc"[:k]))))
def test_gr_kernel_matches_seminaive_reference_on_larger_monoids(alpha):
    # 17 to 256 elements, where the naive fixpoint is too slow
    assume(len(alpha.image) >= 17)
    assert gr_kernel(alpha) == seminaive_gr_kernel(alpha)


def _kernel_comparing_checks(alpha, small):
    """gr_kernel with `_SMALL_KERNEL` set to `small`.  Each fixpoint check
    it makes is repeated with the other check on the same members and weak
    pairs, and both must force the same elements outside the kernel.
    Returns the kernel and the kernel sizes the checks saw."""
    by_products, by_masks = oracles._ideal_products, oracles._forced
    sizes = []

    def compare(mul, members, gens, inside, weak):
        kernel = set(members)
        forced = by_masks(mul, members, gens, inside, weak) - kernel
        assert by_products(mul, members, weak) - kernel == forced
        sizes.append(len(members))
        return forced

    def products_spy(mul, members, weak):
        kernel = set(members)
        inside = "".join("1" if x in kernel else "0" for x in range(len(mul)))
        # the members generate the kernel as well as the closure's generators do
        return compare(mul, members, members, inside, weak)

    with mock.patch.multiple(
        oracles, _SMALL_KERNEL=small, _ideal_products=products_spy, _forced=compare
    ):
        kernel = gr_kernel(alpha)
    return kernel, sizes


def _assert_checks_agree(alpha) -> list[int]:
    """Returns the kernel sizes that the checks saw."""
    reference = seminaive_gr_kernel(alpha)
    # every check by masks, then every check by products of ideals
    by_masks, sizes = _kernel_comparing_checks(alpha, -1)
    by_products, same_sizes = _kernel_comparing_checks(alpha, len(alpha.image))
    assert by_masks == by_products == reference
    assert sizes == same_sizes
    return sizes


@settings(max_examples=150)
@given(st.integers(2, 3).flatmap(
    lambda k: syntactic_morphisms(cap=256, alphabet=make_alphabet("abc"[:k]))))
def test_both_fixpoint_checks_force_the_same_elements(alpha):
    # images of 1 to 256 elements, so kernels on both sides of _SMALL_KERNEL
    _assert_checks_agree(alpha)


@pytest.mark.parametrize("n", [3, 4])
def test_both_fixpoint_checks_agree_on_full_transformation_monoids(n):
    # T_4's kernel of 233 elements lies above _SMALL_KERNEL
    sizes = _assert_checks_agree(syntactic_morphism(transformation_dfa(n)).morphism)
    assert (max(sizes) > oracles._SMALL_KERNEL) == (n == 4)


def test_both_fixpoint_checks_merge_the_partners_of_a_group():
    # 13 elements, where two listed s share an ideal but not their partners,
    # so a group that takes one s's partners for all forces too little
    delta = ((1, 5), (4, 4), (5, 2), (4, 2), (4, 3), (2, 5))
    alpha = syntactic_morphism(Dfa(AB, 6, 0, frozenset({0, 1, 3, 4}), delta)).morphism
    assert len(alpha.image) == 13
    _assert_checks_agree(alpha)


@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)))
def test_components_are_the_mutual_reachability_classes(edges):
    nodes = range(len(edges))
    reach = []
    for v in nodes:
        seen, todo = {v}, [v]
        while todo:
            for w in edges[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    component = oracles._components(nodes, edges.__getitem__)
    assert sorted(set(component.values())) == list(range(len(set(component.values()))))
    for v in nodes:
        for w in nodes:
            assert (component[v] == component[w]) == (w in reach[v] and v in reach[w])


@pytest.mark.parametrize("n", [3, 4])
def test_gr_kernel_of_full_transformation_monoids(n):
    # the idempotents generate the identity and every non-permutation
    alpha = syntactic_morphism(transformation_dfa(n)).morphism
    kernel = gr_kernel(alpha)
    assert kernel == seminaive_gr_kernel(alpha)
    expected = {alpha.codomain.identity} | {
        s for s, label in enumerate(alpha.labels) if len(set(label)) < n
    }
    assert kernel == expected


@settings(max_examples=200)
@given(proper_image_morphisms())
def test_gr_kernel_stays_inside_a_proper_image(alpha):
    assert gr_kernel(alpha) == naive_gr_kernel(alpha)


@settings(max_examples=200)
@given(_widths.flatmap(
    lambda k: syntactic_morphisms(cap=16, alphabet=make_alphabet("abc"[:k]))))
def test_amt_kernel_matches_simple_cycle_reference(alpha):
    assert amt_kernel(alpha, monoid_cap=16) == naive_amt_kernel(alpha, monoid_cap=16)


@pytest.mark.parametrize("pattern", [*LANGUAGES.values(), *LARGER.values(), "s3"])
def test_amt_kernel_matches_reference_on_golden_monoids(pattern, s3_morphism):
    alpha = s3_morphism if pattern == "s3" else recognized(pattern).morphism
    size = len(alpha.image)
    assert amt_kernel(alpha, monoid_cap=size) == naive_amt_kernel(alpha, monoid_cap=size)


def _outcome(compute):
    try:
        return compute()
    except ResourceLimitError:
        return ResourceLimitError


@given(_widths.flatmap(transformation_morphisms) | syntactic_morphisms(),
       st.integers(1, 6))
def test_power_walk_limit_trips_in_the_same_cases(alpha, limit):
    with mock.patch.object(oracles, "_POWER_WALK_LIMIT", limit):
        kernel = _outcome(lambda: mod_kernel(alpha))
    assert kernel == _outcome(lambda: naive_mod_kernel(alpha, limit))
