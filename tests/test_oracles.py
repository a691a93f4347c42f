import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    images_by_length,
    naive_c_orbit,
    naive_c_pairs,
    naive_gr_kernel,
    naive_mod_kernel,
    naive_mod_stability_index,
    zero_parikh_images,
)
from conftest import (
    permutation_morphism,
    recognized,
    syntactic_morphisms,
    transformation_morphisms,
)
from sfclosure import oracles
from sfclosure.automata import make_alphabet
from sfclosure.config import DEFAULT
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import idempotents
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
    mod_stability_index,
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
        assert pairs.related(1, 3)
        assert pairs.related(3, 2)
        assert not pairs.related(1, 2)

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
                assert pairs.related(s, t)
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


class TestGrKernel:
    def test_group_morphism_kernel_is_identity(self, s3_morphism):
        assert gr_kernel(s3_morphism) == {0}

    def test_idempotent_absorber_pulls_everything(self):
        marked = recognized("~%a~%", AB).morphism
        assert gr_kernel(marked) == {0, 1}

    def test_trivial(self):
        assert gr_kernel(trivial_morphism(AB)) == {0}

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
        assert lat.contains((2, 2))
        assert lat.contains((-2, 4))
        assert not lat.contains((1, 1))
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
        assert lat.contains((2,))
        assert not lat.contains((3,))
        assert lat.reduce((7,)) == (1,)

    def test_zero_vector(self):
        lat = IntegerLattice(2)
        assert not lat.add((0, 0))
        assert lat.contains((0, 0))


# ---------------------------------------------------------------------------
# the oracles against the references they replaced (tests/bruteforce.py)


def _assert_pairs_match(c, alpha):
    pairs = c_pairs(c, alpha)
    reference = naive_c_pairs(c, alpha)
    assert pairs.pairs == reference
    size = alpha.codomain.size
    for s in range(size):
        for t in range(size):
            assert pairs.related(s, t) == ((s, t) in reference)
    for e in idempotents(alpha.codomain):
        assert c_orbit(pairs, alpha, e) == naive_c_orbit(reference, alpha, e)


def _assert_kernels_match(alpha):
    assert gr_kernel(alpha) == naive_gr_kernel(alpha)
    assert mod_kernel(alpha) == naive_mod_kernel(alpha)
    assert mod_stability_index(alpha) == naive_mod_stability_index(alpha)


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


def _outcome(compute):
    try:
        return compute()
    except ResourceLimitError:
        return ResourceLimitError


@given(_widths.flatmap(transformation_morphisms) | syntactic_morphisms(),
       st.integers(1, 6))
def test_stability_bound_trips_in_the_same_cases(alpha, bound):
    with mock.patch.object(oracles, "_stability_bound", lambda _: bound):
        index = _outcome(lambda: mod_stability_index(alpha))
        kernel = _outcome(lambda: mod_kernel(alpha))
    assert index == _outcome(lambda: naive_mod_stability_index(alpha, bound))
    assert kernel == _outcome(lambda: naive_mod_kernel(alpha, bound))
