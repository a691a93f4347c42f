import pytest

from bruteforce import schutzenberger_check
from conftest import recognized
from sfclosure.automata import Dfa, compile_pattern, complement, make_alphabet
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.membership import recheck_witness, sf_membership
from sfclosure.monoid import idempotent_power, syntactic_morphism
from sfclosure.oracles import AMT, GR, MOD, st_class

AB = make_alphabet("ab")
A = make_alphabet("a")


def lang(pattern, alphabet=AB):
    return compile_pattern(pattern, alphabet)


class TestStarFree:
    def test_accepts_alternating(self):
        verdict = sf_membership(st_class(AB), lang("(ab)*"))
        assert verdict.answer and verdict.witness is None
        assert verdict.monoid_size == 6
        assert set(verdict.detail) == {"orbits"}

    def test_accepts_marked_words(self):
        assert sf_membership(st_class(AB), lang("~%a~%")).answer

    def test_rejects_even_length_with_replayable_witness(self):
        verdict = sf_membership(st_class(A), lang("(aa)*", A))
        assert not verdict.answer
        assert verdict.witness is not None
        assert recheck_witness(verdict, recognized("(aa)*", A))
        m = recognized("(aa)*", A).morphism.codomain
        e = idempotent_power(m, verdict.witness)
        assert m.mul[e][verdict.witness] != e

    def test_matches_whole_monoid_aperiodicity(self, corpus):
        for dfa in corpus[:60]:
            assert schutzenberger_check(dfa) == sf_membership(
                st_class(AB), dfa
            ).answer


class TestGroupClasses:
    def test_mod_accepts_even_unary(self):
        verdict = sf_membership(MOD, lang("(aa)*", A))
        assert verdict.answer
        assert verdict.detail["kernel"] == [0]

    def test_mod_accepts_even_pairs(self):
        assert sf_membership(MOD, lang("(aa+bb)*")).answer

    def test_mod_accepts_even_a_blocks_over_two_letters(self):
        assert sf_membership(MOD, lang("(aa)*", AB)).answer

    def test_amt_rejects_group_identity_fiber(self, s3_identity_dfa):
        verdict = sf_membership(AMT, s3_identity_dfa)
        assert not verdict.answer
        assert verdict.witness is not None
        assert recheck_witness(verdict, syntactic_morphism(s3_identity_dfa))

    def test_gr_accepts_group_identity_fiber(self, s3_identity_dfa):
        verdict = sf_membership(GR, s3_identity_dfa)
        assert verdict.answer
        assert verdict.detail["kernel"] == [0]

    def test_st_rejects_group_identity_fiber(self, s3_identity_dfa):
        assert not sf_membership(st_class(AB), s3_identity_dfa).answer


class TestFinitePrevarieties:
    def test_alphabet_testable_accepts_own_language(self, alphabet_testable):
        # all words containing a: recognized by the letter-set morphism itself
        assert sf_membership(alphabet_testable, lang("~%a~%")).answer

    def test_alphabet_testable_rejects_counting(self, alphabet_testable):
        verdict = sf_membership(alphabet_testable, lang("(aa)*", AB))
        assert not verdict.answer
        assert recheck_witness(verdict, recognized("(aa)*", AB))

    def test_alphabet_mismatch(self, alphabet_testable):
        with pytest.raises(InputError):
            sf_membership(alphabet_testable, lang("(aa)*", A))


def test_unknown_class_object():
    with pytest.raises(InputError):
        sf_membership(object(), lang("(ab)*"))


def test_monoid_cap_propagates():
    with pytest.raises(ResourceLimitError):
        sf_membership(st_class(AB), lang("(aa+bb)*"), monoid_cap=8)


def test_membership_invariant_under_complementation(corpus):
    # star-free closures are closed under complement, so the verdicts of a
    # language and its complement agree for every class
    for dfa in corpus[:30]:
        comp = complement(dfa)
        for cls in (st_class(AB), MOD, GR):
            assert sf_membership(cls, dfa).answer == sf_membership(cls, comp).answer


def test_verdict_json_shape():
    doc = sf_membership(MOD, lang("(aa)*", A)).to_json()
    assert doc == {
        "answer": True,
        "kernel": [0],
        "monoid_size": 2,
        "witness": None,
    }


def transformation_dfa(n: int) -> Dfa:
    """States 0..n-1 over {a, b, c}: a cycles, b swaps 0 and 1, c sends 0
    to 1.  Its transition monoid is the full transformation monoid T_n,
    with n^n elements."""
    delta = tuple(
        ((q + 1) % n, {0: 1, 1: 0}.get(q, q), 1 if q == 0 else q) for q in range(n)
    )
    return Dfa(make_alphabet("abc"), n, 0, frozenset({0}), delta)


@pytest.mark.parametrize("selector", ["st", "mod"])
def test_full_transformation_monoid_t5(selector):
    # 3,125 elements: the pair set had 9.8 M entries and the stable monoid
    # search squared every power of the letter set
    dfa = transformation_dfa(5)
    cls = st_class(dfa.alphabet) if selector == "st" else MOD
    verdict = sf_membership(cls, dfa)
    assert verdict.monoid_size == 3125
    assert not verdict.answer
    assert recheck_witness(verdict, syntactic_morphism(dfa))
