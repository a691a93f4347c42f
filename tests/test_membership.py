import pytest

from bruteforce import recheck_witness, schutzenberger_check
from conftest import recognized, transformation_dfa
from sfclosure.automata import compile_pattern, complement, make_alphabet
from sfclosure.config import Config
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.membership import sf_membership
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


@pytest.mark.parametrize("cls", [st_class(AB), MOD], ids=["st", "mod"])
def test_monoid_cap_defaults_to_the_config(cls):
    # the syntactic monoid of (aab)*ab has 17 elements
    with pytest.raises(ResourceLimitError):
        sf_membership(cls, lang("(aab)*ab"), config=Config(monoid_cap=4))
    assert sf_membership(cls, lang("(aab)*ab"), config=Config(monoid_cap=17)).monoid_size == 17


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


@pytest.mark.parametrize("selector", ["st", "mod", "gr"])
def test_full_transformation_monoid_t5(selector):
    # 3,125 elements: the pair set had 9.8 M entries, the stable monoid
    # search squared every power of the letter set, and the type-II
    # closure listed 362,745 weak pairs
    dfa = transformation_dfa(5)
    cls = {"st": st_class(dfa.alphabet), "mod": MOD, "gr": GR}[selector]
    verdict = sf_membership(cls, dfa)
    assert verdict.monoid_size == 3125
    assert not verdict.answer
    lang = syntactic_morphism(dfa)
    assert recheck_witness(verdict, lang)
    if selector == "gr":
        # the identity and every non-permutation
        kernel = verdict.detail["kernel"]
        assert len(kernel) == 3006
        labels = lang.morphism.labels
        assert kernel == [0] + [s for s, label in enumerate(labels) if len(set(label)) < 5]
