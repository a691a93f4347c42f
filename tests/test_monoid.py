import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    is_aperiodic,
    is_group,
    naive_syntactic_morphism,
    naive_validate_monoid,
    syntactic_class_count,
    words_up_to,
)
from conftest import recognized, syntactic_morphisms
from sfclosure import monoid
from sfclosure.automata import Dfa, accepts, compile_pattern, make_alphabet, minimize
from sfclosure.config import Config
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import (
    FiniteMonoid,
    Morphism,
    aperiodicity_witness,
    gather,
    generated_image,
    idempotent_power,
    idempotents,
    morphism_from_json,
    morphism_to_json,
    syntactic_morphism,
    validate_monoid,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def in_ab_star(w):
    return len(w) % 2 == 0 and all(w[i] == "ab"[i % 2] for i in range(len(w)))


def in_pair_star(w):
    return len(w) % 2 == 0 and all(w[i] == w[i + 1] for i in range(0, len(w), 2))


# Syntactic class counts frozen from two-sided context signatures of plain
# predicates, independent of the transformation-monoid construction.
MONOID_GOLDENS = [
    ("(ab)*", AB, in_ab_star, 6),
    ("~%a~%", AB, lambda w: "a" in w, 2),
    ("(aa)*", A, lambda w: len(w) % 2 == 0, 2),
    ("(aa)*", AB, lambda w: len(w) % 2 == 0 and set(w) <= {"a"}, 3),
    ("(aa+bb)*", AB, in_pair_star, 15),
]


@pytest.mark.parametrize("pattern, alphabet, predicate, size", MONOID_GOLDENS)
def test_syntactic_monoid_size_goldens(pattern, alphabet, predicate, size):
    assert syntactic_class_count(predicate, alphabet, 6, 3) == size
    lang = syntactic_morphism(compile_pattern(pattern, alphabet))
    assert lang.morphism.codomain.size == size


def test_syntactic_morphism_recognizes(corpus):
    for dfa in corpus[:50]:
        lang = syntactic_morphism(dfa)
        for w in words_up_to(AB, 5):
            assert lang.member(w) == accepts(dfa, w)


def test_syntactic_morphism_cap():
    with pytest.raises(ResourceLimitError):
        syntactic_morphism(compile_pattern("(aa+bb)*", AB), cap=8)


def test_syntactic_morphism_cap_defaults_to_the_config(monkeypatch):
    # the syntactic monoid of (aa+bb)* has 15 elements
    dfa = compile_pattern("(aa+bb)*", AB)
    monkeypatch.setattr(monoid, "DEFAULT", Config(monoid_cap=14))
    with pytest.raises(ResourceLimitError):
        syntactic_morphism(dfa)
    monkeypatch.setattr(monoid, "DEFAULT", Config(monoid_cap=15))
    assert syntactic_morphism(dfa).morphism.codomain.size == 15


@st.composite
def small_dfas(draw):
    alphabet = make_alphabet(draw(st.sampled_from(["ab", "abc"])))
    states = draw(st.integers(1, 5))
    delta = tuple(
        tuple(draw(st.integers(0, states - 1)) for _ in alphabet) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if draw(st.booleans()))
    return Dfa(alphabet, states, draw(st.integers(0, states - 1)), finals, delta)


@settings(max_examples=300)
@given(small_dfas(), st.integers(1, 80))
def test_cayley_closure_matches_composed_tables(dfa, cap):
    try:
        expected = naive_syntactic_morphism(dfa, cap=cap)
    except ResourceLimitError as exc:
        with pytest.raises(ResourceLimitError) as raised:
            syntactic_morphism(dfa, cap=cap)
        assert str(raised.value) == str(exc)
        return
    assert syntactic_morphism(dfa, cap=cap) == expected


@pytest.mark.parametrize("indices", [(), (2,), (3, 0, 3, 1)], ids=["none", "one", "several"])
def test_gather_always_returns_a_tuple(indices):
    row = (10, 11, 12, 13)
    expected = tuple(row[i] for i in indices)
    assert gather(indices)(row) == expected
    assert gather(iter(indices))(row) == expected


@pytest.mark.parametrize("pattern, accepting", [("~%", {0}), ("%", set())])
def test_one_state_dfa_has_the_trivial_monoid(pattern, accepting):
    dfa = compile_pattern(pattern, AB)
    assert minimize(dfa).states == 1
    lang = syntactic_morphism(dfa)
    assert lang == naive_syntactic_morphism(dfa)
    assert lang.morphism.codomain == FiniteMonoid(1, 0, ((0,),))
    assert lang.morphism.letter_images == (0, 0)
    assert lang.morphism.labels == ((0,),)
    assert lang.accepting == frozenset(accepting)


def test_syntactic_morphism_identity_label():
    lang = recognized("(ab)*")
    m = lang.morphism
    assert m.labels[m.codomain.identity] == tuple(range(3))


def test_validate_monoid_reports_broken_tables():
    with pytest.raises(InputError, match="identity"):
        validate_monoid(FiniteMonoid(2, 0, ((0, 0), (0, 0))))
    # fails x(yz) = (xy)z at some triple
    with pytest.raises(InputError, match="associat"):
        validate_monoid(FiniteMonoid(3, 0, ((0, 1, 2), (1, 2, 2), (2, 2, 1))))


@st.composite
def broken_tables(draw):
    """A random table of at most four elements, often with a lawful
    identity, or a syntactic monoid's table with up to three entries
    overwritten."""
    if draw(st.booleans()):
        size = draw(st.integers(1, 4))
        cell = st.integers(0, size - 1)
        mul = [draw(st.lists(cell, min_size=size, max_size=size)) for _ in range(size)]
        if draw(st.booleans()):
            for s in range(size):
                mul[0][s] = mul[s][0] = s
        return FiniteMonoid(size, 0, tuple(map(tuple, mul)))
    m = draw(syntactic_morphisms(max_states=4, cap=40)).codomain
    mul = [list(row) for row in m.mul]
    cell = st.integers(0, m.size - 1)
    for x, y, v in draw(st.lists(st.tuples(cell, cell, cell), max_size=3)):
        mul[x][y] = v
    return FiniteMonoid(m.size, m.identity, tuple(map(tuple, mul)))


@settings(max_examples=300)
@given(broken_tables())
def test_row_validation_reports_the_first_broken_triple(m):
    try:
        naive_validate_monoid(m)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            validate_monoid(m)
        assert str(raised.value) == str(exc)
    else:
        validate_monoid(m)


def test_monoid_shape_validation():
    with pytest.raises(InputError):
        FiniteMonoid(2, 0, ((0, 1),))
    with pytest.raises(InputError):
        FiniteMonoid(2, 2, ((0, 1), (1, 0)))
    with pytest.raises(InputError):
        FiniteMonoid(2, 0, ((0, 3), (1, 0)))


def test_idempotent_power_properties(corpus_languages):
    for lang in corpus_languages[:60]:
        m = lang.morphism.codomain
        for s in range(m.size):
            e = idempotent_power(m, s)
            assert m.mul[e][e] == e


def test_idempotent_power_golden():
    m = recognized("(aa)*", A).morphism.codomain
    g = 1 - m.identity
    # the nontrivial element of the two-element group squares to identity
    assert idempotent_power(m, g) == m.identity
    assert idempotents(m) == (m.identity,)


def test_is_aperiodic_goldens():
    assert is_aperiodic(recognized("(ab)*").morphism.codomain)
    assert not is_aperiodic(recognized("(aa)*", A).morphism.codomain)


def test_is_aperiodic_subset_must_be_closed():
    m = recognized("(aa)*", A).morphism.codomain
    g = 1 - m.identity
    with pytest.raises(InputError):
        is_aperiodic(m, frozenset([g]))
    assert is_aperiodic(m, frozenset([m.identity]))


def test_aperiodicity_witness_remultiplies():
    m = recognized("(aa)*", A).morphism.codomain
    s = aperiodicity_witness(m, frozenset(range(m.size)))
    assert s is not None
    e = idempotent_power(m, s)
    assert m.mul[e][s] != e
    assert aperiodicity_witness(recognized("(ab)*").morphism.codomain,
                                frozenset(range(6))) is None


def test_is_group(s3_morphism):
    assert is_group(s3_morphism.codomain)
    assert not is_group(recognized("~%a~%").morphism.codomain)


def test_morphism_of_word(s3_morphism):
    m = s3_morphism.codomain
    assert s3_morphism.of_word("") == m.identity
    assert s3_morphism.of_word("aa") == m.identity
    assert s3_morphism.of_word("bbb") == m.identity
    assert s3_morphism.of_word("ab") != s3_morphism.of_word("ba")


def test_generated_image():
    m = recognized("(aa)*", A).morphism.codomain
    assert generated_image(m, ()) == {m.identity}
    assert generated_image(m, (1 - m.identity,)) == {0, 1}


def test_morphism_json_round_trip(s3_morphism):
    doc = morphism_to_json(s3_morphism)
    back = morphism_from_json(doc)
    assert back.codomain.mul == s3_morphism.codomain.mul
    assert back.letter_images == s3_morphism.letter_images

    lang = recognized("(ab)*")
    doc2 = morphism_to_json(lang)
    back2 = morphism_from_json(doc2)
    for w in words_up_to(AB, 5):
        assert back2.member(w) == lang.member(w)


def test_morphism_json_rejects_malformed():
    lang = recognized("(ab)*")
    base = morphism_to_json(lang)

    doc = dict(base)
    del doc["mul"]
    with pytest.raises(InputError):
        morphism_from_json(doc)

    doc = dict(base, accepting=[99])
    with pytest.raises(InputError):
        morphism_from_json(doc)

    doc = dict(base, mul=[row[::-1] for row in base["mul"]])
    with pytest.raises(InputError):
        morphism_from_json(doc)

    with pytest.raises(InputError):
        morphism_from_json("not a dict")


@given(st.integers(0, 5), st.integers(0, 5))
def test_of_word_is_multiplicative(i, j):
    lang = recognized("(aab)*ab")
    m = lang.morphism.codomain
    u = "ab" * i + "a" * j
    v = "b" * j + "ba" * i
    assert lang.morphism.of_word(u + v) == m.mul[lang.morphism.of_word(u)][
        lang.morphism.of_word(v)
    ]
