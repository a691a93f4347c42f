import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    accepted_slice,
    dfa_from_json,
    is_empty,
    naive_compile_pattern,
    naive_dfa_word,
    naive_dfa_words,
    naive_explore_order,
    naive_minimize,
    nerode_class_count,
    rebuilt,
    words_up_to,
)
from sfclosure.automata import (
    MAX_NESTING,
    Dfa,
    _dfa_word,
    _dfa_words,
    accepted_words,
    accepts,
    compile_pattern,
    complement,
    concat,
    dfa_to_json,
    explore,
    make_alphabet,
    minimize,
    product,
    reverse,
    shortest_word,
    star,
)
from sfclosure.errors import InputError, ResourceLimitError

AB = make_alphabet("ab")
A = make_alphabet("a")


def in_ab_star(w):
    return len(w) % 2 == 0 and all(
        w[i] == "ab"[i % 2] for i in range(len(w))
    )


def has_a(w):
    return "a" in w


def even_a_only(w):
    return len(w) % 2 == 0 and all(c == "a" for c in w)


def in_pair_star(w):
    return len(w) % 2 == 0 and all(w[i] == w[i + 1] for i in range(0, len(w), 2))


# Minimal state counts were frozen from the quotient count of hand-written
# membership predicates before the subset construction existed.
GOLDENS = [
    ("(ab)*", AB, in_ab_star, 3),
    ("~%a~%", AB, has_a, 2),
    ("(aa)*", A, lambda w: len(w) % 2 == 0, 2),
    ("(aa)*", AB, even_a_only, 3),
    ("(aa+bb)*", AB, in_pair_star, 4),
]


@pytest.mark.parametrize("pattern, alphabet, predicate, states", GOLDENS)
def test_minimal_state_goldens(pattern, alphabet, predicate, states):
    assert nerode_class_count(predicate, alphabet, 6, 5) == states
    dfa = compile_pattern(pattern, alphabet)
    assert dfa.states == states


@pytest.mark.parametrize("pattern, alphabet, predicate, states", GOLDENS)
def test_compiled_language_matches_predicate(pattern, alphabet, predicate, states):
    dfa = compile_pattern(pattern, alphabet)
    for w in words_up_to(alphabet, 8):
        assert accepts(dfa, w) == predicate(w), w


def test_empty_and_epsilon_and_letter():
    assert is_empty(compile_pattern("%", AB))
    assert accepted_slice(compile_pattern("_", AB), 2) == {""}
    assert accepted_slice(compile_pattern("b", AB), 2) == {"b"}


def test_union_intersection_complement_difference():
    l1 = compile_pattern("(ab)*", AB)
    l2 = compile_pattern("~%a~%", AB)
    s1, s2 = accepted_slice(l1, 6), accepted_slice(l2, 6)
    univ = set(words_up_to(AB, 6))
    assert accepted_slice(product(l1, l2, "union"), 6) == s1 | s2
    assert accepted_slice(product(l1, l2, "intersection"), 6) == s1 & s2
    assert accepted_slice(product(l1, l2, "difference"), 6) == s1 - s2
    assert accepted_slice(complement(l1), 6) == univ - s1


def test_product_mode_validation():
    l1 = compile_pattern("a", AB)
    with pytest.raises(InputError):
        product(l1, l1, "xor")
    with pytest.raises(InputError):
        product(l1, compile_pattern("a", A), "union")


def test_concat_and_star_against_slices():
    k = compile_pattern("a+ab", AB)
    l = compile_pattern("b+%", AB)
    ks, ls = accepted_slice(k, 4), accepted_slice(l, 4)
    want = {u + v for u in ks for v in ls if len(u + v) <= 4}
    assert {w for w in accepted_slice(concat(k, l), 4)} == want

    base = accepted_slice(k, 6)
    closure = {""}
    for _ in range(6):
        closure |= {u + v for u in closure for v in base if len(u + v) <= 6}
    assert accepted_slice(star(k), 6) == closure


def test_intersect_and_nested_complement_patterns():
    # even-length words containing ab as an infix
    dfa = compile_pattern("~%ab~% & ((a+b)(a+b))*", AB)
    for w in words_up_to(AB, 6):
        assert accepts(dfa, w) == ("ab" in w and len(w) % 2 == 0)


def test_shortest_word():
    assert shortest_word(compile_pattern("%", AB)) is None
    assert shortest_word(compile_pattern("_", AB)) == ""
    assert shortest_word(compile_pattern("a(aa)*", A)) == "a"
    assert shortest_word(compile_pattern("(aab)*ab", AB)) == "ab"


def test_parse_errors_carry_offsets():
    with pytest.raises(InputError, match="offset 3"):
        compile_pattern("(ab", AB)
    with pytest.raises(InputError, match="offset 0"):
        compile_pattern(")", AB)
    with pytest.raises(InputError):
        compile_pattern("c", AB)


def nested_regexes(height: int) -> dict[str, str]:
    """Regexes whose deepest path has `height` '(' / '~' / '*' levels."""
    return {
        "parentheses": "(" * height + "a" + ")" * height,
        "complements": "~" * height + "a",
        "stars": "a" + "*" * height,
        "mixed": "(~" * (height // 3) + "a" + "*)" * (height // 3) + "*" * (height % 3),
        # the stars on every parenthesis level add up along the path
        "stars-per-level": "(" * ((height - 1) // 2) + "a*" + ")*" * ((height - 1) // 2)
        + "*" * ((height - 1) % 2),
    }


@pytest.mark.parametrize("kind", sorted(nested_regexes(1)))
def test_regex_nesting_bound(kind):
    compile_pattern(nested_regexes(MAX_NESTING)[kind], AB)
    with pytest.raises(InputError, match="nested deeper than"):
        compile_pattern(nested_regexes(MAX_NESTING + 1)[kind], AB)


def test_alphabet_validation():
    with pytest.raises(InputError):
        make_alphabet("")
    with pytest.raises(InputError):
        make_alphabet("aa")
    with pytest.raises(InputError):
        make_alphabet("a!")


def test_dfa_json_round_trip(corpus):
    for dfa in corpus[:40]:
        assert dfa_from_json(dfa_to_json(dfa)) == dfa


def test_dfa_json_rejects_malformed():
    doc = dfa_to_json(compile_pattern("(ab)*", AB))
    doc["delta"][0][0] = 99
    with pytest.raises(InputError):
        dfa_from_json(doc)


@pytest.mark.parametrize("field", ["states", "initial", "finals", "delta"])
def test_dfa_json_rejects_infinite_numbers(field):
    doc = dfa_to_json(compile_pattern("(ab)*", AB))
    doc[field] = {"states": float("inf"), "initial": float("-inf"),
                  "finals": [float("inf")], "delta": [[float("inf"), 0]]}[field]
    with pytest.raises(InputError, match="malformed DFA document"):
        dfa_from_json(doc)


def test_minimize_is_idempotent_and_canonical(corpus):
    for dfa in corpus[:60]:
        again = minimize(dfa)
        assert again == dfa  # corpus members are already minimal
        assert minimize(complement(complement(dfa))) == dfa
        # corpus members are marked minimal, which `minimize` returns as
        # they are; unmarked copies go through Hopcroft's refinement
        assert minimize(rebuilt(dfa)) == dfa
        assert minimize(rebuilt(complement(dfa))) == complement(dfa)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, 0, frozenset(), ()), "at least one state"),
        ((1, 1, frozenset(), ((0, 0),)), "initial state out of range"),
        ((1, 0, frozenset({1}), ((0, 0),)), "final state 1 out of range"),
        ((2, 0, frozenset(), ((0, 0),)), "one row per state"),
        ((1, 0, frozenset(), ((0,),)), "wrong width"),
        ((1, 0, frozenset(), ((0, 1),)), "transition target 1 out of range"),
    ],
)
def test_public_constructor_checks_every_field(fields, message):
    with pytest.raises(InputError, match=message):
        Dfa(AB, *fields)


def test_minimal_marker_is_not_a_field():
    marked = compile_pattern("(ab)*", AB)
    plain = rebuilt(marked)
    assert marked._minimal and not plain._minimal
    assert marked == plain and hash(marked) == hash(plain)
    assert repr(marked) == repr(plain)
    assert dfa_to_json(marked) == dfa_to_json(plain)
    assert [f.name for f in dataclasses.fields(marked)] == [
        "alphabet", "states", "initial", "finals", "delta"
    ]
    assert not dataclasses.replace(marked)._minimal


@pytest.mark.parametrize("letters", ["a", "ab", "ba", "abc", "cab"])
def test_word_chain_is_numbered_as_it_is_built(letters):
    alphabet = make_alphabet(letters)
    for word in words_up_to(alphabet, 6):
        dfa = _dfa_word(alphabet, word)
        assert dfa == naive_dfa_word(alphabet, word) == naive_minimize(dfa)
        assert dfa._minimal


@st.composite
def _word_sets(draw):
    # 0-6 words of 0-6 letters over a, ab or abc; a word may repeat an
    # earlier one or be a prefix of it, the empty word included
    alphabet = make_alphabet(draw(st.sampled_from(["a", "ab", "abc"])))
    words = []
    for _ in range(draw(st.integers(0, 6))):
        if words and draw(st.booleans()):
            earlier = draw(st.sampled_from(words))
            words.append(earlier[: draw(st.integers(0, len(earlier)))])
        else:
            words.append(draw(st.text(alphabet=alphabet.symbols, max_size=6)))
    return alphabet, words


@settings(max_examples=300, deadline=None)
@given(_word_sets())
def test_word_trie_matches_the_fold_of_word_chains(drawn):
    alphabet, words = drawn
    dfa = _dfa_words(alphabet, words)
    assert dfa == naive_dfa_words(alphabet, words) == rebuilt(dfa)
    assert dfa._minimal


def test_one_word_groups_extend_the_open_word():
    # a group that read one word joins the letters around it, so 4,000
    # groups build one chain rather than 4,000 concatenations
    for text in ["(ab)" * 30, "a(b)(_)((a))b(a+a)", "(ab)(a+b)(ab)", "(ab)*(ab)"]:
        assert compile_pattern(text, AB) == naive_compile_pattern(text, AB), text
    assert compile_pattern("(ab)" * 4000, AB) == _dfa_word(AB, "ab" * 4000)


@st.composite
def _complete_dfas(draw, alphabet=None):
    # 1-3 letters unless given, 1-12 states and a random initial state, so
    # that some states are often unreachable
    if alphabet is None:
        alphabet = make_alphabet("abc"[: draw(st.integers(1, 3))])
    states = draw(st.integers(1, 12))
    targets = st.integers(0, states - 1)
    delta = tuple(
        tuple(draw(targets) for _ in alphabet) for _ in range(states)
    )
    finals = frozenset(draw(st.sets(targets)))
    return Dfa(alphabet, states, draw(targets), finals, delta)


@settings(max_examples=300, deadline=None)
@given(_complete_dfas())
def test_shortest_word_is_the_first_accepted_word(dfa):
    # words_up_to lists words by length, then in alphabet order
    word = shortest_word(dfa)
    first = next((w for w in words_up_to(dfa.alphabet, 5) if accepts(dfa, w)), None)
    if first is not None:
        assert word == first
    elif is_empty(dfa):
        assert word is None
    else:
        assert len(word) > 5 and accepts(dfa, word)


@settings(max_examples=300, deadline=None)
@given(_complete_dfas(), st.integers(0, 5))
def test_accepted_words_are_the_slice_in_shortlex_order(dfa, n):
    # words_up_to lists words by length, then in alphabet order
    assert accepted_words(dfa, n) == [w for w in words_up_to(dfa.alphabet, n) if accepts(dfa, w)]


def test_accepted_words_stop_after_the_longest_word():
    assert accepted_words(_dfa_word(AB, "ab"), 10**20) == ["ab"]
    assert accepted_words(compile_pattern("%", AB), 10**20) == []


@settings(max_examples=300, deadline=None)
@given(_complete_dfas())
def test_reverse_accepts_the_mirror_images(dfa):
    mirror = reverse(dfa)
    for word in words_up_to(dfa.alphabet, 5):
        assert accepts(mirror, word) == accepts(dfa, word[::-1])


@settings(max_examples=500, deadline=None)
@given(_complete_dfas())
def test_minimize_matches_moore_refinement(dfa):
    # Hopcroft's refinement against the Moore loop it replaced
    assert minimize(dfa) == naive_minimize(dfa)


_pattern = st.deferred(
    lambda: st.one_of(
        st.sampled_from(["a", "b", "_", "%"]),
        st.tuples(_pattern, _pattern).map(lambda t: f"({t[0]}+{t[1]})"),
        st.tuples(_pattern, _pattern).map(lambda t: f"({t[0]}{t[1]})"),
        _pattern.map(lambda p: f"({p})*"),
        _pattern.map(lambda p: f"(~{p})"),
    )
)


@given(_pattern)
def test_compile_agrees_with_minimized_self(pattern):
    dfa = compile_pattern(pattern, AB)
    assert minimize(dfa) == dfa
    comp = complement(complement(dfa))
    assert minimize(comp) == dfa
    # the compiled DFA is marked minimal; unmarked copies of it and of its
    # complements go through Hopcroft's refinement
    assert minimize(rebuilt(dfa)) == dfa
    assert minimize(rebuilt(comp)) == dfa
    assert minimize(rebuilt(complement(dfa))) == complement(dfa)


@given(_pattern, st.integers(0, 4))
def test_complement_flips_acceptance(pattern, n):
    dfa = compile_pattern(pattern, AB)
    comp = complement(dfa)
    for w in words_up_to(AB, n):
        assert accepts(dfa, w) != accepts(comp, w)


def _compiled_or_error(compile_, text: str):
    try:
        return compile_(text, AB)
    except InputError as exc:
        return str(exc)


# well-formed texts with blanks, precedence and empty operands
_regex_text = st.recursive(
    st.sampled_from(["a", "b", "_", "%", ""]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "&", "", " "]), inner).map("".join),
        inner.map(lambda p: f"({p})*"),
        inner.map(lambda p: f"~{p}"),
        inner.map(lambda p: f" ({p})"),
    ),
    max_leaves=5,
)


# word-heavy: runs of 1-5 letters joined by '+', inside groups, under '*',
# '~' and '&', and next to '_' and '%'
_word_text = st.recursive(
    st.one_of(st.text(alphabet="ab", min_size=1, max_size=5), st.sampled_from(["_", "%"])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map("+".join),
        st.tuples(inner, inner).map("".join),
        inner.map(lambda p: f"({p})"),
        inner.map(lambda p: f"({p})*"),
        inner.map(lambda p: f"~({p})"),
        st.tuples(inner, inner).map("&".join),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="ab_%~()+&* c", max_size=20),
        _regex_text,
        # letter-heavy: letter runs, blanks before '*', runs next to groups
        st.text(alphabet="ab* ()+", max_size=40),
        _word_text,
    )
)
def test_compiling_while_parsing_matches_the_syntax_tree(text):
    # the same minimal DFA, or the same error, as parsing the whole text
    # into a syntax tree first and compiling that tree in post-order
    assert _compiled_or_error(compile_pattern, text) == _compiled_or_error(
        naive_compile_pattern, text
    )


# some texts of _regex_text, such as "~", are errors
_compiled = (
    st.one_of(_pattern, _regex_text)
    .map(lambda text: _compiled_or_error(compile_pattern, text))
    .filter(lambda dfa: isinstance(dfa, Dfa))
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_compiled, _complete_dfas()))
def test_minimal_marker_never_changes_an_answer(dfa):
    # compiled DFAs arrive marked, drawn ones unmarked
    small = minimize(dfa)
    assert small == minimize(rebuilt(dfa)) == naive_minimize(dfa)
    assert small._minimal
    comp = complement(small)
    assert comp._minimal and comp == minimize(rebuilt(comp))
    # the complement of an unmarked DFA stays unmarked
    assert minimize(complement(dfa)) == naive_minimize(complement(dfa))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_compiled, _complete_dfas(alphabet=AB)),
    st.one_of(_compiled, _complete_dfas(alphabet=AB)),
)
def test_every_built_dfa_passes_the_public_checks(left, right):
    built = [
        *(product(left, right, mode) for mode in ("union", "intersection", "difference")),
        concat(left, right),
        star(left),
        complement(left),
        minimize(left),
        reverse(left),
    ]
    for dfa in built:
        assert rebuilt(dfa) == dfa


@st.composite
def _successor_graphs(draw):
    # 1-7 states named by strings, 1-3 successors each, repeats allowed
    size = draw(st.integers(1, 7))
    width = draw(st.integers(1, 3))
    targets = st.integers(0, size - 1)
    table = {f"q{n}": [f"q{draw(targets)}" for _ in range(width)] for n in range(size)}
    return table, f"q{draw(targets)}"


@settings(max_examples=300, deadline=None)
@given(_successor_graphs())
def test_explore_numbers_breadth_first_and_caps(graph):
    table, start = graph
    order = naive_explore_order(start, table.__getitem__)
    states, rows = explore(start, table.__getitem__)
    assert states == order
    assert rows == [tuple(map(order.index, table[state])) for state in order]
    assert explore(start, table.__getitem__, len(order), "over") == (states, rows)
    for cap in range(1, len(order)):
        walked = []

        def successors(state):
            walked.append(state)
            return table[state]

        with pytest.raises(ResourceLimitError, match="^over$"):
            explore(start, successors, cap, "over")
        # it stops at the state whose row reaches state number cap first
        assert walked == order[:len(walked)]
        assert cap in rows[len(walked) - 1] and cap not in sum(rows[:len(walked) - 1], ())
