import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import naive_compare_sampled, naive_ltl, words_up_to
from sfclosure import ltl
from sfclosure.automata import MAX_NESTING, Dfa, accepts, compile_pattern, make_alphabet
from sfclosure.errors import InputError
from sfclosure.ltl import (
    And,
    LetterAt,
    Max,
    Min,
    Top,
    Until,
    compare_sampled,
    compile_formula,
    eval_at,
    eval_word,
    parse_formula,
)
from sfclosure.membership import sf_membership
from sfclosure.oracles import MOD, st_class

AB = make_alphabet("ab")

# the two handwritten specifications the evaluator is checked against
AB_STAR_FORMULA = "X(a | max) & U((!a | X(b)) & (!b | X(a | max)), max)"
PAIR_STAR_FORMULA = (
    "F[((a+b)(a+b))*](max)"
    " & U(!F[((a+b)(a+b))*(a+b)](max) | (a & X(a)) | (b & X(b)), max)"
)
# their mirror images, read at the artificial maximum: U and S swap, X(p)
# becomes S[_](!top, p), F[L](p) becomes S[rev L](top, p), min and max swap
BA_STAR_FORMULA = (
    "S[_](!top, a | min) & S((!a | S[_](!top, b)) & (!b | S[_](!top, a | min)), min)"
)
MIRRORED_PAIR_STAR_FORMULA = (
    "S[((a+b)(a+b))*](top, min)"
    " & S(!S[(a+b)((a+b)(a+b))*](top, min) | (a & S[_](!top, a)) | (b & S[_](!top, b)), min)"
)


def holds(text: str, word: str, position: int = 0) -> bool:
    return eval_at(parse_formula(text, AB), word, position)


class TestConnectives:
    def test_letters_live_on_interior_positions(self):
        f = parse_formula("a", AB)
        assert [eval_at(f, "ab", i) for i in range(4)] == [False, True, False, False]

    def test_min_max_frame_the_word(self):
        assert holds("min", "ab", 0)
        assert holds("max", "ab", 3)
        assert not holds("max", "ab", 2)
        # even the empty word keeps the two artificial endpoints distinct
        assert holds("min & !max", "", 0)
        assert holds("max & !min", "", 1)

    def test_next_steps_one_position(self):
        assert holds("X(a)", "ab", 0)
        assert holds("X(b)", "ab", 1)
        assert not holds("X(a)", "ab", 1)
        assert not holds("X(a)", "", 0)
        assert holds("X(max)", "", 0)

    def test_eventually_scans_forward(self):
        assert holds("F(a)", "bba")
        assert not holds("F(a)", "bbb")
        assert holds("F(max)", "")

    def test_bounded_eventually_filters_by_infix(self):
        # reachable a's exist, but none at even distance from the left end
        assert holds("F[(a+b)(a+b)](a)", "bba")
        assert not holds("F[(a+b)(a+b)](a)", "ba")

    def test_since_mirrors_until(self):
        f = parse_formula("S(b, a)", AB)
        # at position 4 of "abb": was an a, with only b's since
        assert eval_at(f, "abb", 4)
        assert not eval_at(f, "bbb", 4)

    def test_until_requires_the_left_side_strictly_between(self):
        assert holds("U(a, b)", "aab")
        # an adjacent target leaves nothing between, so the left side is moot
        assert holds("U(a, b)", "abb", 1)
        assert not holds("U(a, a)", "ba")


class TestParsing:
    def test_bound_brackets_nest(self):
        f = parse_formula("U[~(~%a~%)](top, max)", AB)
        assert isinstance(f, Until)
        assert eval_at(f, "bb", 0)
        assert not eval_at(f, "ba", 0)

    def test_bad_bound_pattern_is_an_input_error(self):
        with pytest.raises(InputError, match="offset"):
            parse_formula("U[(a](top, max)", AB)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(InputError, match="trailing input"):
            parse_formula("a b", AB)

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError):
            parse_formula("c", AB)

    def test_position_out_of_range(self):
        f = parse_formula("top", AB)
        with pytest.raises(InputError, match="position"):
            eval_at(f, "ab", 4)
        with pytest.raises(InputError, match="position"):
            eval_at(f, "ab", -1)

    @pytest.mark.parametrize("text", ["!" * 3000 + "a", "X(" * 400 + "a" + ")" * 400])
    def test_deep_nesting_is_an_input_error(self, text):
        with pytest.raises(InputError, match="nested deeper"):
            parse_formula(text, AB)

    def test_nesting_below_the_bound_evaluates(self):
        depth = MAX_NESTING - 1
        f = parse_formula("X(" * depth + "max" + ")" * depth, AB)
        assert eval_word(f, "a" * (depth - 1))
        assert not eval_word(f, "a" * depth)

    @pytest.mark.parametrize("wrap", ["U(top, ", "S(top, ", "X(", "!"])
    def test_deepest_formula_around_deepest_bound_evaluates(self, wrap):
        # both parsers recurse at once: the formula's nesting levels
        # around a bound regex nested MAX_NESTING levels deep
        pattern = "(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1) + "*"
        closing = "" if wrap == "!" else ")"
        depth = MAX_NESTING - 2
        deep, shallow = (
            parse_formula(wrap * depth + f"F[{p}](max)" + closing * depth, AB)
            for p in (pattern, "a*")
        )
        for word in ("", "aa", "ab", "b" * depth):
            assert eval_word(deep, word) == eval_word(shallow, word)

    def test_word_letter_outside_the_bound_alphabet(self):
        with pytest.raises(InputError, match="not in the alphabet"):
            eval_word(parse_formula("F(a)", AB), "ca")

    def test_word_letter_outside_the_bound_alphabet_going_forward(self):
        # the since sweep reads the 'c' after the 'a' that starts it
        with pytest.raises(InputError, match="symbol 'c' is not in the alphabet"):
            eval_word(parse_formula("S(top, a)", AB), "ac")

    @pytest.mark.parametrize(
        "letters, text, expected",
        [
            # the operator letters U, S, F and X are read as operators
            ("UX", "U", "offset 1: expected '('"),
            ("UX", "X", "offset 1: expected '('"),
            ("SF", "S", "offset 1: expected '('"),
            ("SF", "F", "offset 1: expected '('"),
            ("aS", "S(a, S)", "offset 6: expected '('"),
            # top, min and max are read before single letters
            ("opt", "top", Top()),
            ("opt", "t", LetterAt("t")),
            ("imn", "min", Min()),
            ("amx", "max", Max()),
            ("amx", "m & a", And(LetterAt("m"), LetterAt("a"))),
        ],
    )
    def test_keywords_before_letters(self, letters, text, expected):
        alphabet = make_alphabet(letters)
        if isinstance(expected, str):
            with pytest.raises(InputError, match=re.escape(expected)):
                parse_formula(text, alphabet)
        else:
            assert parse_formula(text, alphabet) == expected

    def test_constructed_and_parsed_agree(self):
        built = Until(compile_pattern("~%", AB), Top(), LetterAt("a"))
        parsed = parse_formula("U(top, a)", AB)
        for word in ("", "a", "ba", "bb", "aab"):
            assert eval_word(built, word) == eval_word(parsed, word)


class TestFrozenFormulas:
    def test_ab_star_formula_matches_language(self):
        f = parse_formula(AB_STAR_FORMULA, AB)
        dfa = compile_pattern("(ab)*", AB)
        assert compare_sampled(f, dfa, AB, max_length=6) == []

    def test_pair_star_formula_matches_language(self):
        f = parse_formula(PAIR_STAR_FORMULA, AB)
        dfa = compile_pattern("(aa+bb)*", AB)
        assert compare_sampled(f, dfa, AB, max_length=6) == []

    def test_mismatches_are_reported(self):
        f = parse_formula("F(a)", AB)
        dfa = compile_pattern("~%a~%", AB)
        # F(a) at position 0 sees interior a's only; agreement is exact here,
        # at any length
        assert compare_sampled(f, dfa, AB, max_length=4) == []
        assert compare_sampled(f, dfa, AB, max_length=10**20) == []
        wrong = compile_pattern("a~%", AB)
        mismatches = compare_sampled(f, wrong, AB, max_length=3)
        assert "ba" in mismatches


formula_text = st.deferred(
    lambda: st.one_of(
        st.sampled_from(["a", "b", "top", "min", "max"]),
        formula_text.map(lambda f: f"!({f})"),
        st.tuples(formula_text, formula_text).map(lambda p: f"({p[0]} & {p[1]})"),
        st.tuples(formula_text, formula_text).map(lambda p: f"({p[0]} | {p[1]})"),
        formula_text.map(lambda f: f"X({f})"),
        st.tuples(
            st.sampled_from(["~%", "((a+b)(a+b))*", "_", "a~%"]),
            formula_text,
            formula_text,
        ).map(lambda t: f"U[{t[0]}]({t[1]}, {t[2]})"),
        st.tuples(
            st.sampled_from(["~%", "((a+b)(a+b))*", "b~%"]),
            formula_text,
            formula_text,
        ).map(lambda t: f"S[{t[0]}]({t[1]}, {t[2]})"),
    )
)


@given(formula_text, st.text(alphabet="ab", max_size=8))
def test_sweep_evaluator_matches_naive(text, word):
    formula = parse_formula(text, AB)
    for position in range(len(word) + 2):
        assert eval_at(formula, word, position) == naive_ltl(formula, word, position)


@pytest.mark.parametrize(
    "text, pattern, blocks",
    [(AB_STAR_FORMULA, "(ab)*", ["ab"]), (PAIR_STAR_FORMULA, "(aa|bb)*", ["aa", "bb"])],
    ids=["ab-star", "pair-star"],
)
def test_acceptance_formulas_on_long_words(text, pattern, blocks):
    # 1,600-letter members and their one-letter mutants, against re
    f = parse_formula(text, AB)
    rng = random.Random(1600)
    member = "".join(rng.choice(blocks) for _ in range(800))
    assert eval_word(f, member)
    for i in [0, 1, 799, 800, 1598, 1599] + rng.sample(range(1600), 10):
        mutant = member[:i] + "ba"[member[i] == "b"] + member[i + 1:]
        assert eval_word(f, mutant) == bool(re.fullmatch(pattern, mutant))


@pytest.mark.parametrize(
    "text, pattern, blocks",
    [
        (BA_STAR_FORMULA, "(ba)*", ["ba"]),
        (MIRRORED_PAIR_STAR_FORMULA, "(aa|bb)*", ["aa", "bb"]),
    ],
    ids=["ba-star", "pair-star"],
)
def test_mirrored_acceptance_formulas_on_long_words(text, pattern, blocks):
    # the since sweep on every word up to 6 letters, then on 1,600-letter
    # members and their one-letter mutants, against re
    f = parse_formula(text, AB)
    for word in words_up_to(AB, 6):
        assert eval_at(f, word, len(word) + 1) == bool(re.fullmatch(pattern, word))
    rng = random.Random(1600)
    member = "".join(rng.choice(blocks) for _ in range(800))
    assert eval_at(f, member, 1601)
    for i in [0, 1, 799, 800, 1598, 1599] + rng.sample(range(1600), 10):
        mutant = member[:i] + "ba"[member[i] == "b"] + member[i + 1:]
        assert eval_at(f, mutant, 1601) == bool(re.fullmatch(pattern, mutant))


atom_text = st.sampled_from(["a", "b", "!a", "top", "min", "max", "X(b)", "a | max"])


@settings(max_examples=200)
@given(
    st.sampled_from(["U", "S"]),
    st.sampled_from(["~%", "((a+b)(a+b))*", "_", "a~%", "b~%", "~%a", "(ab)*"]),
    atom_text,
    atom_text,
    st.text(alphabet="ab", max_size=8),
)
def test_single_sweep_matches_naive(op, bound, left, right, word):
    formula = parse_formula(f"{op}[{bound}]({left}, {right})", AB)
    for position in range(len(word) + 2):
        assert eval_at(formula, word, position) == naive_ltl(formula, word, position)


def test_word_slice_of_formula_language():
    # cross-check eval_word against the compiled DFA over a full slice
    f = parse_formula(AB_STAR_FORMULA, AB)
    dfa = compile_pattern("(ab)*", AB)
    for word in words_up_to(AB, 7):
        assert eval_word(f, word) == accepts(dfa, word)


def regex_text(letters: str):
    return st.recursive(
        st.sampled_from([*letters, "_", "~%"]),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"({p[0]}{p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]}+{p[1]})"),
            inner.map(lambda r: f"({r})*"),
            inner.map(lambda r: f"~({r})"),
        ),
        max_leaves=4,
    )


def bounded_formula_text(letters: str, bound=None):
    bound = regex_text(letters) if bound is None else bound
    return st.recursive(
        st.sampled_from([*letters, "top", "min", "max"]),
        lambda inner: st.one_of(
            inner.map(lambda f: f"!({f})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} & {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} | {p[1]})"),
            inner.map(lambda f: f"X({f})"),
            st.tuples(bound, inner).map(lambda t: f"F[{t[0]}]({t[1]})"),
            st.tuples(st.sampled_from("US"), bound, inner, inner).map(
                lambda t: f"{t[0]}[{t[1]}]({t[2]}, {t[3]})"
            ),
        ),
        max_leaves=6,
    )


@given(st.sampled_from(["01", "10"]), st.data())
def test_sweep_evaluator_matches_naive_over_digits(letters, data):
    # the letter vectors read the word as binary digits, so the letters 0
    # and 1 must each be mapped, whichever letter the formula names
    alphabet = make_alphabet(letters)
    formula = parse_formula(data.draw(bounded_formula_text(letters)), alphabet)
    word = data.draw(st.text(alphabet=letters, max_size=8))
    for position in range(len(word) + 2):
        assert eval_at(formula, word, position) == naive_ltl(formula, word, position)


@st.composite
def dfas(draw, letters: str, max_states: int = 4):
    states = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, states - 1)) for _ in letters) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if draw(st.booleans()))
    initial = draw(st.integers(0, states - 1))
    return Dfa(make_alphabet(letters), states, initial, finals, delta)


def outcome(compare, *args):
    try:
        return compare(*args)
    except InputError as exc:
        return f"InputError: {exc}"


# alphabets of the formula (and so of its bounds), of the automaton and of
# the sample; where they differ, a bound or the automaton may lack a letter
# of the sample, and both comparisons must then raise the same error at the
# same word
ALPHABETS = ["ab", "ba", "bc", "abc", "cab"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALPHABETS), st.sampled_from(ALPHABETS), st.sampled_from(ALPHABETS),
       st.integers(0, 7), st.data())
def test_compare_matches_word_by_word(formula_letters, dfa_letters, letters, max_length, data):
    formula = parse_formula(data.draw(bounded_formula_text(formula_letters)),
                            make_alphabet(formula_letters))
    dfa = data.draw(dfas(dfa_letters))
    alphabet = make_alphabet(letters)
    if len(letters) == 3:
        max_length = min(max_length, 5)
    compared = outcome(compare_sampled, formula, dfa, alphabet, max_length)
    assert compared == outcome(naive_compare_sampled, formula, dfa, alphabet, max_length)


# one letter set, the formula's, the automaton's and the sample's alphabet
# each in its own order: no evaluation can raise, so the compiled path runs
LETTER_SETS = [["ab", "ba"], ["abc", "cab", "bca"]]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LETTER_SETS), st.integers(0, 7), st.data())
def test_compare_on_one_letter_set(orders, max_length, data):
    formula_letters, dfa_letters, letters = (data.draw(st.sampled_from(orders)) for _ in range(3))
    formula = parse_formula(data.draw(bounded_formula_text(formula_letters)),
                            make_alphabet(formula_letters))
    dfa = data.draw(dfas(dfa_letters))
    alphabet = make_alphabet(letters)
    if len(letters) == 3:
        max_length = min(max_length, 5)
    # the reference imports eval_word when called, so it runs before the patch
    expected = naive_compare_sampled(formula, dfa, alphabet, max_length)
    # a word-by-word evaluation fails the test: only the compiled DFA may answer
    word_by_word = AssertionError("compare_sampled evaluated a single word")
    with mock.patch.object(ltl, "eval_word", side_effect=word_by_word):
        assert compare_sampled(formula, dfa, alphabet, max_length) == expected


def test_first_failing_word_decides_the_error():
    # the bound lacks a and the automaton lacks c: "a" fails before "c"
    formula = parse_formula("F(max)", make_alphabet("bc"))
    dfa = compile_pattern("~%", make_alphabet("ab"))
    abc = make_alphabet("abc")
    with pytest.raises(InputError, match="'a'"):
        naive_compare_sampled(formula, dfa, abc, 1)
    with pytest.raises(InputError, match="'a'"):
        compare_sampled(formula, dfa, abc, 1)


def test_compare_lists_long_words_in_order():
    # the mismatches among all 8,192 words of length 13 run from a... to b...
    formula = parse_formula(PAIR_STAR_FORMULA, AB)
    dfa = compile_pattern("(aa+ab)*+a~%b+b~%", AB)
    mismatches = compare_sampled(formula, dfa, AB, 13)
    assert mismatches == naive_compare_sampled(formula, dfa, AB, 13)
    longest = [w for w in mismatches if len(w) == 13]
    assert longest[0][0] == "a" and longest[-1][0] == "b"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["ab", "ba", "abc"]), st.data())
def test_compiled_formula_accepts_what_the_sweeps_accept(letters, data):
    # every word of up to 8 letters, 5 over three letters, U and S mixed
    alphabet = make_alphabet(letters)
    formula = parse_formula(data.draw(bounded_formula_text(letters)), alphabet)
    dfa = compile_formula(formula, alphabet)
    for word in words_up_to(alphabet, 8 if len(letters) == 2 else 5):
        assert accepts(dfa, word) == eval_word(formula, word), word


def test_compile_needs_every_letter_in_every_bound():
    formula = parse_formula("F(b)", AB)
    # the words with a b, over the same letters in another order
    assert compile_formula(formula, make_alphabet("ba")).delta == ((1, 0), (1, 1))
    with pytest.raises(InputError, match="bound"):
        compile_formula(formula, make_alphabet("abc"))


# bounds drawn from a class C: the formula's language lies in SF(C)
CLASS_BOUNDS = {
    "st": ["~%", "%"],
    "mod": ["~%", "%", "((a+b)(a+b))*", "(a+b)((a+b)(a+b))*", "((a+b)(a+b)(a+b))*"],
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CLASS_BOUNDS)), st.data())
def test_formulas_with_bounds_in_c_lie_in_the_star_free_closure(name, data):
    text = data.draw(bounded_formula_text("ab", st.sampled_from(CLASS_BOUNDS[name])))
    dfa = compile_formula(parse_formula(text, AB), AB)
    assert sf_membership(st_class(AB) if name == "st" else MOD, dfa).answer, text


def test_even_length_bound_leaves_the_star_free_languages():
    # negative control: the words of even length lie in SF(mod), not in SF(st)
    dfa = compile_formula(parse_formula("F[((a+b)(a+b))*](max)", AB), AB)
    assert not sf_membership(st_class(AB), dfa).answer
    assert sf_membership(MOD, dfa).answer


def test_each_bound_compiles_once_per_parse():
    # the three golden formulas hold 13 bounds, 10 distinct within their formula
    golden = Path(__file__).parent / "golden" / "bridges"
    texts = [path.read_text(encoding="utf-8") for path in sorted(golden.glob("*.ltl"))]
    with mock.patch.object(ltl, "compile_pattern", wraps=compile_pattern) as spy:
        for text in texts:
            parse_formula(text, AB)
    assert spy.call_count == 10
