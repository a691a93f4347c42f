import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    accepted_slice,
    check_delay_witness,
    has_sync_delay,
    is_unambiguous_concat,
    ladder_min_sync_delay,
    naive_ambiguity_witness,
    naive_min_sync_delay,
    naive_plus_maps,
    naive_prefix_code_violation,
    naive_sync_delay_witness,
    rebuilt,
    search_delay_violation,
    schutzenberger_check,
    search_prefix_violation,
    tree_validate_sd_expression,
)
from sfclosure import sd
from sfclosure.automata import (
    MAX_NESTING,
    Dfa,
    accepts,
    breadth_first,
    compile_pattern,
    complement,
    make_alphabet,
    minimize,
    spell,
)
from sfclosure.config import Config
from sfclosure.errors import InputError
from sfclosure.membership import sf_membership
from sfclosure.oracles import MOD, st_class
from sfclosure.sd import (
    ambiguity_witness,
    is_prefix_code,
    min_sync_delay,
    parse_sd_expression,
    prefix_code_violation,
    sync_delay_witness,
    validate_sd_expression,
)

AB = make_alphabet("ab")
A = make_alphabet("a")
ABC = make_alphabet("abc")

EVEN = "((a+b)(a+b))*"

# blocks (bb)^j aa (aa)^i bb: sealed by the two trailing b's, so a decoding
# never stalls more than one block behind the reader
PAIR_STAR_EXPRESSION = (
    "uconcat("
    "uconcat("
    "star("
    "uconcat("
    f'capC(star(b, d=1), "{EVEN}"),'
    "uconcat("
    f'uconcat(uconcat(a, a), capC(star(a, d=1), "{EVEN}")),'
    "uconcat(b, b))),"
    "d=1),"
    f'capC(star(b, d=1), "{EVEN}")),'
    f'capC(star(a, d=1), "{EVEN}"))'
)


def code(pattern: str, alphabet=AB) -> Dfa:
    return minimize(compile_pattern(pattern, alphabet))


class TestVerdicts:
    def test_alphabet_is_delay_one(self):
        k = code("a+b")
        assert is_prefix_code(k)
        assert min_sync_delay(k) == 1
        assert search_delay_violation(k, 1) is None

    def test_marked_suffix_code_is_delay_one(self):
        k = code("a*b")
        assert is_prefix_code(k)
        assert min_sync_delay(k) == 1
        # delays are upward closed, so the nested-code bound d+1 also holds
        assert sync_delay_witness(k, 2) is None and has_sync_delay(k, 2)
        assert search_delay_violation(k, 1) is None

    def test_prefix_pair_is_rejected(self):
        k = code("a+aa")
        assert not is_prefix_code(k)
        assert prefix_code_violation(k) == "aa"
        assert search_prefix_violation(k) == "aa"

    def test_block_code_has_delay_exactly_two(self):
        k = code("(aab)*ab")
        assert is_prefix_code(k)
        witness = sync_delay_witness(k, 1)
        assert witness is not None
        assert check_delay_witness(k, 1, witness)
        assert sync_delay_witness(k, 2) is None and has_sync_delay(k, 2)
        assert min_sync_delay(k) == 2
        assert search_delay_violation(k, 2) is None

    def test_square_letter_code_has_no_finite_delay(self):
        k = code("aa", A)
        assert is_prefix_code(k)
        assert min_sync_delay(k, dmax=6) is None
        for d in (1, 2, 3):
            witness = sync_delay_witness(k, d)
            assert witness is not None and check_delay_witness(k, d, witness)


class TestDelayStructure:
    @pytest.mark.parametrize("pattern", ["a+b", "a*b", "(aab)*ab", "aab+b"])
    def test_delay_is_upward_closed(self, pattern):
        k = code(pattern)
        d = min_sync_delay(k)
        assert d is not None
        if d > 1:
            assert sync_delay_witness(k, d - 1) is not None
            assert not has_sync_delay(k, d - 1)
        for extra in range(d, d + 3):
            assert sync_delay_witness(k, extra) is None and has_sync_delay(k, extra)

    def test_epsilon_never_in_a_prefix_code(self):
        k = code("_+a")
        assert prefix_code_violation(k) == ""

    def test_witnesses_are_honest(self):
        # the violation triple must satisfy all three defining conditions
        k = code("aa", A)
        u, v, w = sync_delay_witness(k, 3)
        assert accepts(k, "aa")
        assert check_delay_witness(k, 3, (u, v, w))


class TestExpressionParsing:
    def test_star_needs_positive_delay(self):
        expr = parse_sd_expression("star(a, d=1)", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert violations == [] and dfa is not None
        with pytest.raises(InputError, match="at least 1"):
            validate_sd_expression(parse_sd_expression("star(a, d=0)", AB), AB)

    def test_star_delay_bound_enforced(self):
        expr = parse_sd_expression("star(a, d=9)", AB)
        with pytest.raises(InputError, match="exceeds"):
            validate_sd_expression(expr, AB, dmax=8)

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(InputError, match="offset"):
            parse_sd_expression("dunion(a", AB)
        with pytest.raises(InputError, match="expected an expression"):
            parse_sd_expression("frob(a, b)", AB)
        with pytest.raises(InputError, match="unterminated"):
            parse_sd_expression('capC(a, "abc', AB)
        with pytest.raises(InputError, match="unexpected"):
            parse_sd_expression("a b", AB)

    def test_nesting_bound(self):
        # every subexpression is a level: uconcat ... capC, then its b
        depth = MAX_NESTING - 2
        # the innermost regex is nested as deep as the regex parser allows
        pattern = "(" * (MAX_NESTING - 1) + "b" + ")" * (MAX_NESTING - 1) + "*"
        text = "uconcat(a, " * depth + f'capC(b, "{pattern}")' + ")" * depth
        dfa, violations = validate_sd_expression(parse_sd_expression(text, AB), AB)
        assert violations == [] and accepts(dfa, "a" * depth + "b")
        with pytest.raises(InputError, match="nested deeper than"):
            parse_sd_expression("uconcat(a, " * (depth + 2) + "b" + ")" * (depth + 2), AB)

    def test_letters_must_come_from_the_alphabet(self):
        with pytest.raises(InputError):
            parse_sd_expression("dunion(a, c)", AB)


class TestValidation:
    def test_union_must_be_disjoint(self):
        expr = parse_sd_expression("dunion(a, a)", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert dfa is None
        assert [v.rule for v in violations] == ["disjoint"]
        assert violations[0].witness == "a"
        assert violations[0].path == "root"

    def test_concat_must_be_unambiguous(self):
        # {a, ab} . {b, <eps>} splits "ab" two ways
        left = "dunion(a, uconcat(a, b))"
        right = "dunion(b, star(%, d=1))"
        expr = parse_sd_expression(f"uconcat({left}, {right})", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert dfa is None
        rules = {v.rule for v in violations}
        assert rules == {"unambiguous"}
        assert violations[0].witness == "ab"
        assert ambiguity_witness(code("a+ab"), code("b+_")) is not None
        assert not is_unambiguous_concat(code("a+ab"), code("b+_"))

    def test_star_requires_a_prefix_code(self):
        # (aa)+(bb)+ looks like a code for the doubled alphabet but is not one
        plus_pairs = "uconcat(uconcat(uconcat(a,a), capC(star(a,d=1), \"((a+b)(a+b))*\")), uconcat(uconcat(b,b), capC(star(b,d=1), \"((a+b)(a+b))*\")))"
        expr = parse_sd_expression(f"star({plus_pairs}, d=4)", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert dfa is None
        assert violations[0].rule == "prefix-code"
        assert violations[0].witness == "aabbbb"
        assert accepts(code("(aa)(aa)*(bb)(bb)*"), "aabb")

    def test_star_checks_the_declared_delay(self):
        expr = parse_sd_expression("star(uconcat(a, a), d=3)", A)
        dfa, violations = validate_sd_expression(expr, A)
        assert dfa is None
        assert violations[0].rule == "sync-delay"
        u, v, w = violations[0].witness
        assert check_delay_witness(code("aa", A), 3, (u, v, w))

    def test_nested_violations_report_paths(self):
        expr = parse_sd_expression("uconcat(dunion(a, a), b)", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert dfa is None
        assert violations[0].path == "root.left"
        doc = violations[0].to_json()
        assert set(doc) == {"path", "rule", "witness"}


class TestPairStarConstruction:
    def test_expression_is_fully_valid(self):
        expr = parse_sd_expression(PAIR_STAR_EXPRESSION, AB)
        dfa, violations = validate_sd_expression(expr, AB, dmax=8)
        assert violations == []
        assert dfa == code("(aa+bb)*")

    def test_inner_code_has_delay_one(self):
        k = code("(bb)*aa(aa)*bb")
        assert is_prefix_code(k)
        assert min_sync_delay(k) == 1
        assert search_delay_violation(k, 1, maxlen=8) is None

    def test_compiled_language_is_group_definable(self):
        expr = parse_sd_expression(PAIR_STAR_EXPRESSION, AB)
        dfa, _ = validate_sd_expression(expr, AB)
        assert sf_membership(MOD, dfa).answer

    def test_star_free_witness_goes_through_the_same_pipe(self):
        expr = parse_sd_expression("star(uconcat(a, b), d=1)", AB)
        dfa, violations = validate_sd_expression(expr, AB)
        assert violations == []
        assert dfa == code("(ab)*")


def random_code(rng: random.Random) -> Dfa | None:
    states = rng.randrange(2, 5)
    finals = frozenset(
        q for q in range(1, states) if rng.random() < 0.4
    )
    if not finals:
        return None
    delta = tuple(
        tuple(rng.randrange(states) for _ in AB) for _ in range(states)
    )
    k = minimize(Dfa(AB, states, 0, finals, delta))
    if accepts(k, "") or not accepted_slice(k, 5):
        return None
    return k


def random_finite_code(rng: random.Random) -> Dfa:
    """The minimal DFA of 2-5 drawn words of 1-4 letters, shortest first,
    each dropped when a kept word is a prefix of it."""
    words = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(2, 5))}
    kept: list[str] = []
    for word in sorted(words, key=lambda w: (len(w), w)):
        if not any(word.startswith(other) for other in kept):
            kept.append(word)
    return code("+".join(kept))


def test_random_codes_agree_with_brute_force():
    # random DFAs of 2-4 states rarely accept a code without delay 1, so
    # finite codes join them; those fail d = 1 and d = 2 often enough that
    # the witnesses, and a factor walk that reaches a second factor, are
    # checked, not only the absence of one
    rng = random.Random(20260814)
    codes: list[Dfa] = []
    while len(codes) < 20:
        k = random_code(rng)
        if k is None:
            continue
        brute_prefix = search_prefix_violation(k, maxlen=6)
        if is_prefix_code(k):
            assert brute_prefix is None
            codes.append(k)
        else:
            assert prefix_code_violation(k) is not None
    codes += [random_finite_code(rng) for _ in range(20)]
    witnesses = {1: 0, 2: 0}
    for k in codes:
        for d in (1, 2):
            witness = sync_delay_witness(k, d)
            if witness is None:
                assert search_delay_violation(k, d, maxlen=7) is None
            else:
                assert check_delay_witness(k, d, witness)
                witnesses[d] += 1
    assert witnesses[1] >= 10 and witnesses[2] >= 5, witnesses


@st.composite
def dfa_codes(draw, seal=True, alphabet=AB):
    """A DFA whose initial state 0 is not final.  Sealed, every final
    state leads only to the dead state, so it accepts a prefix code;
    unsealed, the final states keep random moves."""
    states = draw(st.integers(2, 5))
    dead = states
    finals = draw(st.frozensets(st.integers(1, states - 1), min_size=1))
    targets = st.integers(0, dead)
    delta = []
    for q in range(states):
        if seal and q in finals:
            delta.append((dead,) * len(alphabet))
        else:
            delta.append(tuple(draw(targets) for _ in alphabet))
    delta.append((dead,) * len(alphabet))
    return Dfa(alphabet, states + 1, 0, finals, tuple(delta))


@st.composite
def finite_codes(draw, alphabet=AB):
    """The minimal DFA of a finite prefix code: drawn words, shortest
    first, each dropped when a kept word is a prefix of it."""
    letters = "".join(alphabet.symbols)
    words = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=4), min_size=1))
    kept: list[str] = []
    for word in sorted(set(words), key=lambda w: (len(w), w)):
        if not any(word.startswith(other) for other in kept):
            kept.append(word)
    return code("+".join(kept), alphabet)


_codes = st.one_of(finite_codes(), dfa_codes(), dfa_codes(seal=False))
# prefix codes over one letter, where each is a single word or empty, and
# over three letters
_other_codes = st.one_of(
    finite_codes(A), dfa_codes(alphabet=A), finite_codes(ABC), dfa_codes(alphabet=ABC)
)

# the empty language, a sealed prefix code, and {ε}, which holds the empty
# word and so is no code
_edge_languages = st.sampled_from([code("%"), code("_")])


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("input error", str(exc))


@settings(max_examples=100)
@given(_codes, st.integers(1, 8))
def test_delay_ladder_matches_per_d_rebuild(k, dmax):
    # the factor walk answers what the first d without a per-d witness says
    assert outcome(min_sync_delay, k, dmax) == outcome(naive_min_sync_delay, k, dmax)
    for d in range(1, dmax + 1):
        triple = outcome(sync_delay_witness, k, d)
        assert triple == outcome(naive_sync_delay_witness, k, d)


@settings(max_examples=200)
@given(_codes | _other_codes | _edge_languages)
def test_least_delay_matches_the_factor_walk_ladder(k):
    # the rounds on k's own states against the factor walks over the
    # renumbered k+, from its states with a backward link
    for dmax in [*range(1, 9), 10**6]:
        assert outcome(min_sync_delay, k, dmax) == outcome(ladder_min_sync_delay, k, dmax)


def dead_states(dfa: Dfa) -> set[int]:
    return {q for q, row in enumerate(dfa.delta)
            if q not in dfa.finals and all(t == q for t in row)}


@settings(max_examples=200)
@given((_codes | _other_codes | _edge_languages).filter(is_prefix_code))
def test_every_state_of_plus_but_the_dead_one_is_live(k):
    # the least delay starts from every state but the dead one; that set is
    # exactly the states that reach a final state, whether or not the
    # renumbering kept the dead state
    plus, back = sd._plus_maps(k)
    assert len(dead_states(plus)) <= 1
    assert set(back) == set(range(plus.states)) - dead_states(plus)


@settings(max_examples=200)
@given((_codes | _other_codes).filter(is_prefix_code))
def test_one_round_reads_one_factor_from_each_state(k):
    # from one state, a second factor can lead elsewhere than the first:
    # each round must stop at the end of a factor; the factor walk over k+
    # in k's own numbering is the reference
    k = minimize(k)
    if not k.finals:
        return
    (final,) = k.finals
    dead = k.delta[final][0]
    rows = [k.delta[k.initial] if q == final else row for q, row in enumerate(k.delta)]
    plus = Dfa(k.alphabet, k.states, k.initial, k.finals, tuple(rows))
    for p in set(range(k.states)) - {dead}:
        walk = sd._factor_walk(k, plus, (p,), 1, {})
        ends = {end for end, count, _q in walk if count == 1} - {dead}
        assert sd._factor_ends(rows, final, dead, {p}, k.initial) == ends


def spy(monkeypatch, name: str) -> list:
    """Record the arguments of each call to the sd function `name`."""
    real, calls = getattr(sd, name), []
    monkeypatch.setattr(sd, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_unbounded_delay_stops_at_the_fixpoint(monkeypatch):
    # from every live state of (aa)+ one factor leads to {odd, even >= 2},
    # and so does a second: two rounds answer, however large dmax is
    rounds = spy(monkeypatch, "_factor_ends")
    assert min_sync_delay(code("aa", A), dmax=10**6) is None
    assert len(rounds) == 2


def test_holding_bound_is_not_walked_to_its_depth(monkeypatch):
    # a over {a} has delay 1, and delays are upward closed: the witness
    # search answers from one round instead of walking 10**6 factors, and
    # a holding bound builds no k+ and walks no factor
    def unused(*args):
        raise AssertionError("k+ built for a holding bound")

    rounds = spy(monkeypatch, "_factor_ends")
    monkeypatch.setattr(sd, "_plus_maps", unused)
    monkeypatch.setattr(sd, "_factor_walk", unused)
    assert sync_delay_witness(code("a", A), 10**6) is None
    assert len(rounds) == 1
    assert min_sync_delay(code("(aab)*ab"), 8) == 2
    expr = parse_sd_expression("star(uconcat(a, uconcat(a, b)), d=2)", AB)
    assert validate_sd_expression(expr, AB)[1] == []


@settings(max_examples=200)
@given(_codes)
def test_searches_match_their_references(k):
    assert prefix_code_violation(k) == naive_prefix_code_violation(k)
    if not is_prefix_code(k):
        return
    # k+ from k's own rows, the live states and the shortest words into a
    # final state, and the breadth-first prefixes in state order
    plus, back = sd._plus_maps(k)
    naive_plus, prefix, suffix = naive_plus_maps(k)
    assert plus == naive_plus
    assert {q: spell(back, q)[::-1] for q in back} == suffix
    ahead: dict = {}
    order = list(breadth_first((0,), lambda q: zip("ab", plus.delta[q]), ahead))
    assert order == list(range(plus.states))
    assert {q: spell(ahead, q) for q in order} == prefix


@settings(max_examples=200)
@given(_codes.filter(is_prefix_code))
def test_plus_automaton_passes_the_public_checks(k):
    plus, _ = sd._plus_maps(k)
    assert rebuilt(plus) == plus


@settings(max_examples=300)
@given(_codes | _codes.map(complement) | _edge_languages)
def test_sealed_dfas_accept_prefix_codes(k):
    # sealed implies a prefix code on every DFA, and on a minimal one the
    # two agree; the search behind the fast path still spells the witness
    violation = prefix_code_violation(k)
    assert violation == naive_prefix_code_violation(k)
    if sd._sealed(k):
        assert violation is None
    assert sd._sealed(minimize(k)) == (violation is None)


def test_delay_searches_minimize_only_marked_dfas(monkeypatch):
    # k+ is read off the minimal code DFA, so minimize only ever receives
    # a DFA that is marked minimal and returns it at once: no Hopcroft
    # pass over k+
    received = []
    real = sd.minimize
    monkeypatch.setattr(sd, "minimize", lambda dfa: received.append(dfa._minimal) or real(dfa))
    patterns = ["a+b", "aa+ab+b", "a+baab", "(aab)*ab", "(bb)*aa(aa)*bb", "ab+baa", "%"]
    for k in [code(pattern) for pattern in patterns] + [code("aa", A)]:
        min_sync_delay(k, 4)
        for d in (1, 2, 3):
            sync_delay_witness(k, d)
    assert received and all(received)


def test_delay_bound_defaults_to_the_config(monkeypatch):
    # (aab)*ab has least delay 2
    k = code("(aab)*ab")
    monkeypatch.setattr(sd, "DEFAULT", Config(delay_dmax=1))
    assert min_sync_delay(k) is None
    monkeypatch.setattr(sd, "DEFAULT", Config(delay_dmax=2))
    assert min_sync_delay(k) == 2


@settings(max_examples=200)
@given(_codes | _codes.map(complement), _codes | _codes.map(complement))
def test_ambiguity_witness_matches_its_reference(k, l):
    # complements hold the empty word, so splits at either end occur too
    assert ambiguity_witness(k, l) == naive_ambiguity_witness(k, l)


def sd_texts(delays):
    """SD expressions over ab whose class intersections use a language of
    ST (all words, no word) or the mod language EVEN, and whose star
    delays are drawn from `delays`."""
    return st.recursive(
        st.sampled_from(["a", "b", "%"]),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"dunion({p[0]}, {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"uconcat({p[0]}, {p[1]})"),
            st.tuples(inner, delays).map(lambda t: f"star({t[0]}, d={t[1]})"),
            st.tuples(inner, st.sampled_from(["~%", "%", EVEN])).map(
                lambda t: f'capC({t[0]}, "{t[1]}")'
            ),
        ),
        max_leaves=6,
    )


sd_text = sd_texts(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(sd_text)
def test_valid_sd_expressions_lie_in_the_star_free_closure(text):
    # Schützenberger: stars of prefix codes of bounded synchronization
    # delay, over languages of C, stay inside SF(C)
    dfa, violations = validate_sd_expression(parse_sd_expression(text, AB), AB)
    if violations:
        return
    if EVEN in text:
        assert sf_membership(MOD, dfa).answer
    else:
        assert sf_membership(st_class(AB), dfa).answer
        assert schutzenberger_check(dfa)


def checked(validate):
    """A validation's DFA and violations as data, or its input error."""
    try:
        dfa, violations = validate()
    except InputError as exc:
        return ("input error", str(exc))
    return dfa, [v.to_json() for v in violations]


@settings(max_examples=200, deadline=None)
@given(sd_texts(st.integers(0, 3)), st.sampled_from([None, 1, 2]))
def test_postfix_validation_matches_the_syntax_tree(text, dmax):
    # delays 0 and above dmax raise where the post-order walk meets them,
    # so the first error and the violations' order must match too
    postfix = checked(lambda: validate_sd_expression(parse_sd_expression(text, AB), AB, dmax))
    assert postfix == checked(lambda: tree_validate_sd_expression(text, AB, dmax))


def test_validation_does_not_recurse_per_level():
    # MAX_NESTING levels counting the innermost b; the limit leaves room
    # for the calls of one step, not for a frame per level
    depth = MAX_NESTING - 1
    expr = parse_sd_expression("uconcat(a, " * depth + "b" + ")" * depth, AB)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        dfa, violations = validate_sd_expression(expr, AB)
    finally:
        sys.setrecursionlimit(limit)
    assert violations == [] and accepts(dfa, "a" * depth + "b")
