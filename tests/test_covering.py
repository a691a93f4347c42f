import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    TupleAntichain,
    TupleProduct,
    naive_mod_group_step,
    naive_opt_group,
    naive_saturate_finite,
    tuple_rating,
)
from conftest import recognized
from sfclosure import covering, oracles
from sfclosure.automata import Dfa, compile_pattern, complement, make_alphabet, minimize
from sfclosure.config import DEFAULT, Config
from sfclosure.covering import (
    Antichain,
    _group_step,
    _max_reduce,
    _mu_image_monoid,
    _opt_chain_group,
    is_coverable,
    is_separable,
    opt_finite,
    opt_group,
    reduce_cover_instance,
    saturate_finite,
    saturate_group,
)
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import FiniteMonoid, idempotents, syntactic_morphism, validate_monoid
from sfclosure.oracles import GR, MOD, FinitePrevariety, mod_kernel, st_class
from sfclosure.semiring import rho_alpha, sf_closure_of

AB = make_alphabet("ab")
A = make_alphabet("a")

TRACED = dataclasses.replace(DEFAULT, trace=True)


def unary_rho():
    # rating map of the even-length unary language into the powerset of Z2;
    # masks: 0=empty, 1={identity}, 2={flip}, 3=both
    return rho_alpha(recognized("(aa)*", A))


class TestOptGoldens:
    def test_star_free_closure_reaches_everything(self):
        assert opt_finite(st_class(A), unary_rho()) == [0, 1, 2, 3]

    def test_mod_closure_misses_mixed_class(self):
        assert opt_group(MOD, unary_rho()) == [0, 1, 2]

    def test_marked_words_never_join_classes(self):
        rho = rho_alpha(recognized("~%a~%", AB))
        assert opt_finite(st_class(AB), rho) == [0, 1, 2]


class TestSeparationGoldens:
    def test_star_free_cannot_split_parity(self):
        left = compile_pattern("(aa)*", A)
        right = compile_pattern("a(aa)*", A)
        report = is_separable(st_class(A), left, right)
        assert not report.answer
        assert report.opt_size >= 1 and report.rounds >= 1

    def test_mod_splits_parity(self):
        left = compile_pattern("(aa)*", A)
        right = compile_pattern("a(aa)*", A)
        assert is_separable(MOD, left, right).answer
        assert is_separable(GR, left, right).answer

    def test_disjoint_regular_languages_not_always_separable(self):
        # same language on both sides is never separable
        left = compile_pattern("(ab)*", AB)
        assert not is_separable(MOD, left, left).answer


class TestSaturationStructure:
    def test_identity_pair_always_present(self, corpus):
        st = st_class(AB)
        for dfa in corpus[:20]:
            instance = reduce_cover_instance(dfa, [dfa])
            sat = saturate_finite(st, instance.rho)
            eta_identity = st.eta.codomain.identity
            assert sat.chain.covers(sat.pack(eta_identity, instance.rho.semiring.one))

    def test_trace_records_rules(self):
        left = compile_pattern("(aa)*", A)
        right = compile_pattern("a(aa)*", A)
        report = is_separable(st_class(A), left, right, config=TRACED)
        assert report.trace
        rules = {entry["rule"] for entry in report.trace}
        assert rules <= {"seed", "letter", "product", "closure"}
        assert "seed" in rules

    def test_group_saturation_golden(self):
        sat = saturate_group(MOD, unary_rho())
        # antichain keeps maximal masks only: {identity} dominates {}
        assert sat.chain.snapshot() == [1]
        assert sat.rounds >= 1

    def test_finite_saturation_golden(self):
        sat = saturate_finite(st_class(A), unary_rho())
        eta = st_class(A).eta.codomain.identity
        for mask in (1, 2, 3):
            assert sat.chain.covers(sat.pack(eta, mask))

    def test_cover_instance_needs_an_avoided_language(self):
        with pytest.raises(InputError):
            reduce_cover_instance(compile_pattern("(ab)*", AB), [])


class TestAntichain:
    def test_insert_prunes_dominated(self):
        chain = Antichain()
        assert chain.insert(1)
        assert chain.insert(2)
        assert not chain.insert(1)
        assert chain.insert(3)  # dominates both
        assert chain.snapshot() == [3]
        assert len(chain) == 1


def check_against_tuple_antichains(chain, exact, bits, inserts, probes):
    """Insert `bits`-bit values into `chain` and, with `exact` set, into one
    reference antichain per high part, holding the values as one-field
    tuples; every answer and view must agree after every step."""
    shift = bits if exact is None else exact
    references: dict[int, TupleAntichain] = {}

    def reference(x) -> TupleAntichain:
        return references.setdefault(x >> shift, TupleAntichain(TupleProduct(())))

    for x in inserts:
        assert chain.insert(x) == reference(x).insert((x,))
        expected = sorted(y for r in references.values() for (y,) in r.elems)
        assert chain.snapshot() == expected
        assert len(chain) == len(expected)
        assert chain.members == set(expected)
        for probe in probes:
            assert chain.covers(probe) == reference(probe).covers((probe,))


@settings(max_examples=100)
@given(
    exact=st.sampled_from([None, 2, 5]),
    inserts=st.lists(st.integers(0, 127), max_size=40),
    probes=st.lists(st.integers(0, 127), max_size=10),
)
def test_antichain_matches_tuple_antichains(exact, inserts, probes):
    check_against_tuple_antichains(Antichain(exact), exact, 7, inserts, probes)


# twelve-bit values drawn as sets of bits, so that small and large sets,
# hence dominated values, removals and compactions, are all common
TWELVE_BITS = st.sets(st.integers(0, 11)).map(lambda bits: sum(1 << b for b in bits))


@settings(max_examples=60)
@given(
    threshold=st.sampled_from([1, 4]),
    exact=st.sampled_from([None, 6, 9]),
    inserts=st.lists(TWELVE_BITS, min_size=20, max_size=200),
    probes=st.lists(TWELVE_BITS, max_size=10),
)
def test_sliced_antichain_matches_tuple_antichains(threshold, exact, inserts, probes):
    """Twelve-bit values with buckets bit-sliced above one or four maxima,
    so that inserts, removals and compactions run on slices."""
    chain = Antichain(exact, threshold=threshold)
    check_against_tuple_antichains(chain, exact, 12, inserts, probes)


class TestCoverable:
    def test_cover_multiple_avoided(self):
        covered = compile_pattern("(aa)*", A)
        report = is_coverable(
            st_class(A), covered,
            [compile_pattern("a(aa)*", A), compile_pattern("aa(aa)*", A)],
        )
        assert not report.answer

    def test_cover_trivially_coverable(self):
        covered = compile_pattern("(aa)*", A)
        report = is_coverable(MOD, covered, [compile_pattern("a(aa)*", A)])
        assert report.answer


def test_mu_image_monoids_of_one_and_two_elements():
    rho = rho_alpha(recognized("~%a~%", AB))
    one = rho.semiring.one
    # every letter set {1}: the identity is the only value
    mu = _mu_image_monoid(rho, [(one,), (one,)], cap=16)
    assert mu.codomain == FiniteMonoid(1, 0, ((0,),))
    assert (mu.letter_images, mu.labels) == ((0, 0), ((one,),))
    # an empty letter set sends everything it touches to the empty antichain
    mu = _mu_image_monoid(rho, [(one,), ()], cap=16)
    assert mu.codomain == FiniteMonoid(2, 0, ((0, 1), (1, 1)))
    assert (mu.letter_images, mu.labels) == ((0, 1), ((one,), ()))
    validate_monoid(mu.codomain)
    mu = _mu_image_monoid(rho, [(), ()], cap=16)
    assert (mu.codomain.mul, mu.letter_images) == (((0, 1), (1, 1)), (1, 1))


def closure_residual_finite(cls, rho, sat):
    """Re-apply every saturation rule to a finished finite saturation and
    collect anything new it would add."""
    sr = rho.semiring
    eta = cls.eta
    additions = []
    pairs = sat.pairs()
    seeds = [(eta.codomain.identity, sr.one)] + [
        (eta.of_letter(sym), rho.of_word(sym)) for sym in rho.alphabet
    ]
    for n, r in seeds:
        if not sat.chain.covers(sat.pack(n, r)):
            additions.append(("seed", n, r))
    for n1, r1 in pairs:
        for n2, r2 in pairs:
            n, r = eta.codomain.mul[n1][n2], sr.mul(r1, r2)
            if not sat.chain.covers(sat.pack(n, r)):
                additions.append(("product", n, r))
    for n, r in pairs:
        if n in idempotents(eta.codomain):
            jumped = sf_closure_of(sr, r)
            if not sat.chain.covers(sat.pack(n, jumped)):
                additions.append(("closure", n, jumped))
    return additions


def test_finite_saturation_is_closed(corpus):
    st = st_class(AB)
    for dfa in corpus[:12]:
        instance = reduce_cover_instance(dfa, [dfa])
        sat = saturate_finite(st, instance.rho)
        assert closure_residual_finite(st, instance.rho, sat) == []


@functools.lru_cache(maxsize=None)
def small_languages() -> tuple:
    """Distinct minimal DFAs over {a, b} whose syntactic monoids have at
    most 8 elements: a few fixed patterns, then seeded random automata."""
    rng = random.Random(20261018)
    out = []
    candidates = [compile_pattern(p, AB) for p in ("(ab)*", "~%a~%", "a*b", "(aa)*", "b~%")]
    while len(out) < 40:
        if candidates:
            dfa = candidates.pop()
        else:
            states = rng.randint(1, 4)
            dfa = Dfa(
                AB, states, 0,
                frozenset(q for q in range(states) if rng.random() < 0.5),
                tuple(tuple(rng.randrange(states) for _ in AB) for _ in range(states)),
            )
        dfa = minimize(dfa)
        if dfa in out:
            continue
        try:
            syntactic_morphism(dfa, cap=8)
        except ResourceLimitError:
            continue
        out.append(dfa)
    return tuple(out)


ORACLE_CONFIG = Config(powerset2_cap=64, trace=True)


@functools.lru_cache(maxsize=None)
def finite_classes() -> dict:
    """Finite classes with |N| > 1 by name: the first letter (three
    idempotents) and the length parity (a non-idempotent element, which
    the jump skips)."""
    return {
        "starts-a": FinitePrevariety(recognized("a~%").morphism),
        "even-length": FinitePrevariety(recognized("(aa+ab+ba+bb)*").morphism),
    }


@settings(max_examples=100)
@given(
    picks=st.lists(st.integers(0, 39), min_size=2, max_size=3),
    cls_name=st.sampled_from(
        ["st", "mod", "gr", "starts-a", "even-length", "alphabet-testable"]
    ),
)
def test_packed_semi_naive_matches_naive_tuple_saturation(
    alphabet_testable, picks, cls_name
):
    dfas = [small_languages()[i] for i in picks]
    instance = reduce_cover_instance(dfas[0], dfas[1:])
    unpack = instance.rho.semiring.unpack
    languages = instance.languages
    if cls_name not in ("mod", "gr"):
        cls = {
            "st": st_class(AB), "alphabet-testable": alphabet_testable, **finite_classes()
        }[cls_name]
        sat = saturate_finite(cls, instance.rho, Config(trace=True))
        maxima, rounds, trace = naive_saturate_finite(cls.eta, languages)
        by_class: dict[int, list] = {}
        for n, r in sat.pairs():
            by_class.setdefault(n, []).append(unpack(r))
        assert by_class == maxima
        merged = TupleAntichain(tuple_rating(languages)[0])
        for n in sorted(maxima):
            for r in maxima[n]:
                merged.insert(r)
        maxima = merged.snapshot()
    else:
        cls = MOD if cls_name == "mod" else GR
        try:
            maxima, rounds, trace = naive_opt_group(cls, languages, ORACLE_CONFIG)
        except ResourceLimitError:
            if cls is GR:
                with pytest.raises(ResourceLimitError):
                    _opt_chain_group(cls, instance.rho, ORACLE_CONFIG)
                return
            # the mod group step builds no µ, so it answers where the µ
            # reference hits powerset2_cap; the report must match it
            sat = _opt_chain_group(cls, instance.rho, ORACLE_CONFIG)
            maxima = [unpack(r) for r in sat.chain.snapshot()]
            rounds, trace = sat.rounds, sat.trace
        else:
            sat = _opt_chain_group(cls, instance.rho, ORACLE_CONFIG)
            assert [unpack(r) for r in sat.chain.snapshot()] == maxima
    assert sat.rounds == rounds
    assert sat.trace == trace
    # a cover exists iff no maximum meets every accepting set
    bad = any(
        all(part & sum(1 << s for s in lang.accepting)
            for part, lang in zip(value, languages))
        for value in maxima
    )
    report = is_coverable(cls, dfas[0], dfas[1:], config=ORACLE_CONFIG)
    assert (report.answer, report.opt_size, report.rounds) == (not bad, len(maxima), rounds)


# a cap no µ of the small_languages() pool reaches
WIDE_MU_CAP = 4096


@settings(max_examples=60)
@given(
    picks=st.lists(st.integers(0, 39), min_size=2, max_size=3),
    data=st.data(),
)
def test_mod_group_step_matches_the_mu_kernel_step(picks, data):
    """{one} ∪ P^ω against the union of the labels of µ's mod kernel.

    On any chain the two give the same downset.  On every chain the
    saturation passes through they also give the same successful inserts,
    hence the same trace: the old step's values that are not maximal are
    already covered there.  On an arbitrary chain they need not be."""
    dfas = [small_languages()[i] for i in picks]
    rho = reduce_cover_instance(dfas[0], dfas[1:]).rho
    sr = rho.semiring
    chain = Antichain()
    for value in data.draw(st.lists(st.integers(0, (1 << sr.width) - 1), max_size=4)):
        chain.insert(value)
    new = _group_step(MOD, rho, chain, DEFAULT)
    assert _max_reduce(new) == _max_reduce(naive_mod_group_step(rho, chain, WIDE_MU_CAP))

    def inserted(chain, step) -> list:
        copy = Antichain()
        for value in chain.snapshot():
            copy.insert(value)
        return [value for value in step if copy.insert(value)]

    steps = []

    def checked_step(g, rho, chain, config):
        new = _group_step(g, rho, chain, config)
        old = naive_mod_group_step(rho, chain, WIDE_MU_CAP)
        assert _max_reduce(new) == _max_reduce(old)
        assert inserted(chain, new) == inserted(chain, old)
        steps.append(new)
        return new

    with mock.patch.object(covering, "_group_step", checked_step):
        sat = saturate_group(MOD, rho)
    # the first round is seeded with {one}, which is the first step's value
    assert _group_step(MOD, rho, Antichain(), DEFAULT) == [sr.one]
    assert naive_mod_group_step(rho, Antichain(), WIDE_MU_CAP) == [sr.one]
    assert len(steps) == sat.rounds - 1


def test_mod_group_step_builds_no_mu():
    def refuse(*args, **kwargs):
        raise AssertionError("the mod group step must not build µ or its kernel")

    with (
        mock.patch.object(covering, "_mu_image_monoid", refuse),
        mock.patch.object(covering, "group_kernel", refuse),
        mock.patch.object(oracles, "mod_kernel", refuse),
    ):
        for dfa in small_languages()[:10]:
            report = is_separable(MOD, dfa, complement(dfa), config=TRACED)
            assert report.rounds >= 2


def test_mod_group_step_ignores_the_group_step_cap():
    """With powerset2_cap = 1 every µ reference raises, from the first
    round on; the mod saturation still answers, exactly as the reference
    with a wide cap does."""
    tight = Config(powerset2_cap=1, trace=True)
    pool = small_languages()
    for i in range(0, 40, 4):
        dfas = [pool[i], pool[i + 1]]
        instance = reduce_cover_instance(dfas[0], dfas[1:])
        languages = instance.languages
        with pytest.raises(ResourceLimitError):
            naive_opt_group(MOD, languages, tight)
        maxima, rounds, trace = naive_opt_group(MOD, languages, ORACLE_CONFIG)
        sat = _opt_chain_group(MOD, instance.rho, tight)
        unpack = instance.rho.semiring.unpack
        assert [unpack(r) for r in sat.chain.snapshot()] == maxima
        assert (sat.rounds, sat.trace) == (rounds, trace)
        with pytest.raises(ResourceLimitError):
            _opt_chain_group(GR, instance.rho, tight)


def test_mod_power_walk_is_bounded(monkeypatch):
    even = compile_pattern("(aa)*", A)
    odd = compile_pattern("a(aa)*", A)
    assert is_separable(MOD, even, odd).answer
    monkeypatch.setattr(oracles, "_POWER_WALK_LIMIT", 0)
    with pytest.raises(ResourceLimitError, match="power walk"):
        mod_kernel(syntactic_morphism(even).morphism)
    with pytest.raises(ResourceLimitError, match="power walk"):
        is_separable(MOD, even, odd)
