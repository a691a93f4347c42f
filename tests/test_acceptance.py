"""End-to-end acceptance gate.

Nine checks, each printing one PASS/FAIL line on the real stderr so the
verdicts survive output capture.  Everything here reuses the public API;
the only private import is the group rule used to re-check finished
saturations in the final criterion.
"""

import random
import sys
from contextlib import contextmanager

from bruteforce import (
    check_delay_witness,
    images_by_length,
    mod_stability_index,
    pairs_related,
    recheck_witness,
    search_delay_violation,
    search_prefix_violation,
    zero_parikh_images,
)
from test_covering import closure_residual_finite
from test_ltl import AB_STAR_FORMULA, PAIR_STAR_FORMULA
from test_sd import EVEN, PAIR_STAR_EXPRESSION

from sfclosure.automata import (
    Dfa,
    compile_pattern,
    complement,
    make_alphabet,
    minimize,
)
from sfclosure.config import Config
from sfclosure.covering import (
    _group_step,
    is_separable,
    opt_finite,
    opt_group,
    reduce_cover_instance,
    saturate_finite,
    saturate_group,
)
from sfclosure.ltl import compare_sampled, parse_formula
from sfclosure.membership import sf_membership
from sfclosure.monoid import idempotent_power, syntactic_morphism
from sfclosure.oracles import (
    AMT,
    GR,
    MOD,
    amt_kernel,
    c_orbit,
    c_pairs,
    gr_kernel,
    mod_kernel,
    st_class,
)
from sfclosure.sd import (
    is_prefix_code,
    min_sync_delay,
    parse_sd_expression,
    sync_delay_witness,
    validate_sd_expression,
)
from sfclosure.semiring import rho_alpha, sf_closure_of

AB = make_alphabet("ab")
A = make_alphabet("a")

# caps sized so that no corpus instance can hit them: powerset chains live
# inside monoids of at most 12 elements, hence at most 2^12 set values
WIDE = Config(powerset_cap=64, powerset2_cap=4096, amt_monoid_cap=12)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({label}): FAIL", file=sys.__stderr__, flush=True)
        raise
    print(f"CRITERION {number} ({label}): PASS", file=sys.__stderr__, flush=True)


def test_criterion_1_membership_goldens(s3_identity_dfa):
    with criterion(1, "membership goldens"):
        st2 = st_class(AB)
        assert sf_membership(st2, compile_pattern("(ab)*", AB)).answer
        assert sf_membership(st2, compile_pattern("~%a~%", AB)).answer

        verdict = sf_membership(st_class(A), compile_pattern("(aa)*", A))
        assert not verdict.answer
        lang = syntactic_morphism(compile_pattern("(aa)*", A))
        assert recheck_witness(verdict, lang)
        m = lang.morphism.codomain
        power = idempotent_power(m, verdict.witness)
        assert m.mul[power][verdict.witness] != power

        assert sf_membership(MOD, compile_pattern("(aa)*", A)).answer
        assert sf_membership(MOD, compile_pattern("(aa+bb)*", AB)).answer
        assert not sf_membership(AMT, s3_identity_dfa).answer
        assert sf_membership(GR, s3_identity_dfa).answer


def test_criterion_2_kernel_goldens(s3_morphism):
    with criterion(2, "kernel goldens"):
        parity = syntactic_morphism(compile_pattern("(aa)*", A)).morphism
        assert mod_kernel(parity) == {parity.codomain.identity}

        assert gr_kernel(s3_morphism) == {s3_morphism.codomain.identity}

        marked = syntactic_morphism(compile_pattern("~%a~%", AB)).morphism
        assert marked.codomain.size == 2
        assert gr_kernel(marked) == {0, 1}

        alternating = amt_kernel(s3_morphism)
        assert len(alternating) == 3
        perms = {s3_morphism.labels[k] for k in alternating}
        assert perms == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_criterion_3_pairs_orbits(alphabet_testable, flat_morphism):
    with criterion(3, "pairs and orbits"):
        one, a, b, zero = 0, 1, 2, 3
        pairs = c_pairs(alphabet_testable, flat_morphism)
        assert pairs_related(pairs, a, zero)
        assert pairs_related(pairs, zero, b)
        assert not pairs_related(pairs, a, b)
        assert c_orbit(pairs, flat_morphism, zero) == {zero}


def test_criterion_4_covering_goldens():
    with criterion(4, "covering and separation goldens"):
        even = compile_pattern("(aa)*", A)
        odd = compile_pattern("a(aa)*", A)
        assert not is_separable(st_class(A), even, odd).answer
        assert is_separable(MOD, even, odd).answer

        rho = rho_alpha(syntactic_morphism(even))
        assert opt_finite(st_class(A), rho) == [0, 1, 2, 3]
        assert opt_group(MOD, rho) == [0, 1, 2]

        # S_4 on four states against its complement: one bucket of the mod
        # saturation grows to about ten thousand maxima
        s4 = Dfa(AB, 4, 0, frozenset({2, 3}), ((3, 3), (1, 0), (0, 1), (2, 2)))
        report = is_separable(MOD, s4, complement(s4),
                              config=Config(powerset_cap=32, powerset2_cap=4096))
        assert report.to_json() == {"answer": False, "opt_size": 1, "rounds": 3}


def test_criterion_5_consistency(corpus):
    with criterion(5, "cross-algorithm consistency"):
        assert len(corpus) >= 200
        classes = [("st", st_class(AB)), ("mod", MOD), ("gr", GR)]
        for name, cls in classes:
            verdicts = set()
            for dfa in corpus:
                member = sf_membership(cls, dfa, config=WIDE).answer
                separable = is_separable(
                    cls, dfa, complement(dfa), config=WIDE
                ).answer
                assert member == separable, (name, dfa)
                verdicts.add(member)
            if name != "gr":
                assert verdicts == {True, False}, name

        # every corpus language sits inside the largest closure, so pin one
        # rejection on a bigger monoid to keep that branch honest too
        spiky = minimize(Dfa(AB, 3, 0, frozenset({0}), ((0, 1), (0, 2), (1, 0))))
        assert not sf_membership(GR, spiky, config=WIDE).answer
        assert not is_separable(GR, spiky, complement(spiky), config=WIDE).answer


def random_prefix_codes(count: int):
    rng = random.Random(20260814)
    seen, out = set(), []
    while len(out) < count:
        words = frozenset(
            "".join(rng.choice("ab") for _ in range(rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 5))
        )
        if words in seen:
            continue
        seen.add(words)
        k = minimize(compile_pattern("+".join(sorted(words)), AB))
        if is_prefix_code(k):
            out.append(k)
    return out


def test_criterion_6_sd_suite():
    with criterion(6, "codes and delays"):
        # the five fixed verdicts
        assert min_sync_delay(minimize(compile_pattern("a+b", AB))) == 1
        assert min_sync_delay(minimize(compile_pattern("a*b", AB))) == 1
        assert not is_prefix_code(minimize(compile_pattern("a+aa", AB)))
        assert min_sync_delay(minimize(compile_pattern("(aab)*ab", AB))) == 2
        square = minimize(compile_pattern("aa", A))
        assert is_prefix_code(square)
        assert min_sync_delay(square, dmax=6) is None

        # reachability versus bounded brute-force search on random codes
        for k in random_prefix_codes(100):
            assert search_prefix_violation(k, maxlen=6) is None
            for d in (1, 2):
                witness = sync_delay_witness(k, d)
                if witness is None:
                    assert search_delay_violation(k, d, maxlen=8) is None
                else:
                    assert check_delay_witness(k, d, witness)

        # validated expressions feed membership for the matching class
        targets = [
            ("star(uconcat(a, b), d=1)", st_class(AB)),
            ("star(dunion(a, b), d=1)", st_class(AB)),
            (f'capC(star(dunion(a, b), d=1), "{EVEN}")', MOD),
            (PAIR_STAR_EXPRESSION, MOD),
        ]
        for text, cls in targets:
            expr = parse_sd_expression(text, AB)
            dfa, violations = validate_sd_expression(expr, AB, dmax=8)
            assert violations == [], text
            assert sf_membership(cls, dfa, config=WIDE).answer, text
        expr = parse_sd_expression(PAIR_STAR_EXPRESSION, AB)
        dfa, _ = validate_sd_expression(expr, AB)
        assert dfa == minimize(compile_pattern("(aa+bb)*", AB))


def test_criterion_7_ltl_suite():
    with criterion(7, "temporal formulas"):
        cases = [
            (AB_STAR_FORMULA, "(ab)*"),
            (PAIR_STAR_FORMULA, "(aa+bb)*"),
        ]
        for text, pattern in cases:
            formula = parse_formula(text, AB)
            dfa = compile_pattern(pattern, AB)
            assert compare_sampled(formula, dfa, AB, max_length=8) == []


def test_criterion_8_oracle_crosschecks(corpus_languages):
    with criterion(8, "oracle cross-checks"):
        morphisms = [lang.morphism for lang in corpus_languages]

        for alpha in morphisms:
            kernel = amt_kernel(alpha, monoid_cap=12)
            for q in range(1, 13):
                assert kernel <= zero_parikh_images(alpha, q), q

        for alpha in morphisms:
            d = mod_stability_index(alpha)
            sets = images_by_length(alpha, 4 * d)
            assert sets[d] == sets[2 * d] == sets[3 * d] == sets[4 * d]
            for k in range(1, d):
                assert sets[k] != sets[2 * k]

        for alpha in morphisms:
            inner = gr_kernel(alpha)
            middle = amt_kernel(alpha, monoid_cap=12)
            outer = mod_kernel(alpha)
            assert inner <= middle <= outer


def test_criterion_9_posthoc_closure(corpus):
    with criterion(9, "closure re-check"):
        st2 = st_class(AB)
        sample = corpus[:12]
        for dfa in sample:
            instance = reduce_cover_instance(dfa, [complement(dfa)],
                                             powerset_cap=WIDE.powerset_cap)
            sat = saturate_finite(st2, instance.rho)
            assert closure_residual_finite(st2, instance.rho, sat) == []

        unary = rho_alpha(syntactic_morphism(compile_pattern("(aa)*", A)))
        for cls in (MOD, GR):
            for rho in [unary] + [
                reduce_cover_instance(dfa, [complement(dfa)],
                                      powerset_cap=WIDE.powerset_cap).rho
                for dfa in sample
            ]:
                sat = saturate_group(cls, rho, config=WIDE)
                sr = rho.semiring
                for extra in _group_step(cls, rho, sat.chain, WIDE):
                    assert sat.contains(extra)
                snapshot = sat.chain.snapshot()
                for r1 in snapshot:
                    for r2 in snapshot:
                        assert sat.contains(sr.mul(r1, r2))
                for r in snapshot:
                    assert sat.contains(sf_closure_of(sr, r))
