import itertools
import random

import pytest

from bruteforce import words_up_to
from conftest import recognized
from sfclosure.automata import make_alphabet
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import syntactic_morphism
from sfclosure.semiring import (
    PowersetSemiring,
    ProductSemiring,
    RatingMap,
    TableSemiring,
    downset,
    image_monoid,
    product_rating_map,
    rho_alpha,
    validate_semiring,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def test_powerset_semiring_laws():
    for pattern, alphabet in [("(aa)*", A), ("(ab)*", AB)]:
        sr = PowersetSemiring(recognized(pattern, alphabet).morphism.codomain)
        assert validate_semiring(sr) is None


def test_powerset_operations_golden():
    m = recognized("(aa)*", A).morphism.codomain
    sr = PowersetSemiring(m)
    one, g = sr.one, sr.singleton(1 - m.identity)
    assert sr.mul(g, g) == one
    assert sr.add(one, g) == one | g
    assert sr.contents(one | g) == (0, 1)
    assert sr.mask_of([0, 1]) == one | g
    assert sr.downset_of(one | g) == [0, one, g, one | g]
    assert sr.element_to_json(one | g) == [0, 1]


def test_powerset_cap():
    m = recognized("(aa+bb)*", AB).morphism.codomain
    with pytest.raises(ResourceLimitError):
        PowersetSemiring(m, cap=8)


def test_omega_and_sf_closure():
    m = recognized("(aa)*", A).morphism.codomain
    sr = PowersetSemiring(m)
    g = sr.singleton(1 - m.identity)
    w = sr.omega_of(g)
    assert sr.mul(w, w) == w
    assert w == sr.one
    # adjoining one more factor of g gives the whole group
    assert sr.sf_closure_of(g) == sr.one | g


def test_table_semiring_law_violation_is_named():
    # "addition" that is not idempotent
    add = ((0, 1), (1, 0))
    mul = ((0, 0), (0, 1))
    sr = TableSemiring(2, add, mul, 0, 1)
    message = validate_semiring(sr)
    assert message is not None and "idempotence" in message


def test_product_semiring_laws_and_downsets():
    sra = PowersetSemiring(recognized("(aa)*", A).morphism.codomain)
    srb = PowersetSemiring(recognized("~%a~%", AB).morphism.codomain)
    sr = ProductSemiring([sra, srb])
    assert validate_semiring(sr) is None
    pair = sr.pack((sra.one, srb.one))
    down = sr.downset_of(pair)
    assert {sr.unpack(v) for v in down} == {(x, y) for x in sra.downset_of(sra.one)
                                            for y in srb.downset_of(srb.one)}
    assert downset(sr, [pair]) == sorted(down)


def three_component_product():
    # fields of 3, 6 and 2 bits at offsets 8, 2 and 0
    return ProductSemiring(
        PowersetSemiring(recognized(p).morphism.codomain)
        for p in ("(aa)*", "(ab)*", "~%a~%")
    )


def test_pack_unpack_round_trip():
    sr = three_component_product()
    parts = list(itertools.product(*(c.elements() for c in sr.components)))
    assert sr.offsets == (8, 2, 0) and len(parts) == 1 << 11
    for t in parts:
        assert sr.unpack(sr.pack(t)) == t
    assert sorted(sr.pack(t) for t in parts) == list(range(1 << 11))
    assert sr.unpack(sr.one) == tuple(c.one for c in sr.components)
    assert sr.pack((0b101, 0b100001, 0b10)) == 0b101_100001_10
    assert sr.element_to_json(0b101_100001_10) == [[0, 2], [0, 5], [1]]


def test_int_order_is_tuple_order():
    sr = three_component_product()
    parts = list(itertools.product(*(c.elements() for c in sr.components)))
    random.Random(5).shuffle(parts)
    assert [sr.pack(t) for t in sorted(parts)] == sorted(sr.pack(t) for t in parts)


def test_packed_operations_are_componentwise():
    sr = three_component_product()
    rng = random.Random(11)
    values = [rng.randrange(1 << 11) for _ in range(60)]
    for x in values:
        for y in values:
            pairs = list(zip(sr.components, sr.unpack(x), sr.unpack(y)))
            assert sr.unpack(sr.mul(x, y)) == tuple(c.mul(a, b) for c, a, b in pairs)
            assert sr.unpack(sr.add(x, y)) == tuple(c.add(a, b) for c, a, b in pairs)
            assert sr.leq(x, y) == all(c.leq(a, b) for c, a, b in pairs)


def test_product_components_must_be_powersets():
    table = TableSemiring(1, ((0,),), ((0,),), 0, 0)
    with pytest.raises(InputError):
        ProductSemiring([table])
    with pytest.raises(InputError):
        ProductSemiring([])


def test_rho_alpha_rates_words_and_languages():
    lang = recognized("(aa)*", A)
    rho = rho_alpha(lang)
    sr = rho.semiring
    for w in words_up_to(A, 5):
        assert rho.of_word(w) == sr.singleton(lang.morphism.of_word(w))
    assert rho.of_language(["", "a", "aaa"]) == sr.one | sr.singleton(1)


def test_rating_map_validates_letter_count():
    lang = recognized("(aa)*", A)
    sr = PowersetSemiring(lang.morphism.codomain)
    with pytest.raises(InputError):
        RatingMap(sr, AB, (sr.one,))


def test_image_monoid_mirrors_codomain():
    lang = recognized("(ab)*", AB)
    rho = rho_alpha(lang)
    mu = image_monoid(rho)
    assert mu.codomain.size == lang.morphism.codomain.size
    sr = rho.semiring
    for w in words_up_to(AB, 4):
        assert mu.labels[mu.of_word(w)] == sr.singleton(lang.morphism.of_word(w))


def test_image_monoid_cap():
    rho = rho_alpha(recognized("(aa+bb)*", AB))
    with pytest.raises(ResourceLimitError):
        image_monoid(rho, cap=4)


def test_product_rating_map_is_componentwise():
    r1 = rho_alpha(recognized("(aa)*", AB))
    r2 = rho_alpha(recognized("~%a~%", AB))
    rho = product_rating_map([r1, r2])
    for w in words_up_to(AB, 4):
        assert rho.semiring.unpack(rho.of_word(w)) == (r1.of_word(w), r2.of_word(w))
