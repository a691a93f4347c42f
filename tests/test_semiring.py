import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import TupleProduct, validate_semiring, words_up_to
from conftest import recognized, syntactic_morphisms
from sfclosure.automata import make_alphabet
from sfclosure.covering import _mu_image_monoid
from sfclosure.errors import InputError, ResourceLimitError
from sfclosure.monoid import omega_power
from sfclosure.semiring import (
    ProductSemiring,
    RatingMap,
    downset,
    product_rating_map,
    rho_alpha,
    sf_closure_of,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def test_powerset_semiring_laws():
    # the one-component product is the powerset semiring of one monoid
    for pattern, alphabet in [("(aa)*", A), ("(ab)*", AB)]:
        sr = ProductSemiring([recognized(pattern, alphabet).morphism.codomain])
        assert validate_semiring(sr) is None


def test_powerset_operations_golden():
    m = recognized("(aa)*", A).morphism.codomain
    sr = ProductSemiring([m])
    one, g = sr.one, 1 << (1 - m.identity)
    assert one == 1 << m.identity
    assert sr.mul(g, g) == one
    assert sr.add(one, g) == one | g
    assert sr.downset_of(one | g) == [0, one, g, one | g]
    assert sr.element_to_json(one | g) == [[0, 1]]


def test_powerset_cap():
    # rho_alpha refuses a monoid above the cap before building its semiring
    lang = recognized("(aa+bb)*", AB)
    with pytest.raises(
        ResourceLimitError, match=r"^monoid of size 15 exceeds the powerset cap of 8$"
    ):
        rho_alpha(lang, cap=8)
    assert rho_alpha(lang, cap=15).semiring.width == 15


def test_omega_and_sf_closure():
    m = recognized("(aa)*", A).morphism.codomain
    sr = ProductSemiring([m])
    g = 1 << (1 - m.identity)
    w = omega_power(g, sr.mul)
    assert sr.mul(w, w) == w
    assert w == sr.one
    # adjoining one more factor of g gives the whole group
    assert sf_closure_of(sr, g) == sr.one | g


class XorSemiring:
    """Two elements with exclusive or as "addition", which is not idempotent."""

    zero, one = 0, 1

    def add(self, x, y):
        return x ^ y

    def mul(self, x, y):
        return x & y

    def elements(self):
        return range(2)


def test_table_semiring_law_violation_is_named():
    message = validate_semiring(XorSemiring())
    assert message is not None and "idempotence" in message


def test_product_semiring_laws_and_downsets():
    ma = recognized("(aa)*", A).morphism.codomain
    mb = recognized("~%a~%", AB).morphism.codomain
    sr = ProductSemiring([ma, mb])
    assert validate_semiring(sr) is None
    pair = sr.one
    down = sr.downset_of(pair)
    assert {sr.unpack(v) for v in down} == {
        (x, y) for x in (0, 1 << ma.identity) for y in (0, 1 << mb.identity)
    }
    assert down == sorted(down)
    assert downset(sr, [pair]) == sorted(down)


THREE = ("(aa)*", "(ab)*", "~%a~%")


def three_component_product():
    # fields of 3, 6 and 2 bits at offsets 8, 2 and 0
    return ProductSemiring(recognized(p).morphism.codomain for p in THREE)


def all_parts(sr) -> list:
    return list(itertools.product(*(range(1 << m.size) for m in sr.monoids)))


def test_pack_unpack_round_trip():
    sr = three_component_product()
    parts = all_parts(sr)
    assert sr.offsets == (8, 2, 0) and sr.width == 11 and len(parts) == 1 << 11
    for t in parts:
        assert sr.unpack(sr.pack(t)) == t
    assert sorted(sr.pack(t) for t in parts) == list(range(1 << 11))
    assert list(sr.elements()) == list(range(1 << 11))
    assert sr.unpack(sr.one) == tuple(1 << m.identity for m in sr.monoids)
    assert sr.pack((0b101, 0b100001, 0b10)) == 0b101_100001_10
    assert sr.element_to_json(0b101_100001_10) == [[0, 2], [0, 5], [1]]


def test_int_order_is_tuple_order():
    sr = three_component_product()
    parts = all_parts(sr)
    random.Random(5).shuffle(parts)
    assert [sr.pack(t) for t in sorted(parts)] == sorted(sr.pack(t) for t in parts)


def test_packed_operations_are_componentwise():
    sr = three_component_product()
    reference = TupleProduct(sr.monoids)
    rng = random.Random(11)
    values = [rng.randrange(1 << 11) for _ in range(60)]
    for x in values:
        for y in values:
            a, b = sr.unpack(x), sr.unpack(y)
            assert sr.unpack(sr.mul(x, y)) == reference.mul(a, b)
            assert sr.unpack(sr.add(x, y)) == reference.add(a, b)
            # the order is bit inclusion, on the packed int and per component
            assert (x | y == y) == reference.leq(a, b)
            assert sr.element_to_json(x) == reference.to_json(a)


@settings(max_examples=60)
@given(
    morphisms=st.lists(syntactic_morphisms(max_states=4, cap=24), min_size=1, max_size=4),
    data=st.data(),
)
def test_packed_products_match_tuple_products(morphisms, data):
    # up to four fields of up to 24 bits each, so fields straddle bytes
    sr = ProductSemiring(m.codomain for m in morphisms)
    reference = TupleProduct(sr.monoids)
    value = st.integers(0, (1 << sr.width) - 1)
    pairs = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=20, unique=True))
    for x, y in pairs:
        expected = sr.pack(reference.mul(sr.unpack(x), sr.unpack(y)))
        assert y not in sr._rows[x]
        assert sr.mul(x, y) == expected  # a miss, stored in x's row
        assert sr._rows[x][y] == expected
        assert sr.mul(x, y) == expected  # a hit
        assert sr.product(x, y) == expected


def test_empty_product_is_rejected():
    with pytest.raises(InputError, match="at least one component"):
        ProductSemiring([])


def test_rho_alpha_rates_words_and_languages():
    lang = recognized("(aa)*", A)
    rho = rho_alpha(lang)
    assert rho.semiring.monoids == (lang.morphism.codomain,)
    for w in words_up_to(A, 5):
        assert rho.of_word(w) == 1 << lang.morphism.of_word(w)


def test_rating_map_validates_letter_count():
    lang = recognized("(aa)*", A)
    sr = ProductSemiring([lang.morphism.codomain])
    with pytest.raises(InputError):
        RatingMap(sr, AB, (sr.one,))


def singleton_sets(rho):
    return [(img,) for img in rho.letter_images]


def test_mu_image_monoid_of_singletons_mirrors_codomain():
    lang = recognized("(ab)*", AB)
    rho = rho_alpha(lang)
    mu = _mu_image_monoid(rho, singleton_sets(rho), cap=16)
    assert mu.codomain.size == lang.morphism.codomain.size
    for w in words_up_to(AB, 4):
        assert mu.labels[mu.of_word(w)] == (1 << lang.morphism.of_word(w),)


def test_mu_image_monoid_cap():
    # 15 elements: a cap of 15 admits them, a cap of 14 does not
    rho = rho_alpha(recognized("(aa+bb)*", AB))
    assert _mu_image_monoid(rho, singleton_sets(rho), cap=15).codomain.size == 15
    with pytest.raises(ResourceLimitError, match="group step exceeded the cap of 14 set values"):
        _mu_image_monoid(rho, singleton_sets(rho), cap=14)


def test_product_rating_map_is_componentwise():
    r1 = rho_alpha(recognized("(aa)*", AB))
    r2 = rho_alpha(recognized("~%a~%", AB))
    rho = product_rating_map([r1, r2])
    for w in words_up_to(AB, 4):
        assert rho.semiring.unpack(rho.of_word(w)) == (r1.of_word(w), r2.of_word(w))
