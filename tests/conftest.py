import json
import random

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from sfclosure.automata import Dfa, compile_pattern, make_alphabet, minimize
from sfclosure.errors import ResourceLimitError
from sfclosure.monoid import (
    FiniteMonoid,
    Morphism,
    RecognizedLanguage,
    generated_image,
    morphism_to_json,
    syntactic_morphism,
)
from sfclosure.oracles import FinitePrevariety

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

AB = make_alphabet("ab")


@pytest.fixture(scope="session")
def ab():
    return AB


def permutation_morphism(generators: dict[str, tuple[int, ...]]) -> Morphism:
    """Monoid generated by permutations/transformations of a finite set,
    with the identity first and a BFS numbering."""
    width = len(next(iter(generators.values())))
    ident = tuple(range(width))

    def compose(p, q):
        return tuple(q[p[i]] for i in range(width))

    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators.values():
                y = compose(x, g)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    size = len(elems)
    mul = tuple(
        tuple(index[compose(x, y)] for y in elems) for x in elems
    )
    monoid = FiniteMonoid(size, 0, mul)
    alphabet = make_alphabet("".join(sorted(generators)))
    letter_images = tuple(index[generators[sym]] for sym in alphabet)
    return Morphism(
        alphabet,
        monoid,
        letter_images,
        generated_image(monoid, letter_images),
        labels=tuple(elems),
    )


@pytest.fixture(scope="session")
def s3_morphism():
    # a swaps two points, b cycles all three: together they generate all six
    # permutations.
    return permutation_morphism({"a": (1, 0, 2), "b": (1, 2, 0)})


@pytest.fixture(scope="session")
def s3_identity_dfa(s3_morphism):
    """DFA of the words acting as the identity permutation."""
    m = s3_morphism.codomain
    delta = tuple(
        tuple(m.mul[s][g] for g in s3_morphism.letter_images)
        for s in range(m.size)
    )
    return minimize(Dfa(AB, m.size, 0, frozenset([0]), delta))


@pytest.fixture(scope="session")
def s3_file(tmp_path_factory, s3_morphism):
    path = tmp_path_factory.mktemp("morphisms") / "s3.json"
    path.write_text(json.dumps(morphism_to_json(s3_morphism)))
    return str(path)


def _flat_monoid() -> FiniteMonoid:
    # {1, a, b, 0} where every product of two non-identity elements is 0.
    mul = (
        (0, 1, 2, 3),
        (1, 3, 3, 3),
        (2, 3, 3, 3),
        (3, 3, 3, 3),
    )
    return FiniteMonoid(4, 0, mul)


@pytest.fixture(scope="session")
def flat_morphism():
    """Letters map to themselves; any two letters multiply to zero."""
    m = _flat_monoid()
    return Morphism(AB, m, (1, 2), frozenset(range(4)))


@pytest.fixture(scope="session")
def alphabet_testable():
    """The class of languages determined by which letters occur, presented
    by the morphism onto the union monoid over subsets of the alphabet."""
    mul = tuple(tuple(x | y for y in range(4)) for x in range(4))
    m = FiniteMonoid(4, 0, mul)
    eta = Morphism(AB, m, (1, 2), frozenset(range(4)))
    return FinitePrevariety(eta)


_CANNED = (
    "%",
    "_",
    "~%",
    "(ab)*",
    "(aa)*",
    "a(aa)*",
    "(aa+bb)*",
    "~(%+_+a+b)ab~%",
    "a*b",
    "(aab)*ab",
    "b*",
    "a~%",
    "~%a",
    "(a+b)(a+b)",
    "~%ab~%",
)


def _random_dfa(rng: random.Random, states: int) -> Dfa:
    delta = tuple(
        tuple(rng.randrange(states) for _ in AB) for _ in range(states)
    )
    finals = frozenset(
        q for q in range(states) if rng.random() < 0.45
    )
    return Dfa(AB, states, 0, finals, delta)


@pytest.fixture(scope="session")
def corpus():
    """At least 200 distinct minimal DFAs over {a, b} with at most 6 states
    whose syntactic monoids have at most 12 elements."""
    rng = random.Random(20260814)
    seen = set()
    out = []

    def offer(dfa: Dfa) -> None:
        small = minimize(dfa)
        if small.states > 6 or small in seen:
            return
        try:
            syntactic_morphism(small, cap=12)
        except ResourceLimitError:
            return
        seen.add(small)
        out.append(small)

    for pattern in _CANNED:
        offer(compile_pattern(pattern, AB))
    attempts = 0
    while len(out) < 220 and attempts < 20000:
        attempts += 1
        offer(_random_dfa(rng, rng.randint(1, 6)))
    assert len(out) >= 200, f"corpus generation starved at {len(out)}"
    return out


@pytest.fixture(scope="session")
def corpus_languages(corpus):
    return [syntactic_morphism(dfa) for dfa in corpus]


def recognized(pattern: str, alphabet=AB) -> RecognizedLanguage:
    return syntactic_morphism(compile_pattern(pattern, alphabet))


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def transformation_morphisms(draw, width: int, max_points: int = 3):
    """A morphism from the first `width` letters of abc into a monoid of
    transformations of at most `max_points` points.  The monoid may have
    one more generator than the alphabet, so the image can be a proper
    submonoid of the codomain."""
    points = draw(st.integers(1, max_points))
    transformation = st.lists(
        st.integers(0, points - 1), min_size=points, max_size=points
    ).map(tuple)
    images = draw(st.lists(transformation, min_size=width, max_size=width + 1))
    full = permutation_morphism(dict(zip("abcd", images)))
    alphabet = make_alphabet("abc"[:width])
    letters = full.letter_images[:width]
    return Morphism(
        alphabet,
        full.codomain,
        letters,
        generated_image(full.codomain, letters),
        labels=full.labels,
    )


@st.composite
def syntactic_morphisms(draw, max_states: int = 5, cap: int = 80):
    """The syntactic morphism of a random DFA over {a, b}, for monoids of
    at most `cap` elements."""
    states = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, states - 1)) for _ in AB) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if draw(st.booleans()))
    try:
        lang = syntactic_morphism(Dfa(AB, states, 0, finals, delta), cap=cap)
    except ResourceLimitError:
        assume(False)
    return lang.morphism
