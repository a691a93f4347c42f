"""Membership in the star-free closure of a base class.

Finite base classes go through pair orbits: the language belongs to the
closure iff every orbit of an idempotent is aperiodic.  Group classes go
through the kernel of the syntactic morphism.  Both verdicts carry a
witness element violating aperiodicity when the answer is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa
from .config import DEFAULT, Config
from .monoid import aperiodicity_witness, idempotents, syntactic_morphism
from .oracles import (
    FinitePrevariety,
    GroupClass,
    c_orbit,
    c_pairs,
    group_kernel,
)


@dataclass(frozen=True)
class MembershipVerdict:
    answer: bool
    witness: int | None
    monoid_size: int
    detail: dict

    def to_json(self) -> dict:
        doc = {
            "answer": self.answer,
            "witness": self.witness,
            "monoid_size": self.monoid_size,
        }
        doc.update(self.detail)
        return doc


def sf_membership_finite(
    c: FinitePrevariety, dfa: Dfa, monoid_cap: int = 4096
) -> MembershipVerdict:
    lang = syntactic_morphism(dfa, cap=monoid_cap)
    alpha = lang.morphism
    m = alpha.codomain
    pairs = c_pairs(c, alpha)
    orbits = {}
    answer = True
    witness = None
    for e in idempotents(m):
        orbit = c_orbit(pairs, alpha, e)
        orbits[str(e)] = sorted(orbit)
        if answer:
            bad = aperiodicity_witness(m, orbit)
            if bad is not None:
                answer = False
                witness = bad
    return MembershipVerdict(
        answer=answer,
        witness=witness,
        monoid_size=m.size,
        detail={"orbits": orbits},
    )


def sf_membership_group(
    g: GroupClass, dfa: Dfa, monoid_cap: int | None = None, config: Config = DEFAULT
) -> MembershipVerdict:
    if monoid_cap is None:
        monoid_cap = config.monoid_cap
    lang = syntactic_morphism(dfa, cap=monoid_cap)
    alpha = lang.morphism
    m = alpha.codomain
    kernel = group_kernel(g, alpha, config=config)
    witness = aperiodicity_witness(m, kernel)
    return MembershipVerdict(
        answer=witness is None,
        witness=witness,
        monoid_size=m.size,
        detail={"kernel": sorted(kernel)},
    )


def sf_membership(
    cls, dfa: Dfa, monoid_cap: int | None = None, config: Config = DEFAULT
) -> MembershipVerdict:
    """Whether dfa's language lies in SF(cls).  The syntactic monoid may
    have at most monoid_cap elements, config.monoid_cap when it is None."""
    if monoid_cap is None:
        monoid_cap = config.monoid_cap
    if isinstance(cls, FinitePrevariety):
        return sf_membership_finite(cls, dfa, monoid_cap=monoid_cap)
    return sf_membership_group(g=cls, dfa=dfa, monoid_cap=monoid_cap, config=config)

