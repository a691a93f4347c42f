"""Membership in the star-free closure of a base class.

One decision on the syntactic morphism: the language belongs to the
closure iff every checked subset is aperiodic.  For a finite base class
those are the pair orbits of the idempotents, for a group class the
kernel.  A verdict carries them, and a witness element violating
aperiodicity when the answer is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa
from .config import DEFAULT, Config
from .monoid import Morphism, aperiodicity_witness, idempotents, syntactic_morphism
from .oracles import FinitePrevariety, c_orbit, c_pairs, group_kernel


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


def idempotent_orbits(c: FinitePrevariety, alpha: Morphism) -> dict[str, list[int]]:
    """The sorted orbit in c of every idempotent of alpha's codomain, keyed
    by the idempotent as a string, in idempotent order."""
    pairs = c_pairs(c, alpha)
    return {str(e): sorted(c_orbit(pairs, alpha, e)) for e in idempotents(alpha.codomain)}


def sf_membership(
    cls, dfa: Dfa, monoid_cap: int | None = None, config: Config = DEFAULT
) -> MembershipVerdict:
    """Whether dfa's language lies in SF(cls).  The syntactic monoid may
    have at most monoid_cap elements, config.monoid_cap when it is None.

    The checked subsets are the orbits, in idempotent order, for a finite
    class and the kernel for a group class; the witness is the first
    element that breaks aperiodicity in one of them."""
    if monoid_cap is None:
        monoid_cap = config.monoid_cap
    alpha = syntactic_morphism(dfa, cap=monoid_cap).morphism
    if isinstance(cls, FinitePrevariety):
        orbits = idempotent_orbits(cls, alpha)
        detail = {"orbits": orbits}
        subsets = orbits.values()
    else:
        kernel = sorted(group_kernel(cls, alpha, config=config))
        detail = {"kernel": kernel}
        subsets = [kernel]
    m = alpha.codomain
    found = (aperiodicity_witness(m, subset) for subset in subsets)
    witness = next((s for s in found if s is not None), None)
    return MembershipVerdict(
        answer=witness is None,
        witness=witness,
        monoid_size=m.size,
        detail=detail,
    )
