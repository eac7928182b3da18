"""The four stock realizers: erasures of the checked equality lemmas.

The erasure of a checked proof of a formula realizes it, so each realizer
is read off its typed lemma in `lemmas` instead of being written out a
second time: reflexivity, symmetry, transitivity, and membership respecting
equality.
"""

from __future__ import annotations

from . import lemmas
from .proof_ops import erase
from .proofs import ErasedProof


def mk_eqRefl() -> ErasedProof:
    return erase(lemmas.mk_eq_refl())


def mk_eqSymm() -> ErasedProof:
    return erase(lemmas.mk_eq_symm())


def mk_eqTrans() -> ErasedProof:
    return erase(lemmas.mk_eq_trans())


def mk_lei() -> ErasedProof:
    return erase(lemmas.mk_lei())
