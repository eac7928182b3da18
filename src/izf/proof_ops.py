"""Substitution, erasure and the nameless key for proof terms.

Nothing here is written per constructor: each operation is read off the
binding shapes in ``syntax.SHAPES``.  Substitution, in both namespaces and
both calculi, is ``syntax.substitute``: a term replaces a first-order
variable and a proof a hypothesis variable, in one capture-avoiding
traversal that dodges propositional and first-order binders alike; like the
key, it is generated per constructor.  Erasure, interpreted from the shapes,
maps each annotated constructor to its erased twin in ``proofs.TWINS``,
which takes the same-named fields.

``canon`` is the proof-level nameless key, ``syntax.to_nameless`` itself:
proof binders become indices like first-order ones, and an axiom identifier
renders as its schema's key or, without a schema, its family tag.  Equal
keys mean alpha-equal terms, so the key is the state key of cycle detection
and the memo key of the realizability evaluator, which looks it up as
``canon_key``.  ``canon_key`` is ``canon`` itself and takes no memo: keys
and free names live on the node (see ``syntax``), so keying a node again
costs O(1), and a new node built around keyed ones is keyed without
walking them.  This module holds no cache.
"""

from __future__ import annotations

from .notation import family
from .proofs import TWINS, ErasedProof, Proof
from .syntax import PROOF, SHAPES, alpha_eq, substitute, to_nameless


# ---------------------------------------------------------------------------
# Substitution

subst_proof = esubst_prop = subst_proof_term = esubst_term = substitute


# ---------------------------------------------------------------------------
# Erasure


# Per annotated constructor: its erased twin and the twin's fields as (name,
# kind).  Each field but ``family``, which ``erase`` reads off the axiom
# identifier, is the annotated field of that name and kind.
_ERASURE = {cls: (twin, tuple((f.name, f.kind) for f in SHAPES[twin].fields)) for cls, twin in TWINS.items()}


def erase(m: Proof) -> ErasedProof:
    """Strip annotations; axiom and induction terms lose their term data,
    and an axiom identifier becomes its family tag.  One frame per nesting
    level."""
    plan = _ERASURE.get(type(m))
    if plan is None:
        raise TypeError(f"not a proof term: {m!r}")
    cls, fields = plan
    vals = []
    for name, kind in fields:
        if kind is PROOF:
            vals.append(erase(getattr(m, name)))
        elif name == "family":
            vals.append(family(m.ax))
        else:
            vals.append(getattr(m, name))
    return cls(*vals)


# ---------------------------------------------------------------------------
# Canonical nameless rendering; alpha equivalence for proofs


canon = canon_key = to_nameless
alpha_eq_proof = alpha_eq
