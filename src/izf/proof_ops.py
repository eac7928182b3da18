"""Substitution, erasure and the nameless key for proof terms.

Nothing here is written per constructor: each operation is read off the
binding shapes in ``proofs.SHAPES``.  Substitution, in both namespaces and
both calculi, is ``syntax.substitute``: a term replaces a first-order
variable and a proof a hypothesis variable, in one capture-avoiding
traversal that dodges propositional and first-order binders alike.  Erasure
maps each annotated constructor to the erased one with the same tag, which
takes the same-named fields.

``canon`` is the proof-level nameless key, ``syntax.to_nameless`` itself:
proof binders become indices like first-order ones, and an axiom identifier
renders as its schema's key or, without a schema, its family tag.  Equal
keys mean alpha-equal terms, so the key is the state key of cycle detection
and the memo key of the realizability evaluator.  ``canon_key`` memoises it
in a dict the caller owns (the evaluator keeps one per instance); this
module holds no cache.
"""

from __future__ import annotations

from .axioms import family_name
from .proofs import SHAPES, ErasedProof, Proof
from .syntax import PROOF, substitute, to_nameless


# ---------------------------------------------------------------------------
# Substitution

subst_proof = esubst_prop = subst_proof_term = esubst_term = substitute


# ---------------------------------------------------------------------------
# Erasure


def _erasure_plans() -> dict[type, tuple]:
    """Per annotated constructor: its erased partner, the constructor with
    the same tag, and the partner's fields as (name, kind of the same-named
    annotated field); ``family`` alone has no such field."""
    erased = {shape.tag: cls for cls, shape in SHAPES.items() if issubclass(cls, ErasedProof)}
    plans = {}
    for cls, shape in SHAPES.items():
        if issubclass(cls, Proof):
            kinds = {f.name: f.kind for f in shape.fields}
            partner = erased[shape.tag]
            plans[cls] = (partner, tuple((f.name, kinds.get(f.name)) for f in SHAPES[partner].fields))
    return plans


_ERASURE = _erasure_plans()


def erase(m: Proof) -> ErasedProof:
    """Strip annotations; axiom and induction terms lose their term data,
    and an axiom identifier becomes its family tag."""
    plan = _ERASURE.get(type(m))
    if plan is None:
        raise TypeError(f"not a proof term: {m!r}")
    cls, fields = plan
    return cls(
        *(
            erase(getattr(m, name)) if kind is PROOF
            else family_name(m.ax) if name == "family"
            else getattr(m, name)
            for name, kind in fields
        )
    )


# ---------------------------------------------------------------------------
# Canonical nameless rendering; alpha equivalence for proofs


canon = to_nameless


def canon_key(m: Proof | ErasedProof, memo: dict[int, tuple[object, tuple]]) -> tuple:
    """canon through an identity-keyed memo owned by the caller.

    Terms are immutable and shared, so the same object is often keyed many
    times.  Each entry keeps its term alive, so an id is never reused while
    the memo lives, and the memo dies with its owner.
    """
    hit = memo.get(id(m))
    if hit is None:
        hit = memo[id(m)] = (m, canon(m))
    return hit[1]


def alpha_eq_proof(m: Proof | ErasedProof, n: Proof | ErasedProof) -> bool:
    return canon(m) == canon(n)
