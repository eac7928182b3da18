"""Syntax-directed type checking: contexts, inference, canonical forms.

Types are formulas.  Inference synthesizes the unique type of an annotated
proof term, renaming binders on the fly so that alpha-equivalent inputs
yield alpha-equivalent types and contexts never bind a name twice.  The
checker never unifies and never reduces: axiom elimination demands its term
arguments match the subject's type up to alpha.  Inference is a table keyed
by class, ``_INFER``: one rule per constructor, entering each sub-proof
through the table, one frame per nesting level, with its path a persistent
``(attr, parent)`` link that becomes ``TypeCheckError.path`` only on error.
"""

from __future__ import annotations

from typing import Callable

from .axioms import (
    AxiomId,
    IndAx,
    arity,
    head_formula,
    is_nwf_axiom,
    phi_A,
)
from .proof_ops import subst_proof, subst_proof_term
from .proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    ExIntro,
    Fst,
    Ind,
    Inl,
    Inr,
    LamF,
    LamP,
    Let,
    Magic,
    PairP,
    Proof,
    PropVar,
    Snd,
    is_value,
    proof_free_vars,
)
from .syntax import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Mem,
    MemI,
    Or,
    Term,
    Var,
    alpha_eq,
    free_vars,
    fresh_name,
    record,
    substitute,
    substitute_many,
)

Context = tuple[tuple[str, Formula], ...]

Path = tuple[str, ...]
Link = tuple[str, "Link"] | None  # a path as a persistent link: (last attribute, link to the parent)


@record(frozen=False)
class TypeCheckError(Exception):
    kind: str  # UnboundVar | Mismatch | NotAFunction | ... | ArityMismatch
    path: Path
    message: str
    expected: Formula | None = None
    found: Formula | None = None

    def __str__(self) -> str:
        loc = "/".join(self.path) or "<root>"
        return f"{self.kind} at {loc}: {self.message}"


class InternalInconsistencyError(Exception):
    """A canonical-forms precondition failed: the kernel disagrees with itself."""


def context_well_formed(ctx: Context) -> bool:
    names = [x for x, _ in ctx]
    return len(names) == len(set(names))


def ctx_lookup(ctx: Context, name: str) -> Formula | None:
    for x, phi in reversed(ctx):
        if x == name:
            return phi
    return None


def ctx_fo_vars(ctx: Context) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for _, phi in ctx:
        out |= free_vars(phi)
    return out


def _err(kind: str, at: Link, msg: str, expected=None, found=None) -> TypeCheckError:
    """The error at ``at``, its path read out root first."""
    path: Path = ()
    while at is not None:
        at, path = at[1], (at[0], *path)
    return TypeCheckError(kind, path, msg, expected, found)


def infer(ctx: Context, m: Proof, nwf: bool = False) -> Formula:
    """Synthesize the type of m in ctx, or raise TypeCheckError."""
    if not context_well_formed(ctx):
        raise _err("SideCondition", None, "context binds a variable twice")
    return _INFER[type(m)](ctx, m, nwf, None)


def check(ctx: Context, m: Proof, phi: Formula, nwf: bool = False) -> None:
    """Raise Mismatch unless the synthesized type is alpha-equal to phi."""
    got = infer(ctx, m, nwf)
    if not alpha_eq(got, phi):
        raise _err("Mismatch", None, "declared and synthesized types differ", phi, got)


def checks(ctx: Context, m: Proof, phi: Formula, nwf: bool = False) -> bool:
    try:
        check(ctx, m, phi, nwf)
        return True
    except TypeCheckError:
        return False


def _bind_prop(ctx: Context, x: str, phi: Formula, body: Proof) -> tuple[Context, Proof]:
    """Extend ctx, renaming the proposed binder if it is already bound."""
    if ctx_lookup(ctx, x) is None:
        return ctx + ((x, phi),), body
    pv, fv = proof_free_vars(body)
    x2 = fresh_name(x, {n for n, _ in ctx} | pv)
    return ctx + ((x2, phi),), subst_proof(body, x, PropVar(x2))


def _fresh_witness(ctx: Context, a: str, body: Proof, avoid: frozenset[str]) -> tuple[str, Proof]:
    """Rename the first-order binder a of body if the context mentions it."""
    taken = ctx_fo_vars(ctx)
    if a not in taken:
        return a, body
    pv, fv = proof_free_vars(body)
    a2 = fresh_name(a, taken | fv | pv | avoid)
    return a2, subst_proof_term(body, a, Var(a2))


def _prop_var(ctx: Context, m: PropVar, nwf: bool, path: Link) -> Formula:
    phi = ctx_lookup(ctx, m.name)
    if phi is None:
        raise _err("UnboundVar", path, f"unbound hypothesis {m.name}")
    return phi


def _app(ctx: Context, m: App, nwf: bool, path: Link) -> Formula:
    f, a = m.fn, m.arg
    tf = _INFER[type(f)](ctx, f, nwf, ("fn", path))
    if not isinstance(tf, Imp):
        raise _err("NotAFunction", path, "application head is not an implication", found=tf)
    ta = _INFER[type(a)](ctx, a, nwf, ("arg", path))
    if not alpha_eq(ta, tf.left):
        raise _err("Mismatch", ("arg", path), "argument type mismatch", tf.left, ta)
    return tf.right


def _lam_p(ctx: Context, m: LamP, nwf: bool, path: Link) -> Formula:
    ctx2, body = _bind_prop(ctx, m.var, m.dom, m.body)
    return Imp(m.dom, _INFER[type(body)](ctx2, body, nwf, ("body", path)))


def _lam_f(ctx: Context, m: LamF, nwf: bool, path: Link) -> Formula:
    a, body = _fresh_witness(ctx, m.var, m.body, frozenset())
    return Forall(a, _INFER[type(body)](ctx, body, nwf, ("body", path)))


def _app_t(ctx: Context, m: AppT, nwf: bool, path: Link) -> Formula:
    tf = _INFER[type(m.fn)](ctx, m.fn, nwf, ("fn", path))
    if not isinstance(tf, Forall):
        raise _err("NotUniversal", path, "term application to a non-universal", found=tf)
    return substitute(tf.body, tf.binder, m.arg)


def _pair(ctx: Context, m: PairP, nwf: bool, path: Link) -> Formula:
    l, r = m.left, m.right
    return And(_INFER[type(l)](ctx, l, nwf, ("left", path)), _INFER[type(r)](ctx, r, nwf, ("right", path)))


def _projection(word: str, side: str) -> Callable:
    def rule(ctx: Context, m: Fst | Snd, nwf: bool, path: Link) -> Formula:
        ta = _INFER[type(m.arg)](ctx, m.arg, nwf, ("arg", path))
        if not isinstance(ta, And):
            raise _err("NotAConjunction", path, f"{word} of a non-conjunction", found=ta)
        return getattr(ta, side)
    return rule


def _injection(word: str, side: str) -> Callable:
    def rule(ctx: Context, m: Inl | Inr, nwf: bool, path: Link) -> Formula:
        ann, b = m.ann, m.body
        if not isinstance(ann, Or):
            raise _err("NotADisjunction", path, f"{word} annotation must be a disjunction", found=ann)
        tb = _INFER[type(b)](ctx, b, nwf, ("body", path))
        if not alpha_eq(tb, getattr(ann, side)):
            raise _err("Mismatch", path, f"{word} body does not match {side} disjunct", getattr(ann, side), tb)
        return ann
    return rule


def _case(ctx: Context, m: Case, nwf: bool, path: Link) -> Formula:
    s, la, ra = m.scrut, m.lann, m.rann
    ts = _INFER[type(s)](ctx, s, nwf, ("scrut", path))
    if not isinstance(ts, Or):
        raise _err("NotADisjunction", path, "case subject is not a disjunction", found=ts)
    if not alpha_eq(ts.left, la) or not alpha_eq(ts.right, ra):
        raise _err("Mismatch", path, "case branch annotations do not match subject", ts, Or(la, ra))
    lctx, lb = _bind_prop(ctx, m.lvar, la, m.lbody)
    tl = _INFER[type(lb)](lctx, lb, nwf, ("left", path))
    rctx, rb = _bind_prop(ctx, m.rvar, ra, m.rbody)
    tr = _INFER[type(rb)](rctx, rb, nwf, ("right", path))
    if not alpha_eq(tl, tr):
        raise _err("Mismatch", path, "case branches disagree", tl, tr)
    return tl


def _ex_intro(ctx: Context, m: ExIntro, nwf: bool, path: Link) -> Formula:
    ann, b = m.ann, m.body
    if not isinstance(ann, Exists):
        raise _err("NotExistential", path, "witness annotation must be existential", found=ann)
    tb = _INFER[type(b)](ctx, b, nwf, ("body", path))
    want = substitute(ann.body, ann.binder, m.witness)
    if not alpha_eq(tb, want):
        raise _err("Mismatch", path, "witness body type mismatch", want, tb)
    return ann


def _let(ctx: Context, m: Let, nwf: bool, path: Link) -> Formula:
    a, ann, subj = m.fvar, m.ann, m.subject
    tsubj = _INFER[type(subj)](ctx, subj, nwf, ("subject", path))
    if not isinstance(tsubj, Exists):
        raise _err("NotExistential", path, "let subject is not existential", found=tsubj)
    if not alpha_eq(tsubj, Exists(a, ann)):
        raise _err("Mismatch", path, "let annotation does not match subject", tsubj, Exists(a, ann))
    # Freshen the witness variable against the context, then enforce that
    # it does not escape into the body's type.
    a2, body = _fresh_witness(ctx, a, m.body, free_vars(ann))
    if a2 != a:
        ann = substitute(ann, a, Var(a2))
    ctx2, body = _bind_prop(ctx, m.pvar, ann, body)
    tbody = _INFER[type(body)](ctx2, body, nwf, ("body", path))
    if a2 in free_vars(tbody):
        raise _err("SideCondition", path, f"witness variable {a2} escapes into the let body's type", found=tbody)
    return tbody


def _magic(ctx: Context, m: Magic, nwf: bool, path: Link) -> Formula:
    ta = _INFER[type(m.arg)](ctx, m.arg, nwf, ("arg", path))
    if not isinstance(ta, Bottom):
        raise _err("Mismatch", path, "magic argument must prove absurdity", Bottom(), ta)
    return m.ann


def _ind(ctx: Context, m: Ind, nwf: bool, path: Link) -> Formula:
    schema, ts = m.schema, m.terms
    if not isinstance(schema, IndAx):
        raise _err("AxiomShape", path, "ind carries a non-induction schema")
    if free_vars(schema):
        raise _err("AxiomShape", path, "schema body has stray free variables")
    if len(ts) != len(schema.params):
        raise _err("ArityMismatch", path, f"ind expects {len(schema.params)} terms, got {len(ts)}")
    term_fv = frozenset().union(frozenset(), *(free_vars(t) for t in ts))
    c = fresh_name("c", term_fv | free_vars(schema.body) | {schema.binder})
    premise = Forall(c, phi_A(schema, Var(c), ts))
    targ = _INFER[type(m.arg)](ctx, m.arg, nwf, ("arg", path))
    if not alpha_eq(targ, premise):
        raise _err("Mismatch", path, "ind argument type mismatch", premise, targ)
    binder, body = schema.binder, schema.body
    if binder in term_fv:
        binder2 = fresh_name(binder, term_fv | free_vars(body))
        body = substitute(body, binder, Var(binder2))
        binder = binder2
    return Forall(binder, substitute_many(body, dict(zip(schema.params, ts))))


def _axiom(intro: bool) -> Callable:
    """The rule of an axiom's introduction (rep) or elimination (prop)."""
    def rule(ctx: Context, m: AxRep | AxProp, nwf: bool, path: Link) -> Formula:
        ax, t, args, a = m.ax, m.term, m.args, m.arg
        if isinstance(ax, IndAx):
            raise _err("AxiomShape", path, "induction has no rep/prop form")
        if is_nwf_axiom(ax) and not nwf:
            raise _err("AxiomShape", path, "nwf axiom used outside nwf mode")
        if free_vars(ax):
            raise _err("AxiomShape", path, "schema body has stray free variables")
        if len(args) != arity(ax):
            raise _err("ArityMismatch", path, f"axiom expects {arity(ax)} argument(s), got {len(args)}")
        expected = phi_A(ax, t, args) if intro else head_formula(ax, t, args)
        got = _INFER[type(a)](ctx, a, nwf, ("arg", path))
        if not alpha_eq(got, expected):
            what = "introduction premise" if intro else "elimination subject"
            raise _err("Mismatch", path, f"axiom {what} mismatch", expected, got)
        return head_formula(ax, t, args) if intro else phi_A(ax, t, args)
    return rule


class _Rules(dict):
    def __missing__(self, cls: type):
        return _not_a_proof


def _not_a_proof(ctx: Context, m: object, nwf: bool, path: Link) -> Formula:
    raise _err("AxiomShape", path, f"not a proof term: {m!r}")


_INFER: dict[type, Callable] = _Rules({
    PropVar: _prop_var, App: _app, LamP: _lam_p, LamF: _lam_f, AppT: _app_t, PairP: _pair,
    Fst: _projection("fst", "left"), Snd: _projection("snd", "right"),
    Inl: _injection("inl", "left"), Inr: _injection("inr", "right"), Case: _case, ExIntro: _ex_intro,
    Let: _let, Magic: _magic, Ind: _ind, AxRep: _axiom(True), AxProp: _axiom(False),
})


# ---------------------------------------------------------------------------
# Canonical forms


@record()
class CFAxiom:
    ax: AxiomId
    term: Term
    args: tuple[Term, ...]
    inner: Proof
    inner_type: Formula


@record()
class CFLeft:
    inner: Proof
    inner_type: Formula


@record()
class CFRight:
    inner: Proof
    inner_type: Formula


@record()
class CFPair:
    left: Proof
    right: Proof
    left_type: Formula
    right_type: Formula


@record()
class CFLam:
    var: str
    dom: Formula
    body: Proof


@record()
class CFLamF:
    var: str
    body: Proof


@record()
class CFWitness:
    term: Term
    inner: Proof
    inner_type: Formula


CanonicalForm = CFAxiom | CFLeft | CFRight | CFPair | CFLam | CFLamF | CFWitness


def canonical_form(phi: Formula, v: Proof, nwf: bool = False) -> CanonicalForm:
    """Classify a closed well-typed value by its type's head connective.

    Raises InternalInconsistencyError when the classification promised by
    the type fails to hold, which would witness a kernel soundness bug.
    """
    if not is_value(v):
        raise InternalInconsistencyError("canonical_form applied to a non-value")
    if not checks((), v, phi, nwf):
        raise InternalInconsistencyError("canonical_form subject does not check")
    match phi:
        case MemI() | Mem() | Eq():
            if not isinstance(v, AxRep):
                raise InternalInconsistencyError(f"atomic type {phi!r} with non-axRep value")
            return CFAxiom(v.ax, v.term, v.args, v.arg, phi_A(v.ax, v.term, v.args))
        case Or(l, r):
            if isinstance(v, Inl):
                return CFLeft(v.body, l)
            if isinstance(v, Inr):
                return CFRight(v.body, r)
            raise InternalInconsistencyError("disjunction value is neither inl nor inr")
        case And(l, r):
            if isinstance(v, PairP):
                return CFPair(v.left, v.right, l, r)
            raise InternalInconsistencyError("conjunction value is not a pair")
        case Imp(l, _):
            if isinstance(v, LamP):
                return CFLam(v.var, v.dom, v.body)
            raise InternalInconsistencyError("implication value is not a lambda")
        case Forall():
            if isinstance(v, LamF):
                return CFLamF(v.var, v.body)
            raise InternalInconsistencyError("universal value is not a term lambda")
        case Exists(a, body):
            if isinstance(v, ExIntro):
                return CFWitness(v.witness, v.body, substitute(body, a, v.witness))
            raise InternalInconsistencyError("existential value is not a witness pair")
        case Bottom():
            raise InternalInconsistencyError("no closed value proves absurdity")
    raise InternalInconsistencyError(f"unclassifiable type {phi!r}")
