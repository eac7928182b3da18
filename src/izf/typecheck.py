"""Syntax-directed type checking: contexts, inference, canonical forms.

Types are formulas.  Inference synthesizes the unique type of an annotated
proof term, renaming binders on the fly so that alpha-equivalent inputs
yield alpha-equivalent types and contexts never bind a name twice.  The
checker never unifies and never reduces: axiom elimination demands its term
arguments match the subject's type up to alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    substitute,
    substitute_many,
)

Context = tuple[tuple[str, Formula], ...]

Path = tuple[str, ...]


@dataclass
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


def _err(kind: str, path: Path, msg: str, expected=None, found=None) -> TypeCheckError:
    return TypeCheckError(kind, path, msg, expected, found)


def infer(ctx: Context, m: Proof, nwf: bool = False) -> Formula:
    """Synthesize the type of m in ctx, or raise TypeCheckError."""
    if not context_well_formed(ctx):
        raise _err("SideCondition", (), "context binds a variable twice")
    return _infer(ctx, m, nwf, ())


def check(ctx: Context, m: Proof, phi: Formula, nwf: bool = False) -> None:
    """Raise Mismatch unless the synthesized type is alpha-equal to phi."""
    got = infer(ctx, m, nwf)
    if not alpha_eq(got, phi):
        raise _err("Mismatch", (), "declared and synthesized types differ", phi, got)


def checks(ctx: Context, m: Proof, phi: Formula, nwf: bool = False) -> bool:
    try:
        check(ctx, m, phi, nwf)
        return True
    except TypeCheckError:
        return False


def _bind_prop(ctx: Context, x: str, phi: Formula, body: Proof) -> tuple[Context, str, Proof]:
    """Extend ctx, renaming the proposed binder if it is already bound."""
    if ctx_lookup(ctx, x) is None:
        return ctx + ((x, phi),), x, body
    pv, fv = proof_free_vars(body)
    x2 = fresh_name(x, {n for n, _ in ctx} | pv)
    return ctx + ((x2, phi),), x2, subst_proof(body, x, PropVar(x2))


def _infer(ctx: Context, m: Proof, nwf: bool, path: Path) -> Formula:
    match m:
        case PropVar(x):
            phi = ctx_lookup(ctx, x)
            if phi is None:
                raise _err("UnboundVar", path, f"unbound hypothesis {x}")
            return phi

        case App(f, a):
            tf = _infer(ctx, f, nwf, path + ("fn",))
            if not isinstance(tf, Imp):
                raise _err("NotAFunction", path, "application head is not an implication", found=tf)
            ta = _infer(ctx, a, nwf, path + ("arg",))
            if not alpha_eq(ta, tf.left):
                raise _err("Mismatch", path + ("arg",), "argument type mismatch", tf.left, ta)
            return tf.right

        case LamP(x, dom, body):
            ctx2, _, body2 = _bind_prop(ctx, x, dom, body)
            return Imp(dom, _infer(ctx2, body2, nwf, path + ("body",)))

        case LamF(a, body):
            taken = ctx_fo_vars(ctx)
            if a in taken:
                pv, fv = proof_free_vars(body)
                a2 = fresh_name(a, taken | fv | pv)
                body = subst_proof_term(body, a, Var(a2))
                a = a2
            return Forall(a, _infer(ctx, body, nwf, path + ("body",)))

        case AppT(f, t):
            tf = _infer(ctx, f, nwf, path + ("fn",))
            if not isinstance(tf, Forall):
                raise _err("NotUniversal", path, "term application to a non-universal", found=tf)
            return substitute(tf.body, tf.binder, t)

        case PairP(l, r):
            return And(
                _infer(ctx, l, nwf, path + ("left",)), _infer(ctx, r, nwf, path + ("right",))
            )

        case Fst(a):
            ta = _infer(ctx, a, nwf, path + ("arg",))
            if not isinstance(ta, And):
                raise _err("NotAConjunction", path, "fst of a non-conjunction", found=ta)
            return ta.left

        case Snd(a):
            ta = _infer(ctx, a, nwf, path + ("arg",))
            if not isinstance(ta, And):
                raise _err("NotAConjunction", path, "snd of a non-conjunction", found=ta)
            return ta.right

        case Inl(body, ann):
            if not isinstance(ann, Or):
                raise _err("NotADisjunction", path, "inl annotation must be a disjunction", found=ann)
            tb = _infer(ctx, body, nwf, path + ("body",))
            if not alpha_eq(tb, ann.left):
                raise _err("Mismatch", path, "inl body does not match left disjunct", ann.left, tb)
            return ann

        case Inr(body, ann):
            if not isinstance(ann, Or):
                raise _err("NotADisjunction", path, "inr annotation must be a disjunction", found=ann)
            tb = _infer(ctx, body, nwf, path + ("body",))
            if not alpha_eq(tb, ann.right):
                raise _err("Mismatch", path, "inr body does not match right disjunct", ann.right, tb)
            return ann

        case Case(s, lx, la, lb, rx, ra, rb):
            ts = _infer(ctx, s, nwf, path + ("scrut",))
            if not isinstance(ts, Or):
                raise _err("NotADisjunction", path, "case subject is not a disjunction", found=ts)
            if not alpha_eq(ts.left, la) or not alpha_eq(ts.right, ra):
                raise _err("Mismatch", path, "case branch annotations do not match subject", ts, Or(la, ra))
            lctx, _, lb2 = _bind_prop(ctx, lx, la, lb)
            tl = _infer(lctx, lb2, nwf, path + ("left",))
            rctx, _, rb2 = _bind_prop(ctx, rx, ra, rb)
            tr = _infer(rctx, rb2, nwf, path + ("right",))
            if not alpha_eq(tl, tr):
                raise _err("Mismatch", path, "case branches disagree", tl, tr)
            return tl

        case ExIntro(t, body, ann):
            if not isinstance(ann, Exists):
                raise _err("NotExistential", path, "witness annotation must be existential", found=ann)
            tb = _infer(ctx, body, nwf, path + ("body",))
            want = substitute(ann.body, ann.binder, t)
            if not alpha_eq(tb, want):
                raise _err("Mismatch", path, "witness body type mismatch", want, tb)
            return ann

        case Let(a, x, ann, subj, body):
            tsubj = _infer(ctx, subj, nwf, path + ("subject",))
            if not isinstance(tsubj, Exists):
                raise _err("NotExistential", path, "let subject is not existential", found=tsubj)
            if not alpha_eq(tsubj, Exists(a, ann)):
                raise _err("Mismatch", path, "let annotation does not match subject", tsubj, Exists(a, ann))
            # Freshen the witness variable against the context, then enforce
            # that it does not escape into the body's type.
            taken = ctx_fo_vars(ctx)
            if a in taken:
                pv, fv = proof_free_vars(body)
                a2 = fresh_name(a, taken | fv | pv | free_vars(ann))
                body = subst_proof_term(body, a, Var(a2))
                ann = substitute(ann, a, Var(a2))
                a = a2
            ctx2, _, body2 = _bind_prop(ctx, x, ann, body)
            tbody = _infer(ctx2, body2, nwf, path + ("body",))
            if a in free_vars(tbody):
                raise _err(
                    "SideCondition",
                    path,
                    f"witness variable {a} escapes into the let body's type",
                    found=tbody,
                )
            return tbody

        case Magic(arg, ann):
            ta = _infer(ctx, arg, nwf, path + ("arg",))
            if not isinstance(ta, Bottom):
                raise _err("Mismatch", path, "magic argument must prove absurdity", Bottom(), ta)
            return ann

        case Ind(schema, arg, ts):
            if not isinstance(schema, IndAx):
                raise _err("AxiomShape", path, "ind carries a non-induction schema")
            if free_vars(schema):
                raise _err("AxiomShape", path, "schema body has stray free variables")
            if len(ts) != len(schema.params):
                raise _err("ArityMismatch", path, f"ind expects {len(schema.params)} terms, got {len(ts)}")
            term_fv = frozenset().union(frozenset(), *(free_vars(t) for t in ts))
            c = fresh_name("c", term_fv | free_vars(schema.body) | {schema.binder})
            premise = Forall(c, phi_A(schema, Var(c), ts))
            targ = _infer(ctx, arg, nwf, path + ("arg",))
            if not alpha_eq(targ, premise):
                raise _err("Mismatch", path, "ind argument type mismatch", premise, targ)
            binder = schema.binder
            body = schema.body
            if binder in term_fv:
                binder2 = fresh_name(binder, term_fv | free_vars(body))
                body = substitute(body, binder, Var(binder2))
                binder = binder2
            return Forall(binder, substitute_many(body, dict(zip(schema.params, ts))))

        case AxRep(ax, t, args, arg):
            _axiom_common(ax, args, nwf, path)
            expected = phi_A(ax, t, args)
            got = _infer(ctx, arg, nwf, path + ("arg",))
            if not alpha_eq(got, expected):
                raise _err("Mismatch", path, "axiom introduction premise mismatch", expected, got)
            return head_formula(ax, t, args)

        case AxProp(ax, t, args, arg):
            _axiom_common(ax, args, nwf, path)
            expected = head_formula(ax, t, args)
            got = _infer(ctx, arg, nwf, path + ("arg",))
            if not alpha_eq(got, expected):
                raise _err("Mismatch", path, "axiom elimination subject mismatch", expected, got)
            return phi_A(ax, t, args)

    raise _err("AxiomShape", path, f"not a proof term: {m!r}")


def _axiom_common(ax: AxiomId, args: tuple[Term, ...], nwf: bool, path: Path) -> None:
    if isinstance(ax, IndAx):
        raise _err("AxiomShape", path, "induction has no rep/prop form")
    if is_nwf_axiom(ax) and not nwf:
        raise _err("AxiomShape", path, "nwf axiom used outside nwf mode")
    if free_vars(ax):
        raise _err("AxiomShape", path, "schema body has stray free variables")
    if len(args) != arity(ax):
        raise _err("ArityMismatch", path, f"axiom expects {arity(ax)} argument(s), got {len(args)}")


# ---------------------------------------------------------------------------
# Canonical forms


@dataclass(frozen=True)
class CFAxiom:
    ax: AxiomId
    term: Term
    args: tuple[Term, ...]
    inner: Proof
    inner_type: Formula


@dataclass(frozen=True)
class CFLeft:
    inner: Proof
    inner_type: Formula


@dataclass(frozen=True)
class CFRight:
    inner: Proof
    inner_type: Formula


@dataclass(frozen=True)
class CFPair:
    left: Proof
    right: Proof
    left_type: Formula
    right_type: Formula


@dataclass(frozen=True)
class CFLam:
    var: str
    dom: Formula
    body: Proof


@dataclass(frozen=True)
class CFLamF:
    var: str
    body: Proof


@dataclass(frozen=True)
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


def weaken_ok(ctx: Context, extra: tuple[str, Formula], m: Proof, phi: Formula, nwf: bool = False) -> bool:
    """Check that one fresh hypothesis does not change the verdict."""
    x, psi = extra
    pv, fv = proof_free_vars(m)
    fresh = (
        ctx_lookup(ctx, x) is None
        and x not in pv
        and not (free_vars(psi) & (ctx_fo_vars(ctx) | fv | free_vars(phi)))
    )
    if not fresh:
        raise ValueError("weakening precondition: hypothesis must be fresh")
    return checks(ctx, m, phi, nwf) == checks(ctx + ((x, psi),), m, phi, nwf)
