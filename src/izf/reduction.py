"""Deterministic lazy small-step machines for annotated and erased proofs.

The evaluation contexts descend into exactly one position per constructor
(function position of applications, subject of projections, case, let,
axiom elimination and magic), so decomposition is unique; induction terms
fire in place.  Everything reduction-based is fuel-bounded and total.

The rules are a table keyed by class, ``_RULES``: it names each construct
once, by its annotated class, with its rule and the attribute of its hole,
the evaluation-context child, and the erased twin (``proofs.TWINS``) shares
both, as it has the field names the rule reads.  A rule reads its node and
the value in that hole and gives the rule that fires there with its
contractum, or why the node is stuck; a class with no entry has no rule.
``_FILL`` rebuilds a node around its hole, read off the hole and the fields.

One loop, ``_run``, is a focused machine whose transitions are those
outcomes (Accattoli, Barenbaum & Mazza, *Distilling Abstract Machines*,
ICFP 2014).  Its state is a focus and a persistent context of
``(parent, attr)`` frames, the redex path (a zipper: Huet, *The Zipper*,
JFP 1997).  A value in a hole pops its frame and the parent's rule reads
the parent and that value, so no parent is rebuilt on the way; after a
contraction the machine goes on from the contractum instead of
re-descending from the root, on a loop rather than native recursion, so
each step costs what changed, not the depth.  ``step``, ``normalize``,
``trace_states``, ``detect_cycle`` and ``simulate_erasure`` all drive it.
Parents are rebuilt only by ``_plug``, when a state is read: by
``on_step``, by ``detect_cycle``'s key, as a result or as a fuel or stuck
state.

``_redex_at_root`` and ``_hole_child`` keep an independent, per-calculus
statement of the same grammar for ``count_redexes`` and the determinism
check.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Union

from .proof_ops import canon, erase, subst_proof, subst_proof_term
from .proofs import (
    TWINS,
    _VALUES,
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    EApp,
    EAppT,
    EAxProp,
    EAxRep,
    ECase,
    EExIntro,
    EFst,
    EInd,
    EInl,
    EInr,
    ELamF,
    ELamP,
    ELet,
    EMagic,
    EPairP,
    EPropVar,
    ErasedProof,
    ESnd,
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
    proof_free_vars,
)
from .syntax import MemI, Var, alpha_eq, fresh_name, record

AnyProof = Union[Proof, ErasedProof]

Path = tuple[str, ...]


@record()
class Stepped:
    term: AnyProof
    rule: str
    path: Path


@record()
class IsValue:
    pass


@record()
class Stuck:
    path: Path
    reason: str


StepResult = Union[Stepped, IsValue, Stuck]


def _ind_unfold(m: Ind | EInd) -> AnyProof:
    """ind_phi(M, ts) -> fresh-variable unfolding of one induction layer."""
    pv, fv = proof_free_vars(m)
    c = fresh_name("c", fv)
    b = fresh_name("b", fv | {c})
    x = fresh_name("x", pv)
    if isinstance(m, Ind):
        step_fn = LamF(b, LamP(x, MemI(Var(b), Var(c)), AppT(m, Var(b))))
        return LamF(c, App(AppT(m.arg, Var(c)), step_fn))
    step_fn = ELamF(b, ELamP(x, EAppT(m, Var(b))))
    return ELamF(c, EApp(EAppT(m.arg, Var(c)), step_fn))


# The rules of both machines, one function per construct.  A rule reads a
# node m and the value in its hole (None for a construct without one) and
# gives ``(rule, contractum)`` when a rule fires at m, else ``(None, reason)``.


def _free_hypothesis(m: PropVar | EPropVar, _):
    return None, f"free hypothesis {m.name}"


def _app(m: App | EApp, f):
    if isinstance(f, (LamP, ELamP)):
        return "beta", subst_proof(f.body, f.var, m.arg)
    return None, "application of a non-lambda value"


def _app_term(m: AppT | EAppT, f):
    if isinstance(f, (LamF, ELamF)):
        return "beta-fo", subst_proof_term(f.body, f.var, m.arg)
    return None, "term application of a non-term-lambda value"


def _fst(m: Fst | EFst, v):
    if isinstance(v, (PairP, EPairP)):
        return "fst", v.left
    return None, "fst of a non-pair value"


def _snd(m: Snd | ESnd, v):
    if isinstance(v, (PairP, EPairP)):
        return "snd", v.right
    return None, "snd of a non-pair value"


def _case(m: Case | ECase, s):
    if isinstance(s, (Inl, EInl)):
        return "case-inl", subst_proof(m.lbody, m.lvar, s.body)
    if isinstance(s, (Inr, EInr)):
        return "case-inr", subst_proof(m.rbody, m.rvar, s.body)
    return None, "case subject is not an injection"


def _let(m: Let | ELet, subj):
    if isinstance(subj, (ExIntro, EExIntro)):
        return "let-ex", subst_proof(subst_proof_term(m.body, m.fvar, subj.witness), m.pvar, subj.body)
    return None, "let subject is not a witness pair"


def _magic(m: Magic | EMagic, _):
    return None, "magic of a value"


def _ax_prop(m: AxProp | EAxProp, v):
    if isinstance(v, (AxRep, EAxRep)):
        return ("ax-cancel", v.arg) if _cancels(m, v) else (None, "mismatched elimination/introduction pair")
    return None, "axiom elimination of a non-introduction value"


def _ind(m: Ind | EInd, _):
    return "ind-unfold", _ind_unfold(m)


def _no_rule(m: AnyProof, _):
    return None, f"no rule for {type(m).__name__}"


# Each construct's rule and the attribute of its hole, None for no hole, by
# its annotated class; its erased twin shares both.
_RULES = {
    PropVar: (_free_hypothesis, None),
    App: (_app, "fn"),
    AppT: (_app_term, "fn"),
    Fst: (_fst, "arg"),
    Snd: (_snd, "arg"),
    Case: (_case, "scrut"),
    Let: (_let, "subject"),
    Magic: (_magic, "arg"),
    AxProp: (_ax_prop, "arg"),
    Ind: (_ind, None),
}
_RULES.update({TWINS[cls]: rule for cls, rule in _RULES.items()})
_NO_RULE = (_no_rule, None)


def _cancels(elim: AxProp | EAxProp, intro: AxRep | EAxRep) -> bool:
    """Whether an axiom elimination meets an introduction of the same instance."""
    if isinstance(elim, EAxProp):
        return elim.family == intro.family
    mine, theirs = (elim.ax, elim.term, *elim.args), (intro.ax, intro.term, *intro.args)
    return mine == theirs or (len(mine) == len(theirs) and all(map(alpha_eq, mine, theirs)))


# ---------------------------------------------------------------------------
# The focused machine
#
# A context is a persistent linked list of frames ``(parent, attr, outer)``,
# innermost first, ending in None at the root: the path from the root to the
# focus.  A frame's parent is read only for its fields other than ``attr``,
# so ancestors are rebuilt only by ``_plug``, when a state is read.

Ctx = Optional[tuple]


def _filler(cls: type, hole: str):
    """The function of a context node p of class cls and a proof c that
    gives p with c in its hole: one constructor call read off the class's
    fields, such as ``lambda p, c: App(c, p.arg)``."""
    args = ", ".join("c" if f == hole else f"p.{f}" for f in cls.__match_args__)
    return eval(f"lambda p, c: {cls.__name__}({args})", {cls.__name__: cls})


_FILL = {cls: _filler(cls, hole) for cls, (_, hole) in _RULES.items() if hole}


def _plug(ctx: Ctx, m: AnyProof) -> AnyProof:
    """The full term with m in the hole of ctx."""
    while ctx is not None:
        parent, _, ctx = ctx
        m = _FILL[type(parent)](parent, m)
    return m


def _path(ctx: Ctx) -> Path:
    """The attributes leading from the root to the hole of ctx."""
    attrs = []
    while ctx is not None:
        attrs.append(ctx[1])
        ctx = ctx[2]
    return tuple(reversed(attrs))


def _run(m: AnyProof):
    """The focused machine on m, the one loop behind both calculi.

    Yields ``(rule, ctx, contractum, None)`` for every step, then ``(None,
    ctx, focus, reason)`` once the state is final, with reason None for a
    value and the stuck reason otherwise: each state is ``_plug(ctx, term)``.

    A rule reads its node's hole.  A node whose hole holds a non-value
    pushes a frame; a value pops one, and the parent's rule reads the parent
    and that value, so parents are rebuilt only by ``_plug``.  After a
    contraction the machine resumes at the contractum.  Only the immediate
    parent's hole child changes head, so no other ancestor becomes a redex.
    """
    ctx: Ctx = None
    focus = m
    while True:
        if type(focus) not in _VALUES:
            fire, attr = _RULES.get(type(focus), _NO_RULE)
            hole = attr and getattr(focus, attr)
            if attr is not None and type(hole) not in _VALUES:
                ctx = (focus, attr, ctx)
                focus = hole
                continue
            rule, out = fire(focus, hole)
        elif ctx is None:
            yield None, None, focus, None
            return
        else:
            parent, attr, ctx = ctx
            rule, out = _RULES[type(parent)][0](parent, focus)
            if rule is None:
                focus = _plug((parent, attr, None), focus)
        if rule is None:
            yield None, ctx, focus, out
            return
        yield rule, ctx, out, None
        focus = out


def step(m: AnyProof) -> StepResult:
    """One step of the machine of m's calculus, annotated or erased."""
    rule, ctx, term, reason = next(_run(m))
    if rule is not None:
        return Stepped(_plug(ctx, term), rule, _path(ctx))
    if reason is None:
        return IsValue()
    return Stuck(_path(ctx), reason)


# ---------------------------------------------------------------------------
# Fuel-bounded driving


@record(frozen=False)
class NormalizeOutcome:
    status: str  # "value" | "fuel" | "stuck"
    result: AnyProof  # final value, or last state reached
    steps: int
    stuck_path: Path = ()
    stuck_reason: str = ""

    @property
    def is_value(self) -> bool:
        return self.status == "value"


class FuelExhausted(Exception):
    def __init__(self, outcome: NormalizeOutcome):
        super().__init__(f"no value within {outcome.steps} steps")
        self.outcome = outcome


class StuckTerm(Exception):
    def __init__(self, outcome: NormalizeOutcome):
        super().__init__(f"stuck at {'/'.join(outcome.stuck_path)}: {outcome.stuck_reason}")
        self.outcome = outcome


DEFAULT_FUEL = 10**6


def normalize(m: AnyProof, fuel: int = DEFAULT_FUEL, on_step=None) -> NormalizeOutcome:
    """Iterate the appropriate machine, counting steps exactly.

    ``on_step(index, rule, path, state)`` is invoked after every step, which
    is how the trace exporter hooks in; only then is every state plugged.
    The state after the last step is kept as its context and term and
    plugged only if the fuel runs out there.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    i = 0
    last_ctx, last_term = None, m
    for rule, ctx, term, reason in _run(m):
        if rule is None:
            status = "value" if reason is None else "stuck"
            return NormalizeOutcome(status, _plug(ctx, term), i, _path(ctx), reason or "")
        if i == fuel:
            return NormalizeOutcome("fuel", _plug(last_ctx, last_term), i)
        if on_step is not None:
            on_step(i, rule, _path(ctx), _plug(ctx, term))
        last_ctx, last_term = ctx, term
        i += 1
    raise AssertionError("unreachable")


def trace_states(m: AnyProof, fuel: int) -> list[AnyProof]:
    """All states of a run that must end in a value: [m, ..., value]."""
    states = [m]
    for rule, ctx, term, reason in islice(_run(m), fuel):
        if rule is not None:
            states.append(_plug(ctx, term))
        elif reason is None:
            return states
        else:
            raise StuckTerm(NormalizeOutcome("stuck", states[-1], len(states) - 1, _path(ctx), reason))
    raise FuelExhausted(NormalizeOutcome("fuel", states[-1], fuel))


def detect_cycle(m: AnyProof, fuel: int) -> Optional[tuple[int, int]]:
    """First recurrence of an alpha-equal state: (prefix length, period)."""
    seen: dict[object, int] = {}
    state = m
    run = _run(m)
    for i in range(fuel + 1):
        key = canon(state)
        if key in seen:
            return seen[key], i - seen[key]
        seen[key] = i
        if i == fuel:
            break
        rule, ctx, term, _ = next(run)
        if rule is None:
            return None
        state = _plug(ctx, term)
    return None


@record(frozen=False)
class ErasureReport:
    ok: bool
    steps: int
    status: str  # status of the pair of runs: "value" | "fuel" | "stuck"
    divergence_at: int = -1
    detail: str = ""


def simulate_erasure(m: Proof, fuel: int = DEFAULT_FUEL) -> ErasureReport:
    """Drive both machines in lockstep, comparing through the erasure map.

    At every index the erasure of the annotated state must be alpha-equal to
    the erased state, and the two machines must agree on being done.
    """
    typed = m
    erased = erase(m)
    runs = zip(_run(typed), _run(erased))
    for i in range(fuel + 1):
        if canon(erase(typed)) != canon(erased):
            return ErasureReport(False, i, "diverged", i, "erasure of state differs")
        (rt, ct, tt, ot), (re, ce, te, oe) = next(runs)
        value_t, value_e = rt is None and ot is None, re is None and oe is None
        if value_t or value_e:
            if value_t and value_e:
                return ErasureReport(True, i, "value")
            return ErasureReport(False, i, "diverged", i, "one machine finished early")
        if rt is None or re is None:
            if rt is None and re is None:
                return ErasureReport(True, i, "stuck")
            return ErasureReport(False, i, "diverged", i, "one machine stuck early")
        typed = _plug(ct, tt)
        erased = _plug(ce, te)
    return ErasureReport(True, fuel, "fuel")


def count_redexes(m: AnyProof) -> int:
    """Independent count of rule-applicable positions under the context grammar.

    Used by the determinism check: a correct machine admits exactly one for
    every closed well-typed non-value.
    """
    n = 0
    node: AnyProof | None = m
    while node is not None:
        n += _redex_at_root(node)
        node = _hole_child(node)
    return n


def _redex_at_root(m: AnyProof) -> bool:
    match m:
        case App(f, _) | EApp(f, _):
            return isinstance(f, (LamP, ELamP))
        case AppT(f, _) | EAppT(f, _):
            return isinstance(f, (LamF, ELamF))
        case Fst(a) | EFst(a) | Snd(a) | ESnd(a):
            return isinstance(a, (PairP, EPairP))
        case Case():
            return isinstance(m.scrut, (Inl, Inr))
        case ECase():
            return isinstance(m.scrut, (EInl, EInr))
        case Let(_, _, _, subj, _):
            return isinstance(subj, ExIntro)
        case ELet(_, _, subj, _):
            return isinstance(subj, EExIntro)
        case AxProp(ax, t, args, arg):
            return (
                isinstance(arg, AxRep)
                and alpha_eq(ax, arg.ax)
                and alpha_eq(t, arg.term)
                and len(args) == len(arg.args)
                and all(alpha_eq(u, v) for u, v in zip(args, arg.args))
            )
        case EAxProp(fam, arg):
            return isinstance(arg, EAxRep) and arg.family == fam
        case Ind() | EInd():
            return True
        case _:
            return False


def _hole_child(m: AnyProof) -> AnyProof | None:
    match m:
        case App(f, _) | EApp(f, _) | AppT(f, _) | EAppT(f, _):
            return f
        case Fst(a) | EFst(a) | Snd(a) | ESnd(a) | Magic(a, _) | EMagic(a):
            return a
        case Case() | ECase():
            return m.scrut
        case Let(_, _, _, subj, _) | ELet(_, _, subj, _):
            return subj
        case AxProp(_, _, _, arg):
            return arg
        case EAxProp(_, arg):
            return arg
        case _:
            return None
