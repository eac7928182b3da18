"""Deterministic lazy small-step machines for annotated and erased proofs.

The evaluation contexts descend into exactly one position per constructor
(function position of applications, subject of projections, case, let,
axiom elimination and magic), so decomposition is unique; induction terms
fire in place.  Everything reduction-based is fuel-bounded and total.

The rules are a table keyed by class, ``_RULES``: one function per
construct serves both machines, as a construct's annotated and erased
classes share the field names it reads.  For one node it gives the rule
that fires there with its contractum, the evaluation-context child to look
into, or why the node is stuck; a class with no entry has no rule.

One loop, ``_run``, is a focused machine whose transitions are those
outcomes (Accattoli, Barenbaum & Mazza, *Distilling Abstract Machines*,
ICFP 2014).  Its state is a focus and a persistent context of
``(parent, attr)`` frames, the redex path, and each focus costs one lookup
in the rule table.  After a contraction it goes on from the contractum
instead of re-descending from the root, on a loop rather than native
recursion, so each step costs what changed, not the depth.  ``step``,
``normalize``, ``trace_states``, ``detect_cycle`` and ``simulate_erasure``
all drive it.  A state is plugged into a full term only when it is read:
by ``on_step``, by ``detect_cycle``'s key or as a result.

``_redex_at_root`` and ``_hole_child`` keep an independent, per-calculus
statement of the same grammar for ``count_redexes`` and the determinism
check.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Union

from .proof_ops import canon, erase, subst_proof, subst_proof_term
from .proofs import (
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
    is_value,
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


# The rules of both machines, one function per construct, shared by its
# annotated and erased classes, which have the same field names.  A rule
# function gives, for one node m, ``(rule, contractum, None)`` when a rule
# fires at m, ``(None, attr, reason)`` when m waits on its
# evaluation-context child ``attr`` (and is stuck for ``reason`` if that
# child is a value), and ``(None, None, reason)`` when no rule can ever fire
# at m.


def _free_hypothesis(m: PropVar | EPropVar):
    return None, None, f"free hypothesis {m.name}"


def _app(m: App | EApp):
    f = m.fn
    if isinstance(f, (LamP, ELamP)):
        return "beta", subst_proof(f.body, f.var, m.arg), None
    return None, "fn", "application of a non-lambda value"


def _app_term(m: AppT | EAppT):
    f = m.fn
    if isinstance(f, (LamF, ELamF)):
        return "beta-fo", subst_proof_term(f.body, f.var, m.arg), None
    return None, "fn", "term application of a non-term-lambda value"


def _fst(m: Fst | EFst):
    if isinstance(m.arg, (PairP, EPairP)):
        return "fst", m.arg.left, None
    return None, "arg", "fst of a non-pair value"


def _snd(m: Snd | ESnd):
    if isinstance(m.arg, (PairP, EPairP)):
        return "snd", m.arg.right, None
    return None, "arg", "snd of a non-pair value"


def _case(m: Case | ECase):
    s = m.scrut
    if isinstance(s, (Inl, EInl)):
        return "case-inl", subst_proof(m.lbody, m.lvar, s.body), None
    if isinstance(s, (Inr, EInr)):
        return "case-inr", subst_proof(m.rbody, m.rvar, s.body), None
    return None, "scrut", "case subject is not an injection"


def _let(m: Let | ELet):
    subj = m.subject
    if isinstance(subj, (ExIntro, EExIntro)):
        out = subst_proof(subst_proof_term(m.body, m.fvar, subj.witness), m.pvar, subj.body)
        return "let-ex", out, None
    return None, "subject", "let subject is not a witness pair"


def _magic(m: Magic | EMagic):
    return None, "arg", "magic of a value"


def _ax_prop(m: AxProp | EAxProp):
    arg = m.arg
    if isinstance(arg, (AxRep, EAxRep)):
        if _cancels(m, arg):
            return "ax-cancel", arg.arg, None
        return None, None, "mismatched elimination/introduction pair"
    return None, "arg", "axiom elimination of a non-introduction value"


def _ind(m: Ind | EInd):
    return "ind-unfold", _ind_unfold(m), None


def _no_rule(m: AnyProof):
    return None, None, f"no rule for {type(m).__name__}"


_RULES = {
    **dict.fromkeys((PropVar, EPropVar), _free_hypothesis),
    **dict.fromkeys((App, EApp), _app),
    **dict.fromkeys((AppT, EAppT), _app_term),
    **dict.fromkeys((Fst, EFst), _fst),
    **dict.fromkeys((Snd, ESnd), _snd),
    **dict.fromkeys((Case, ECase), _case),
    **dict.fromkeys((Let, ELet), _let),
    **dict.fromkeys((Magic, EMagic), _magic),
    **dict.fromkeys((AxProp, EAxProp), _ax_prop),
    **dict.fromkeys((Ind, EInd), _ind),
}


def _cancels(elim: AxProp | EAxProp, intro: AxRep | EAxRep) -> bool:
    """Whether an axiom elimination meets an introduction of the same instance."""
    if isinstance(elim, EAxProp):
        return elim.family == intro.family
    return (
        alpha_eq(elim.ax, intro.ax)
        and alpha_eq(elim.term, intro.term)
        and len(elim.args) == len(intro.args)
        and all(alpha_eq(u, v) for u, v in zip(elim.args, intro.args))
    )


# ---------------------------------------------------------------------------
# The focused machine
#
# A context is a persistent linked list of frames ``(parent, attr, outer)``,
# innermost first, ending in None at the root: the path from the root to the
# focus.  A frame's parent is read only for its fields other than ``attr``,
# so ancestors are rebuilt only when a state is plugged into a full term.

Ctx = Optional[tuple]

# Each context node with its hole filled: one constructor call.
_FILL = {
    App: lambda p, c: App(c, p.arg),
    EApp: lambda p, c: EApp(c, p.arg),
    AppT: lambda p, c: AppT(c, p.arg),
    EAppT: lambda p, c: EAppT(c, p.arg),
    Fst: lambda p, c: Fst(c),
    EFst: lambda p, c: EFst(c),
    Snd: lambda p, c: Snd(c),
    ESnd: lambda p, c: ESnd(c),
    Case: lambda p, c: Case(c, p.lvar, p.lann, p.lbody, p.rvar, p.rann, p.rbody),
    ECase: lambda p, c: ECase(c, p.lvar, p.lbody, p.rvar, p.rbody),
    Let: lambda p, c: Let(p.fvar, p.pvar, p.ann, c, p.body),
    ELet: lambda p, c: ELet(p.fvar, p.pvar, c, p.body),
    Magic: lambda p, c: Magic(c, p.ann),
    EMagic: lambda p, c: EMagic(c),
    AxProp: lambda p, c: AxProp(p.ax, p.term, p.args, c),
    EAxProp: lambda p, c: EAxProp(p.family, c),
}


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

    Yields ``(rule, ctx, redex, contractum)`` for every step, the state
    after it being ``_plug(ctx, contractum)``; then ``(None, ctx, focus,
    reason)`` once the state ``_plug(ctx, focus)`` is final, with reason
    None for a value and the stuck reason otherwise.

    After a contraction the machine resumes at the contractum: a value pops
    one frame (the parent, rebuilt around it, is then a redex or stuck) and
    a non-redex pushes one.  Only the immediate parent's hole child changes
    head, so no other ancestor can become a redex.
    """
    ctx: Ctx = None
    focus = m
    while True:
        if is_value(focus):
            if ctx is None:
                yield None, None, focus, None
                return
            parent, _, ctx = ctx
            focus = _FILL[type(parent)](parent, focus)
        rule, out, reason = _RULES.get(type(focus), _no_rule)(focus)
        if rule is not None:
            yield rule, ctx, focus, out
            focus = out
        elif out is None or is_value(child := getattr(focus, out)):
            yield None, ctx, focus, reason
            return
        else:
            ctx = (focus, out, ctx)
            focus = child


def step(m: AnyProof) -> StepResult:
    """One step of the machine of m's calculus, annotated or erased."""
    rule, ctx, _, out = next(_run(m))
    if rule is not None:
        return Stepped(_plug(ctx, out), rule, _path(ctx))
    if out is None:
        return IsValue()
    return Stuck(_path(ctx), out)


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
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    i = 0
    for rule, ctx, focus, out in _run(m):
        if rule is None:
            status = "value" if out is None else "stuck"
            return NormalizeOutcome(status, _plug(ctx, focus), i, _path(ctx), out or "")
        if i == fuel:
            return NormalizeOutcome("fuel", _plug(ctx, focus), i)
        if on_step is not None:
            on_step(i, rule, _path(ctx), _plug(ctx, out))
        i += 1
    raise AssertionError("unreachable")


def normalize_value(m: AnyProof, fuel: int = DEFAULT_FUEL) -> tuple[AnyProof, int]:
    """Like normalize but demands a value, raising otherwise."""
    out = normalize(m, fuel)
    if out.status == "fuel":
        raise FuelExhausted(out)
    if out.status == "stuck":
        raise StuckTerm(out)
    return out.result, out.steps


def trace_states(m: AnyProof, fuel: int) -> list[AnyProof]:
    """All states of a run that must end in a value: [m, ..., value]."""
    states = [m]
    for rule, ctx, _, out in islice(_run(m), fuel):
        if rule is not None:
            states.append(_plug(ctx, out))
        elif out is None:
            return states
        else:
            raise StuckTerm(NormalizeOutcome("stuck", states[-1], len(states) - 1, _path(ctx), out))
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
        rule, ctx, _, out = next(run)
        if rule is None:
            return None
        state = _plug(ctx, out)
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
        (rt, ct, _, ot), (re, ce, _, oe) = next(runs)
        value_t, value_e = rt is None and ot is None, re is None and oe is None
        if value_t or value_e:
            if value_t and value_e:
                return ErasureReport(True, i, "value")
            return ErasureReport(False, i, "diverged", i, "one machine finished early")
        if rt is None or re is None:
            if rt is None and re is None:
                return ErasureReport(True, i, "stuck")
            return ErasureReport(False, i, "diverged", i, "one machine stuck early")
        typed = _plug(ct, ot)
        erased = _plug(ce, oe)
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
