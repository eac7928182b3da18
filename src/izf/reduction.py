"""Deterministic lazy small-step machines for annotated and erased proofs.

The evaluation contexts descend into exactly one position per constructor
(function position of applications, subject of projections, case, let,
axiom elimination and magic), so decomposition is unique; induction terms
fire in place.  Everything reduction-based is fuel-bounded and total.

One rule function serves both machines: annotated and erased nodes share
the field names it reads.  ``_redex_at_root`` and ``_hole_child`` keep
an independent, per-calculus statement of the same grammar for
``count_redexes`` and the determinism check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
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
from .syntax import MemI, Var, alpha_eq, fresh_name

AnyProof = Union[Proof, ErasedProof]

Path = tuple[str, ...]


@dataclass(frozen=True)
class Stepped:
    term: AnyProof
    rule: str
    path: Path


@dataclass(frozen=True)
class IsValue:
    pass


@dataclass(frozen=True)
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


def step(m: AnyProof) -> StepResult:
    """One step of the machine of m's calculus, annotated or erased."""
    if is_value(m):
        return IsValue()
    return _step(m, ())


step_erased = step


def _descend(m: AnyProof, attr: str, path: Path, stuck: str) -> StepResult:
    """Step m's evaluation-context child ``attr`` and rebuild m around it.

    A value there meets no rule of m, which is then stuck for ``stuck``.
    """
    sub = getattr(m, attr)
    if is_value(sub):
        return Stuck(path, stuck)
    res = _step(sub, path + (attr,))
    if isinstance(res, Stepped):
        return Stepped(replace(m, **{attr: res.term}), res.rule, res.path)
    return res


def _step(m: AnyProof, path: Path) -> StepResult:
    """The rules of both machines; annotated and erased nodes share the
    field names read here."""
    match m:
        case PropVar(x) | EPropVar(x):
            return Stuck(path, f"free hypothesis {x}")
        case App() | EApp():
            f = m.fn
            if isinstance(f, (LamP, ELamP)):
                return Stepped(subst_proof(f.body, f.var, m.arg), "beta", path)
            return _descend(m, "fn", path, "application of a non-lambda value")
        case AppT() | EAppT():
            f = m.fn
            if isinstance(f, (LamF, ELamF)):
                return Stepped(subst_proof_term(f.body, f.var, m.arg), "beta-fo", path)
            return _descend(m, "fn", path, "term application of a non-term-lambda value")
        case Fst() | EFst():
            if isinstance(m.arg, (PairP, EPairP)):
                return Stepped(m.arg.left, "fst", path)
            return _descend(m, "arg", path, "fst of a non-pair value")
        case Snd() | ESnd():
            if isinstance(m.arg, (PairP, EPairP)):
                return Stepped(m.arg.right, "snd", path)
            return _descend(m, "arg", path, "snd of a non-pair value")
        case Case() | ECase():
            s = m.scrut
            if isinstance(s, (Inl, EInl)):
                return Stepped(subst_proof(m.lbody, m.lvar, s.body), "case-inl", path)
            if isinstance(s, (Inr, EInr)):
                return Stepped(subst_proof(m.rbody, m.rvar, s.body), "case-inr", path)
            return _descend(m, "scrut", path, "case subject is not an injection")
        case Let() | ELet():
            subj = m.subject
            if isinstance(subj, (ExIntro, EExIntro)):
                out = subst_proof(subst_proof_term(m.body, m.fvar, subj.witness), m.pvar, subj.body)
                return Stepped(out, "let-ex", path)
            return _descend(m, "subject", path, "let subject is not a witness pair")
        case Magic() | EMagic():
            return _descend(m, "arg", path, "magic of a value")
        case AxProp() | EAxProp():
            arg = m.arg
            if isinstance(arg, (AxRep, EAxRep)):
                if _cancels(m, arg):
                    return Stepped(arg.arg, "ax-cancel", path)
                return Stuck(path, "mismatched elimination/introduction pair")
            return _descend(m, "arg", path, "axiom elimination of a non-introduction value")
        case Ind() | EInd():
            return Stepped(_ind_unfold(m), "ind-unfold", path)
    return Stuck(path, f"no rule for {type(m).__name__}")


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
# Fuel-bounded driving


@dataclass(frozen=True)
class TraceEntry:
    index: int
    rule: str
    path: Path
    term: AnyProof  # the state after the step


@dataclass
class Trace:
    """Ring-buffered suffix of a reduction run."""

    steps: int
    status: str  # "value" | "fuel" | "stuck"
    tail: tuple[TraceEntry, ...]


@dataclass
class NormalizeOutcome:
    status: str  # "value" | "fuel" | "stuck"
    result: AnyProof  # final value, or last state reached
    steps: int
    trace: Trace
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
TRACE_TAIL = 64


def normalize(
    m: AnyProof,
    fuel: int = DEFAULT_FUEL,
    tail_size: int = TRACE_TAIL,
    on_step=None,
) -> NormalizeOutcome:
    """Iterate the appropriate machine, counting steps exactly.

    ``on_step(index, rule, path, state)`` is invoked after every step, which
    is how the trace exporter hooks in.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    tail: deque[TraceEntry] = deque(maxlen=tail_size)
    state = m
    for i in range(fuel + 1):
        res = step(state)
        match res:
            case IsValue():
                return NormalizeOutcome("value", state, i, Trace(i, "value", tuple(tail)))
            case Stuck(path, reason):
                return NormalizeOutcome(
                    "stuck", state, i, Trace(i, "stuck", tuple(tail)), path, reason
                )
            case Stepped(nxt, rule, path):
                if i == fuel:
                    return NormalizeOutcome("fuel", state, i, Trace(i, "fuel", tuple(tail)))
                state = nxt
                tail.append(TraceEntry(i, rule, path, state))
                if on_step is not None:
                    on_step(i, rule, path, state)
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
    state = m
    for _ in range(fuel):
        res = step(state)
        if isinstance(res, IsValue):
            return states
        if isinstance(res, Stuck):
            raise StuckTerm(
                NormalizeOutcome("stuck", state, len(states) - 1, Trace(0, "stuck", ()), res.path, res.reason)
            )
        state = res.term
        states.append(state)
    raise FuelExhausted(NormalizeOutcome("fuel", state, fuel, Trace(fuel, "fuel", ())))


def detect_cycle(m: AnyProof, fuel: int) -> Optional[tuple[int, int]]:
    """First recurrence of an alpha-equal state: (prefix length, period)."""
    seen: dict[object, int] = {}
    state = m
    for i in range(fuel + 1):
        key = canon(state)
        if key in seen:
            return seen[key], i - seen[key]
        seen[key] = i
        res = step(state)
        if not isinstance(res, Stepped):
            return None
        state = res.term
    return None


@dataclass
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
    for i in range(fuel + 1):
        if canon(erase(typed)) != canon(erased):
            return ErasureReport(False, i, "diverged", i, "erasure of state differs")
        rt = step(typed)
        re = step_erased(erased)
        if isinstance(rt, IsValue) or isinstance(re, IsValue):
            if isinstance(rt, IsValue) and isinstance(re, IsValue):
                return ErasureReport(True, i, "value")
            return ErasureReport(False, i, "diverged", i, "one machine finished early")
        if isinstance(rt, Stuck) or isinstance(re, Stuck):
            if isinstance(rt, Stuck) and isinstance(re, Stuck):
                return ErasureReport(True, i, "stuck")
            return ErasureReport(False, i, "diverged", i, "one machine stuck early")
        typed = rt.term
        erased = re.term
    return ErasureReport(True, fuel, "fuel")


def count_redexes(m: AnyProof) -> int:
    """Independent count of rule-applicable positions under the context grammar.

    Used by the determinism check: a correct machine admits exactly one for
    every closed well-typed non-value.
    """
    root = 1 if _redex_at_root(m) else 0
    child = _hole_child(m)
    return root + (count_redexes(child) if child is not None else 0)


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
