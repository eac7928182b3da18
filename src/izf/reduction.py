"""Deterministic lazy small-step machines for annotated and erased proofs.

The evaluation contexts descend into exactly one position per constructor
(function position of applications, subject of projections, case, let,
axiom elimination and magic), so decomposition is unique; induction terms
fire in place.  Everything reduction-based is fuel-bounded and total.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .proof_ops import (
    axiom_id_alpha_eq,
    canon,
    erase,
    esubst_prop,
    esubst_term,
    subst_proof,
    subst_proof_term,
)
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


def _ind_unfold(m: Ind) -> Proof:
    """ind_phi(M, ts) -> fresh-variable unfolding of one induction layer."""
    pv, fv = proof_free_vars(m)
    c = fresh_name("c", fv)
    b = fresh_name("b", fv | {c})
    x = fresh_name("x", pv)
    again = AppT(Ind(m.schema, m.arg, m.terms), Var(b))
    step_fn = LamF(b, LamP(x, MemI(Var(b), Var(c)), again))
    return LamF(c, App(AppT(m.arg, Var(c)), step_fn))


def _ind_unfold_erased(m: EInd) -> ErasedProof:
    pv, fv = proof_free_vars(m)
    c = fresh_name("c", fv)
    b = fresh_name("b", fv | {c})
    x = fresh_name("x", pv)
    again = EAppT(EInd(m.arg), Var(b))
    step_fn = ELamF(b, ELamP(x, again))
    return ELamF(c, EApp(EAppT(m.arg, Var(c)), step_fn))


def step(m: Proof) -> StepResult:
    """One step of the annotated machine."""
    if is_value(m):
        return IsValue()
    return _step(m, ())


def _descend(
    m: AnyProof,
    sub: AnyProof,
    attr: str,
    path: Path,
    rebuild: Callable[[AnyProof], AnyProof],
    stepper: Callable[[AnyProof, Path], StepResult],
) -> StepResult:
    res = stepper(sub, path + (attr,))
    match res:
        case Stepped(t, rule, p):
            return Stepped(rebuild(t), rule, p)
        case IsValue():
            return Stuck(path, f"no rule for {type(m).__name__} of this value")
        case Stuck():
            return res
    raise AssertionError


def _step(m: Proof, path: Path) -> StepResult:
    match m:
        case PropVar(x):
            return Stuck(path, f"free hypothesis {x}")
        case App(f, a):
            if isinstance(f, LamP):
                return Stepped(subst_proof(f.body, f.var, a), "beta", path)
            if is_value(f):
                return Stuck(path, "application of a non-lambda value")
            return _descend(m, f, "fn", path, lambda t: App(t, a), _step)
        case AppT(f, t):
            if isinstance(f, LamF):
                return Stepped(subst_proof_term(f.body, f.var, t), "beta-fo", path)
            if is_value(f):
                return Stuck(path, "term application of a non-term-lambda value")
            return _descend(m, f, "fn", path, lambda s: AppT(s, t), _step)
        case Fst(a):
            if isinstance(a, PairP):
                return Stepped(a.left, "fst", path)
            if is_value(a):
                return Stuck(path, "fst of a non-pair value")
            return _descend(m, a, "arg", path, Fst, _step)
        case Snd(a):
            if isinstance(a, PairP):
                return Stepped(a.right, "snd", path)
            if is_value(a):
                return Stuck(path, "snd of a non-pair value")
            return _descend(m, a, "arg", path, Snd, _step)
        case Case(s, lx, la, lb, rx, ra, rb):
            if isinstance(s, Inl):
                return Stepped(subst_proof(lb, lx, s.body), "case-inl", path)
            if isinstance(s, Inr):
                return Stepped(subst_proof(rb, rx, s.body), "case-inr", path)
            if is_value(s):
                return Stuck(path, "case subject is not an injection")
            return _descend(m, s, "scrut", path, lambda t: Case(t, lx, la, lb, rx, ra, rb), _step)
        case Let(a, x, ann, subj, body):
            if isinstance(subj, ExIntro):
                out = subst_proof(subst_proof_term(body, a, subj.witness), x, subj.body)
                return Stepped(out, "let-ex", path)
            if is_value(subj):
                return Stuck(path, "let subject is not a witness pair")
            return _descend(m, subj, "subject", path, lambda t: Let(a, x, ann, t, body), _step)
        case Magic(arg, ann):
            if is_value(arg):
                return Stuck(path, "magic of a value")
            return _descend(m, arg, "arg", path, lambda t: Magic(t, ann), _step)
        case AxProp(ax, t, args, arg):
            if isinstance(arg, AxRep):
                same = (
                    axiom_id_alpha_eq(ax, arg.ax)
                    and alpha_eq(t, arg.term)
                    and len(args) == len(arg.args)
                    and all(alpha_eq(u, v) for u, v in zip(args, arg.args))
                )
                if same:
                    return Stepped(arg.arg, "ax-cancel", path)
                return Stuck(path, "mismatched elimination/introduction pair")
            if is_value(arg):
                return Stuck(path, "axiom elimination of a non-introduction value")
            return _descend(m, arg, "arg", path, lambda s: AxProp(ax, t, args, s), _step)
        case Ind():
            return Stepped(_ind_unfold(m), "ind-unfold", path)
    return Stuck(path, f"no rule for {type(m).__name__}")


def step_erased(m: ErasedProof) -> StepResult:
    if is_value(m):
        return IsValue()
    return _step_erased(m, ())


def _step_erased(m: ErasedProof, path: Path) -> StepResult:
    match m:
        case EApp(f, a):
            if isinstance(f, ELamP):
                return Stepped(esubst_prop(f.body, f.var, a), "beta", path)
            if is_value(f):
                return Stuck(path, "application of a non-lambda value")
            return _descend(m, f, "fn", path, lambda t: EApp(t, a), _step_erased)
        case EAppT(f, t):
            if isinstance(f, ELamF):
                return Stepped(esubst_term(f.body, f.var, t), "beta-fo", path)
            if is_value(f):
                return Stuck(path, "term application of a non-term-lambda value")
            return _descend(m, f, "fn", path, lambda s: EAppT(s, t), _step_erased)
        case EFst(a):
            if isinstance(a, EPairP):
                return Stepped(a.left, "fst", path)
            if is_value(a):
                return Stuck(path, "fst of a non-pair value")
            return _descend(m, a, "arg", path, EFst, _step_erased)
        case ESnd(a):
            if isinstance(a, EPairP):
                return Stepped(a.right, "snd", path)
            if is_value(a):
                return Stuck(path, "snd of a non-pair value")
            return _descend(m, a, "arg", path, ESnd, _step_erased)
        case ECase(s, lx, lb, rx, rb):
            if isinstance(s, EInl):
                return Stepped(esubst_prop(lb, lx, s.body), "case-inl", path)
            if isinstance(s, EInr):
                return Stepped(esubst_prop(rb, rx, s.body), "case-inr", path)
            if is_value(s):
                return Stuck(path, "case subject is not an injection")
            return _descend(m, s, "scrut", path, lambda t: ECase(t, lx, lb, rx, rb), _step_erased)
        case ELet(a, x, subj, body):
            if isinstance(subj, EExIntro):
                out = esubst_prop(esubst_term(body, a, subj.witness), x, subj.body)
                return Stepped(out, "let-ex", path)
            if is_value(subj):
                return Stuck(path, "let subject is not a witness pair")
            return _descend(m, subj, "subject", path, lambda t: ELet(a, x, t, body), _step_erased)
        case EMagic(arg):
            if is_value(arg):
                return Stuck(path, "magic of a value")
            return _descend(m, arg, "arg", path, EMagic, _step_erased)
        case EAxProp(fam, arg):
            if isinstance(arg, EAxRep):
                if fam == arg.family:
                    return Stepped(arg.arg, "ax-cancel", path)
                return Stuck(path, "mismatched elimination/introduction pair")
            if is_value(arg):
                return Stuck(path, "axiom elimination of a non-introduction value")
            return _descend(m, arg, "arg", path, lambda s: EAxProp(fam, s), _step_erased)
        case EInd():
            return Stepped(_ind_unfold_erased(m), "ind-unfold", path)
        case EPropVar(x):
            return Stuck(path, f"free hypothesis {x}")
    return Stuck(path, f"no rule for {type(m).__name__}")


def _stepper_for(m: AnyProof) -> Callable[[AnyProof], StepResult]:
    return step if isinstance(m, Proof) else step_erased


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
    stepper = _stepper_for(m)
    tail: deque[TraceEntry] = deque(maxlen=tail_size)
    state = m
    for i in range(fuel + 1):
        res = stepper(state)
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
    stepper = _stepper_for(m)
    state = m
    for _ in range(fuel):
        res = stepper(state)
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
    stepper = _stepper_for(m)
    state = m
    for i in range(fuel + 1):
        key = canon(state)
        if key in seen:
            return seen[key], i - seen[key]
        seen[key] = i
        res = stepper(state)
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
                and axiom_id_alpha_eq(ax, arg.ax)
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
