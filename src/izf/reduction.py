"""Deterministic lazy small-step machines for annotated and erased proofs.

The evaluation contexts descend into exactly one position per constructor
(function position of applications, subject of projections, case, let,
axiom elimination and magic), so decomposition is unique; induction terms
fire in place.  Everything reduction-based is fuel-bounded and total.

The rules are a table keyed by class, ``_RULES``: it names each construct
once, by its annotated class, with the attribute of its hole, the
evaluation-context child, the rule fired by each class of value in that
hole, and why the construct is stuck on any other; the erased twin
(``proofs.TWINS``) shares the entry, as it has the field names the rule
reads.  ``_CONTRACT`` performs each rule.  ``_FILL`` rebuilds a node
around its hole, read off the hole and the fields.

One loop, ``_run``, is an environment machine whose transitions are those
rules (Accattoli, Barenbaum & Mazza, *Distilling Abstract Machines*, ICFP
2014).  Its state is a focus under an environment of closed values and a
persistent context of ``(parent, attr, env)`` frames, the redex path (a
zipper: Huet, *The Zipper*, JFP 1997).  A rule binds a closed argument
instead of substituting it, and a bound hypothesis in focus is looked up.
A value in a hole pops its frame, and the parent's rule is one lookup by
the value's class; the machine goes on from the contractum, on a loop, so
a step costs what changed, not the depth.  The loop owns the fuel and the
step count, and ``step``, ``normalize``, ``trace_states``,
``detect_cycle`` and ``simulate_erasure`` all read it: it yields each step
only to an observer, and its last yield is always the end of the run.
Only ``_plug`` reads a state back, substituting its environments and
rebuilding its parents, when the state is observed: by ``on_step``, by
``detect_cycle``'s key, as a result or as a fuel or stuck state.  The
values being closed, each is the state a machine substituting at every
contraction reaches.

``_redex_at_root`` and ``_hole_child`` keep an independent, per-calculus
statement of the same grammar for ``count_redexes`` and the determinism
check.
"""

from __future__ import annotations

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
from .syntax import MemI, Term, Var, alpha_eq, fresh_name, record

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


# The rules of both machines, by annotated class: the rule fired by each
# class of value in the construct's hole, the attribute of that hole (None
# for a construct without one, whose rule is read off the class of None),
# and why the construct is stuck on any other value.  The erased twin
# (``proofs.TWINS``) shares the entry.  ``_CONTRACT`` performs each rule;
# an ax-cancel fires only if ``_cancels`` holds.
_RULES = {
    PropVar: ({}, None, "free hypothesis {m.name}"),
    App: ({LamP: "beta"}, "fn", "application of a non-lambda value"),
    AppT: ({LamF: "beta-fo"}, "fn", "term application of a non-term-lambda value"),
    Fst: ({PairP: "fst"}, "arg", "fst of a non-pair value"),
    Snd: ({PairP: "snd"}, "arg", "snd of a non-pair value"),
    Case: ({Inl: "case-inl", Inr: "case-inr"}, "scrut", "case subject is not an injection"),
    Let: ({ExIntro: "let-ex"}, "subject", "let subject is not a witness pair"),
    Magic: ({}, "arg", "magic of a value"),
    AxProp: ({AxRep: "ax-cancel"}, "arg", "axiom elimination of a non-introduction value"),
    Ind: ({type(None): "ind-unfold"}, None, ""),
}
_RULES = {
    cls: ({**table, **{TWINS[c]: rule for c, rule in table.items() if c in TWINS}}, hole, reason)
    for cls, (table, hole, reason) in _RULES.items()
}
_RULES.update({TWINS[cls]: rule for cls, rule in _RULES.items()})
_NO_RULE = ({}, None, "no rule for {m.__class__.__name__}")


def _cancels(elim: AxProp | EAxProp, env, intro: AxRep | EAxRep, ienv) -> bool:
    """Whether an axiom elimination meets an introduction of the same
    instance, each read under its environment."""
    if isinstance(elim, EAxProp):
        return elim.family == intro.family
    mine, theirs = (elim.ax, elim.term, *elim.args), (intro.ax, intro.term, *intro.args)
    mine = tuple(_read(x, env) for x in mine) if env[1] else mine
    theirs = tuple(_read(x, ienv) for x in theirs) if ienv[1] else theirs
    return mine == theirs or (len(mine) == len(theirs) and all(map(alpha_eq, mine, theirs)))


# ---------------------------------------------------------------------------
# Environments
#
# An environment maps hypotheses to proofs and first-order variables to
# terms, all closed, so no value captures a name and the order of
# substitutions does not matter; a node under it stands for its read-back.

Env = tuple[dict, dict]
_EMPTY: Env = ({}, {})
_VARS = (PropVar, EPropVar)


def _read(x, env: Env):
    """x read back under env: the values of env substituted for x's free names."""
    hyps, fos = env
    if hyps or fos:
        pv, fv = proof_free_vars(x)
        for a, t in fos.items():
            if a in fv:
                x = subst_proof_term(x, a, t)
        for a, p in hyps.items():
            if a in pv:
                x = subst_proof(x, a, p)
    return x


def _closed(x, env: Env):
    """x read back under env when that is closed, else None."""
    if type(x) in _VARS:
        return env[0].get(x.name)
    pv, fv = proof_free_vars(x)
    return _read(x, env) if pv.issubset(env[0]) and fv.issubset(env[1]) else None


# The contraction of each rule: from the redex m under env and the value v
# in its hole under venv, the contractum and its environment.


def _beta(m: App | AppT | EApp | EAppT, env: Env, f: LamP | LamF | ELamP | ELamF, fenv: Env):
    # A variable body is substituted at once, as by _enter: one lookup.
    if type(f.body) in _VARS:
        return subst_proof(_read(f, fenv).body, f.var, _read(m.arg, env)), _EMPTY
    a = _closed(m.arg, env)
    if a is None:
        return _enter(f, fenv, "body", (f.var, m.arg, env))
    return f.body, (fenv[0], {**fenv[1], f.var: a}) if isinstance(a, Term) else ({**fenv[0], f.var: a}, fenv[1])


def _enter(node: AnyProof, env: Env, body: str, *binds: tuple):
    """node's field ``body`` under env with each ``(binder, argument, the
    argument's environment)`` of binds bound: a term binds a first-order
    variable, a proof a hypothesis.  If an argument is open, or the body a
    variable (a lookup), all are substituted at once, in order, instead."""
    lookup, bound = type(getattr(node, body)) in _VARS, env
    for var, arg, aenv in binds:
        a = None if lookup else _closed(arg, aenv)
        if a is None:
            x = getattr(_read(node, env), body)
            for var, arg, aenv in binds:
                x = subst_proof(x, var, _read(arg, aenv))
            return x, _EMPTY
        hyps, fos = bound
        bound = (hyps, {**fos, var: a}) if isinstance(a, Term) else ({**hyps, var: a}, fos)
    return getattr(node, body), bound


_CONTRACT = {
    "beta": _beta,
    "beta-fo": _beta,
    "fst": lambda m, env, v, venv: (v.left, venv),
    "snd": lambda m, env, v, venv: (v.right, venv),
    "case-inl": lambda m, env, s, senv: _enter(m, env, "lbody", (m.lvar, s.body, senv)),
    "case-inr": lambda m, env, s, senv: _enter(m, env, "rbody", (m.rvar, s.body, senv)),
    "let-ex": lambda m, env, p, penv: _enter(m, env, "body", (m.fvar, p.witness, penv), (m.pvar, p.body, penv)),
    "ax-cancel": lambda m, env, v, venv: (v.arg, venv),
    "ind-unfold": lambda m, env, v, venv: (_ind_unfold(_read(m, env)), _EMPTY),
}


# ---------------------------------------------------------------------------
# The environment machine
#
# A context is a persistent linked list of frames ``(parent, attr, env,
# outer)``, innermost first, ending in None at the root: the path from the
# root to the focus, each parent under its environment.  A frame's parent is
# read only for its fields other than ``attr``, so ancestors are rebuilt
# only by ``_plug``, when a state is read.

Ctx = Optional[tuple]


def _filler(cls: type, hole: str):
    """The function of a context node p of class cls and a proof c that
    gives p with c in its hole: one constructor call read off the class's
    fields, such as ``lambda p, c: App(c, p.arg)``."""
    args = ", ".join("c" if f == hole else f"p.{f}" for f in cls.__match_args__)
    return eval(f"lambda p, c: {cls.__name__}({args})", {cls.__name__: cls})


_FILL = {cls: _filler(cls, hole) for cls, (_, hole, _) in _RULES.items() if hole}


def _plug(ctx: Ctx, m: AnyProof, env: Env = _EMPTY) -> AnyProof:
    """The full term with m, under env, in the hole of ctx.  No name free in
    a read-back hole is bound in its parent's environment."""
    m = _read(m, env)
    while ctx is not None:
        parent, _, env, ctx = ctx
        m = _read(_FILL[type(parent)](parent, m), env)
    return m


def _path(ctx: Ctx) -> Path:
    """The attributes leading from the root to the hole of ctx."""
    attrs = []
    while ctx is not None:
        attrs.append(ctx[1])
        ctx = ctx[3]
    return tuple(reversed(attrs))


def _run(m: AnyProof, fuel: int, observed: bool):
    """The environment machine on m, the one loop behind both calculi and
    every observer of a run; it performs at most ``fuel`` rules.

    If ``observed``, it yields ``(rule, ctx, contractum, env, None)`` for
    every step.  Its last yield, always, is the end of the run, ``(None,
    ctx, focus, env, (status, steps, reason))``: status "value", "stuck"
    (the reason that of the stuck node, in focus) or "fuel" (the focus the
    node whose rule would fire next).  Each state is ``_plug(ctx, focus,
    env)``.

    A node whose hole holds a non-value pushes a frame; a value pops one,
    and the rule of the parent is read off the class of that value, then
    performed on the parent and the value, each under its environment.
    Looking up a bound hypothesis is not a step.  Only the immediate
    parent's hole child changes head in a contraction, so no other ancestor
    becomes a redex.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    ctx: Ctx = None
    focus, env = m, _EMPTY
    steps = 0
    while True:
        cls = type(focus)
        if cls not in _VALUES:
            table, attr, reason = _RULES.get(cls, _NO_RULE)
            if attr is None:
                if cls in _VARS and focus.name in env[0]:
                    focus, env = env[0][focus.name], _EMPTY
                    continue
                v = venv = None
            else:
                v, venv = getattr(focus, attr), env
                if type(v) not in _VALUES:
                    if type(v) in _VARS and v.name in env[0]:
                        v, venv = env[0][v.name], _EMPTY
                    if type(v) not in _VALUES:
                        ctx = (focus, attr, env, ctx)
                        focus, env = v, venv
                        continue
            node, nenv = focus, env
        elif ctx is None:
            yield None, None, focus, env, ("value", steps, None)
            return
        else:
            v, venv = focus, env
            node, _, nenv, ctx = ctx
            table, _, reason = _RULES[type(node)]
        rule = table.get(type(v))
        if rule is None or rule == "ax-cancel" and not _cancels(node, nenv, v, venv):
            end = ("stuck", steps, "mismatched elimination/introduction pair" if rule else reason.format(m=node))
        elif steps == fuel:
            end = ("fuel", steps, None)
        else:
            steps += 1
            focus, env = _CONTRACT[rule](node, nenv, v, venv)
            if observed:
                yield rule, ctx, focus, env, None
            continue
        if node is not focus:
            node = _FILL[type(node)](node, _read(v, venv))
        yield None, ctx, node, nenv, end
        return


def step(m: AnyProof) -> StepResult:
    """One step of the machine of m's calculus, annotated or erased."""
    rule, ctx, term, env, end = next(_run(m, 1, True))
    if rule is not None:
        return Stepped(_plug(ctx, term, env), rule, _path(ctx))
    if end[0] == "value":
        return IsValue()
    return Stuck(_path(ctx), end[2])


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


def _outcome(ctx: Ctx, focus: AnyProof, env: Env, end: tuple) -> NormalizeOutcome:
    """The outcome of a run from its last yield."""
    status, steps, reason = end
    path = _path(ctx) if status == "stuck" else ()
    return NormalizeOutcome(status, _plug(ctx, focus, env), steps, path, reason or "")


def normalize(m: AnyProof, fuel: int = DEFAULT_FUEL, on_step=None) -> NormalizeOutcome:
    """Run the machine of m's calculus for at most ``fuel`` steps.

    ``on_step(index, rule, path, state)`` is invoked after every step, which
    is how the trace exporter hooks in; only then is the run observed and
    every state read back.  Otherwise only the last state is.
    """
    if on_step is None:
        _, ctx, focus, env, end = next(_run(m, fuel, False))
    else:
        for i, (rule, ctx, focus, env, end) in enumerate(_run(m, fuel, True)):
            if end is None:
                on_step(i, rule, _path(ctx), _plug(ctx, focus, env))
    return _outcome(ctx, focus, env, end)


def trace_states(m: AnyProof, fuel: int) -> list[AnyProof]:
    """All states of a run that must end in a value: [m, ..., value]."""
    states = [m]
    for _, ctx, focus, env, end in _run(m, fuel, True):
        if end is None:
            states.append(_plug(ctx, focus, env))
    if end[0] == "value":
        return states
    raise (StuckTerm if end[0] == "stuck" else FuelExhausted)(_outcome(ctx, focus, env, end))


def detect_cycle(m: AnyProof, fuel: int) -> Optional[tuple[int, int]]:
    """First recurrence of an alpha-equal state: (prefix length, period)."""
    seen = {canon(m): 0}
    for i, (_, ctx, focus, env, end) in enumerate(_run(m, fuel, True), 1):
        if end is not None:
            return None
        key = canon(_plug(ctx, focus, env))
        if key in seen:
            return seen[key], i - seen[key]
        seen[key] = i


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
    the erased state, and the two machines must end alike at the same index.
    Each machine performs at most ``fuel`` rules.
    """
    typed, erased = m, erase(m)
    runs = zip(_run(typed, fuel, True), _run(erased, fuel, True))
    for i, ((_, ct, tt, et, end_t), (_, ce, te, ee, end_e)) in enumerate(runs):
        if canon(erase(typed)) != canon(erased):
            return ErasureReport(False, i, "diverged", i, "erasure of state differs")
        if end_t or end_e:
            status_t, status_e = (end[0] if end else "running" for end in (end_t, end_e))
            if status_t == status_e:
                return ErasureReport(True, i, status_t)
            early = "finished" if "value" in (status_t, status_e) else "stuck"
            return ErasureReport(False, i, "diverged", i, f"one machine {early} early")
        typed, erased = _plug(ct, tt, et), _plug(ce, te, ee)


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
