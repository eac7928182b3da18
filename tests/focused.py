"""The focused machine with eager substitution: the environment machine's oracle.

This is the machine ``izf.reduction`` ran before it kept environments: its
state is a focus and a persistent context of ``(parent, attr)`` frames, and
every binding rule substitutes its argument into the body at once
(Accattoli, Barenbaum & Mazza, *Distilling Abstract Machines*, ICFP 2014).
Every state it reaches is a term, so ``trace`` gives the states the kernel's
machine must read back, step for step, in both calculi.
"""

from __future__ import annotations

from izf.proof_ops import subst_proof, subst_proof_term
from izf.proofs import (
    TWINS,
    _VALUES,
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    EAxProp,
    EAxRep,
    EExIntro,
    EInl,
    EInr,
    ELamF,
    ELamP,
    EPairP,
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
    PropVar,
    Snd,
)
from izf.reduction import _FILL, _ind_unfold
from izf.syntax import alpha_eq


def _free_hypothesis(m, _):
    return None, f"free hypothesis {m.name}"


def _app(m, f):
    if isinstance(f, (LamP, ELamP)):
        return "beta", subst_proof(f.body, f.var, m.arg)
    return None, "application of a non-lambda value"


def _app_term(m, f):
    if isinstance(f, (LamF, ELamF)):
        return "beta-fo", subst_proof_term(f.body, f.var, m.arg)
    return None, "term application of a non-term-lambda value"


def _fst(m, v):
    if isinstance(v, (PairP, EPairP)):
        return "fst", v.left
    return None, "fst of a non-pair value"


def _snd(m, v):
    if isinstance(v, (PairP, EPairP)):
        return "snd", v.right
    return None, "snd of a non-pair value"


def _case(m, s):
    if isinstance(s, (Inl, EInl)):
        return "case-inl", subst_proof(m.lbody, m.lvar, s.body)
    if isinstance(s, (Inr, EInr)):
        return "case-inr", subst_proof(m.rbody, m.rvar, s.body)
    return None, "case subject is not an injection"


def _let(m, subj):
    if isinstance(subj, (ExIntro, EExIntro)):
        return "let-ex", subst_proof(subst_proof_term(m.body, m.fvar, subj.witness), m.pvar, subj.body)
    return None, "let subject is not a witness pair"


def _magic(m, _):
    return None, "magic of a value"


def _cancels(elim, intro) -> bool:
    if isinstance(elim, EAxProp):
        return elim.family == intro.family
    mine, theirs = (elim.ax, elim.term, *elim.args), (intro.ax, intro.term, *intro.args)
    return mine == theirs or (len(mine) == len(theirs) and all(map(alpha_eq, mine, theirs)))


def _ax_prop(m, v):
    if isinstance(v, (AxRep, EAxRep)):
        return ("ax-cancel", v.arg) if _cancels(m, v) else (None, "mismatched elimination/introduction pair")
    return None, "axiom elimination of a non-introduction value"


def _ind(m, _):
    return "ind-unfold", _ind_unfold(m)


def _no_rule(m, _):
    return None, f"no rule for {type(m).__name__}"


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


def _plug(ctx, m):
    while ctx is not None:
        parent, _, ctx = ctx
        m = _FILL[type(parent)](parent, m)
    return m


def _path(ctx) -> tuple[str, ...]:
    attrs = []
    while ctx is not None:
        attrs.append(ctx[1])
        ctx = ctx[2]
    return tuple(reversed(attrs))


def _run(m):
    """Yields ``(rule, ctx, contractum, None)`` for every step, then ``(None,
    ctx, focus, reason)`` once the state is final, with reason None for a
    value: each state is ``_plug(ctx, term)``."""
    ctx = None
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


def trace(m, fuel: int) -> tuple[list, tuple]:
    """The first ``fuel`` steps of m as ``(rule, path, state)``, and how the
    run ends: ``("value" | "stuck", path, reason, state)``, or ``("fuel",)``
    when a step is left after ``fuel`` of them."""
    steps = []
    for rule, ctx, term, reason in _run(m):
        if rule is None:
            return steps, ("value" if reason is None else "stuck", _path(ctx), reason, _plug(ctx, term))
        if len(steps) == fuel:
            return steps, ("fuel",)
        steps.append((rule, _path(ctx), _plug(ctx, term)))
    raise AssertionError("unreachable")
