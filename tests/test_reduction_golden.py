"""Goldens of the reduction machines' observable states.

Every fuel-bounded run must stop at exactly the state the trace reaches after
as many steps, also when the next redex is a node the machine reached by
returning a value to it; a node that gets stuck only after its hole has
reduced must report the same state, path and reason through ``normalize``,
``step`` and ``trace_states``; and the CLI's trace of every shipped corpus
file is pinned byte for byte.
"""

import hashlib
import pathlib

import pytest

from izf.axioms import PairAx, UnionAx
from izf.cli import main
from izf.corpus import _burn_beta, _burn_cancel, _burn_case, _burn_let, _burn_proj, all_entries
from izf.proof_ops import erase
from izf.proofs import App, AxProp, AxRep, Case, Fst, Inl, LamP, Magic, PairP, PropVar
from izf.reduction import FuelExhausted, Stepped, Stuck, StuckTerm, normalize, step, trace_states
from izf.syntax import Bottom, Empty, Imp, Omega, Or

_DIVERGING_CAP = 60  # steps of a run with no value that the fuel check covers


def _states(m):
    """The run of m as its states, with the status of its end: through
    ``trace_states`` when it reaches a value, by ``step`` from each state
    when it gets stuck, and its first ``_DIVERGING_CAP`` steps otherwise."""
    try:
        return trace_states(m, 10**4), "value"
    except (StuckTerm, FuelExhausted):
        pass
    states = [m]
    while len(states) <= _DIVERGING_CAP:
        got = step(states[-1])
        if not isinstance(got, Stepped):
            return states, "stuck"
        states.append(got.term)
    return states, "fuel"


def _subjects():
    for e in all_entries():
        yield e.name, e.proof
    for burn in (_burn_beta, _burn_proj, _burn_case, _burn_cancel, _burn_let):
        small = burn(3)
        yield f"{small.name}_3", small.proof


@pytest.mark.parametrize("calculus", ["annotated", "erased"])
def test_fuel_state_is_the_trace_state_at_every_step(calculus):
    for name, m in _subjects():
        if calculus == "erased":
            m = erase(m)
        states, end = _states(m)
        last = len(states) - 1
        for k in range(last + 1):
            out = normalize(m, k)
            status = "fuel" if k < last or end == "fuel" else end
            assert (out.status, out.steps) == (status, k), (name, k)
            assert repr(out.result) == repr(states[k]), (name, k)


_B = Bottom()
_IDB = LamP("x", _B, PropVar("x"))
_IMPB = Imp(_B, _B)
_E, _W = Empty(), Omega()


def _after_beta(value):
    """A beta redex whose contractum is value."""
    return App(LamP("z", _B, value), PropVar("y"))


# Each node below is a redex's parent that gets stuck only once the redex in
# its hole has reduced to a value, inside an outer frame so its path is not
# empty.
_STUCK_AFTER_HOLE = {
    "fst_of_injection": App(Fst(_after_beta(Inl(_IDB, Or(_IMPB, _B)))), PropVar("w")),
    "ax_mismatched_term": Fst(AxProp(PairAx(), _E, (_E, _W), _after_beta(AxRep(PairAx(), _W, (_E, _W), _IDB)))),
    "ax_mismatched_family": Fst(AxProp(PairAx(), _E, (_E, _W), _after_beta(AxRep(UnionAx(), _E, (_E,), _IDB)))),
    "magic_of_value": App(Magic(App(LamP("z", _IMPB, PropVar("z")), _IDB), _IMPB), PropVar("w")),
    "case_of_pair": Fst(Case(_after_beta(PairP(_IDB, _IDB)), "l", _B, PropVar("l"), "r", _B, PropVar("r"))),
}

# (status, steps, stuck_path, stuck_reason, repr(result)) of normalize at fuel 10.
_STUCK_GOLDEN = {
    ("fst_of_injection", "annotated"): (
        "stuck", 1, ("fn",), "fst of a non-pair value",
        "App(fn=Fst(arg=Inl(body=LamP(var='x', dom=Bottom(), body=PropVar(name='x')), ann=Or(left=Imp(left=Bottom(), right=Bottom()), right=Bottom()))), arg=PropVar(name='w'))",
    ),
    ("fst_of_injection", "erased"): (
        "stuck", 1, ("fn",), "fst of a non-pair value",
        "EApp(fn=EFst(arg=EInl(body=ELamP(var='x', body=EPropVar(name='x')))), arg=EPropVar(name='w'))",
    ),
    ("ax_mismatched_term", "annotated"): (
        "stuck", 1, ("arg",), "mismatched elimination/introduction pair",
        "Fst(arg=AxProp(ax=PairAx(), term=Empty(), args=(Empty(), Omega()), arg=AxRep(ax=PairAx(), term=Omega(), args=(Empty(), Omega()), arg=LamP(var='x', dom=Bottom(), body=PropVar(name='x')))))",
    ),
    ("ax_mismatched_term", "erased"): (
        "stuck", 2, (), "fst of a non-pair value",
        "EFst(arg=ELamP(var='x', body=EPropVar(name='x')))",
    ),
    ("ax_mismatched_family", "annotated"): (
        "stuck", 1, ("arg",), "mismatched elimination/introduction pair",
        "Fst(arg=AxProp(ax=PairAx(), term=Empty(), args=(Empty(), Omega()), arg=AxRep(ax=UnionAx(), term=Empty(), args=(Empty(),), arg=LamP(var='x', dom=Bottom(), body=PropVar(name='x')))))",
    ),
    ("ax_mismatched_family", "erased"): (
        "stuck", 1, ("arg",), "mismatched elimination/introduction pair",
        "EFst(arg=EAxProp(family='pair', arg=EAxRep(family='union', arg=ELamP(var='x', body=EPropVar(name='x')))))",
    ),
    ("magic_of_value", "annotated"): (
        "stuck", 1, ("fn",), "magic of a value",
        "App(fn=Magic(arg=LamP(var='x', dom=Bottom(), body=PropVar(name='x')), ann=Imp(left=Bottom(), right=Bottom())), arg=PropVar(name='w'))",
    ),
    ("magic_of_value", "erased"): (
        "stuck", 1, ("fn",), "magic of a value",
        "EApp(fn=EMagic(arg=ELamP(var='x', body=EPropVar(name='x'))), arg=EPropVar(name='w'))",
    ),
    ("case_of_pair", "annotated"): (
        "stuck", 1, ("arg",), "case subject is not an injection",
        "Fst(arg=Case(scrut=PairP(left=LamP(var='x', dom=Bottom(), body=PropVar(name='x')), right=LamP(var='x', dom=Bottom(), body=PropVar(name='x'))), lvar='l', lann=Bottom(), lbody=PropVar(name='l'), rvar='r', rann=Bottom(), rbody=PropVar(name='r')))",
    ),
    ("case_of_pair", "erased"): (
        "stuck", 1, ("arg",), "case subject is not an injection",
        "EFst(arg=ECase(scrut=EPairP(left=ELamP(var='x', body=EPropVar(name='x')), right=ELamP(var='x', body=EPropVar(name='x'))), lvar='l', lbody=EPropVar(name='l'), rvar='r', rbody=EPropVar(name='r')))",
    ),
}


@pytest.mark.parametrize("name,calculus", sorted(_STUCK_GOLDEN))
def test_stuck_once_the_hole_has_reduced(name, calculus):
    m = _STUCK_AFTER_HOLE[name]
    if calculus == "erased":
        m = erase(m)
    want = _STUCK_GOLDEN[name, calculus]
    out = normalize(m, 10)
    assert (out.status, out.steps, out.stuck_path, out.stuck_reason, repr(out.result)) == want
    assert step(out.result) == Stuck(want[2], want[3])
    with pytest.raises(StuckTerm) as raised:
        trace_states(m, 10)
    got = raised.value.outcome
    assert (got.status, got.steps, got.stuck_path, got.stuck_reason, repr(got.result)) == want


_CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# sha256 of `izf normalize --fuel 500 --trace` of each shipped corpus file.
_TRACE_SHA256 = {
    "axioms.izf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "equality.izf": "7f6bdf160c32f4e8555f8f8166a6867329a4a6c8869d6f5117b4ebbbf5d3164f",
    "numerals.izf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "nwf_loop.izf": "8136e56bdf6aa5bee0cb32bd43bae44dd884d3fd48a5016c443193e8be71921b",
    "reduction.izf": "cf923e8c71cd7e9fac73bbab660729d09baa25aababc5d144e08eab3c870e3a8",
    "two_in_omega.izf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_cli_trace_of_every_corpus_file_is_pinned(tmp_path, capsys):
    got = {}
    for path in sorted(_CORPUS.glob("*.izf")):
        trace = tmp_path / f"{path.stem}.jsonl"
        main(["normalize", "--fuel", "500", "--trace", str(trace), str(path)])
        got[path.name] = hashlib.sha256(trace.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == _TRACE_SHA256
