"""The environment machine against the focused machine with eager substitution.

``izf.reduction`` binds closed arguments in environments and reads a state
back only when it is observed; ``focused`` substitutes at every contraction.
At every step the rule, the redex path and the read-back state must be the
oracle's, and so must the end of the run, in both calculi.  The subjects
are the corpus, the burn chains, the restricted enumeration, randomly grown
theorems and open arguments, which the machine substitutes at once.
"""

import pytest

import focused
from gens import enum_restricted
from izf.axioms import IndAx, PairAx
from izf.corpus import _burn_beta, _burn_cancel, _burn_case, _burn_let, _burn_proj, all_entries
from izf.proof_ops import erase
from izf.proofs import App, AppT, AxProp, AxRep, ExIntro, Fst, Ind, LamF, LamP, Let, PairP, PropVar
from izf.reduction import normalize
from izf.syntax import Bottom, Empty, Eq, Exists, Omega, Var
from test_metatheory_random import grown_theorems

_FUEL = 300


def _agrees(m, fuel: int = _FUEL) -> None:
    """m and its erasure run step for step as in the oracle.  Nodes are equal
    when they are of one class with equal fields, so ``==`` compares the
    states' printed forms."""
    for s in (m, erase(m)):
        got = []
        out = normalize(s, fuel, on_step=lambda i, rule, path, state: got.append((rule, path, state)))
        want, end = focused.trace(s, fuel)
        assert got == want, s
        if end[0] == "fuel":
            assert (out.status, out.steps, out.result) == ("fuel", fuel, want[-1][2] if want else s)
        else:
            assert (out.status, out.stuck_path, out.stuck_reason or None, out.result) == end, s


def test_the_corpus_runs_as_in_the_oracle():
    for e in all_entries():
        _agrees(e.proof)


@pytest.mark.parametrize("burn", [_burn_beta, _burn_proj, _burn_case, _burn_cancel, _burn_let])
def test_the_burn_chains_run_as_in_the_oracle(burn):
    _agrees(burn(3).proof)


def test_the_restricted_enumeration_runs_as_in_the_oracle():
    for size in range(1, 8):
        for m in enum_restricted(size, 0):
            _agrees(m)


@pytest.mark.parametrize("seed", range(6))
def test_grown_theorems_run_as_in_the_oracle(seed):
    for m, _ in grown_theorems(seed):
        _agrees(m)


_B = Bottom()
_IDB = LamP("x", _B, PropVar("x"))
_a, _b, _k = Var("a"), Var("b"), PropVar("k")

# Open arguments, which the machine must substitute at once and rename
# exactly as the oracle does, and names an axiom elimination must read back.
_CASES = {
    # The free hypothesis y enters the scope of a binder y: y is renamed.
    "free_hypothesis_under_a_binder_of_its_name": App(LamP("x", _B, LamP("y", _B, PairP(PropVar("x"), PropVar("y")))), PropVar("y")),
    # The same, with z already bound in the environment.
    "free_hypothesis_under_a_bound_name": App(
        LamP("z", _B, App(LamP("x", _B, LamP("y", _B, PairP(PropVar("x"), PropVar("z")))), PropVar("y"))), _IDB
    ),
    # The same, and then the renamed binder is applied: bound in the
    # environment, y would capture the free y.
    "free_hypothesis_captured_then_bound": App(
        App(LamP("x", _B, LamP("y", _B, PairP(PropVar("x"), PropVar("y")))), PropVar("y")), _IDB
    ),
    # The free first-order variable b enters the scope of a binder b.
    "free_variable_in_a_term_argument": AppT(LamF("a", LamF("b", PairP(AppT(_k, _a), AppT(_k, _b)))), _b),
    # The same, with c already bound in the environment.
    "free_variable_under_a_bound_name": AppT(
        LamF("c", AppT(LamF("a", LamF("b", PairP(AppT(_k, _a), AppT(_k, Var("c"))))), _b)), Omega()
    ),
    # The same, and then the renamed binder is applied.
    "free_variable_captured_then_bound": AppT(AppT(LamF("a", LamF("b", PairP(AppT(_k, _a), AppT(_k, _b)))), _b), Empty()),
    # A let whose first-order and hypothesis binders share one name, with
    # a closed and an open witness.
    "let_binding_one_name_twice": Let(
        "a", "a", Eq(_a, _a), ExIntro(Empty(), _IDB, Exists("a", Eq(_a, _a))),
        PairP(PropVar("a"), LamP("h", Eq(_a, Empty()), AppT(PropVar("a"), _a))),
    ),
    "let_binding_one_name_twice_with_an_open_witness": Let(
        "a", "a", Eq(_a, _a), ExIntro(_b, _k, Exists("a", Eq(_a, _a))),
        PairP(PropVar("a"), LamF("b", PairP(AppT(PropVar("a"), _a), AppT(_k, _b)))),
    ),
    # An open argument under a projection, reached after closed bindings.
    "open_argument_after_closed_ones": Fst(
        App(App(LamP("f", _B, LamP("g", _B, PairP(PropVar("g"), PropVar("f")))), _IDB), PropVar("f"))
    ),
    # The elimination's term is bound in the environment and must be read
    # back to meet the introduction's, or to miss it.
    "cancel_reading_a_bound_term": AppT(LamF("a", AxProp(PairAx(), _a, (), AxRep(PairAx(), Empty(), (), _IDB))), Empty()),
    "cancel_missing_a_bound_term": AppT(LamF("a", AxProp(PairAx(), _a, (), AxRep(PairAx(), Empty(), (), _IDB))), Omega()),
    # ind-unfold picks fresh names among the read-back node's free names.
    "ind_unfold_under_an_environment": App(
        LamP("c", _B, AppT(Ind(IndAx("a", (), Eq(_a, _a)), PropVar("c"), ()), Empty())), LamF("b", _k)
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_hand_made_cases_run_as_in_the_oracle(name):
    _agrees(_CASES[name], 40)
