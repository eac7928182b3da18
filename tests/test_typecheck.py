import os
import pathlib
import subprocess
import sys

import pytest

from izf.axioms import InAx, PairAx, phi_A
from izf.corpus import all_entries
from izf.lemmas import build_numeral_proof, mk_eq_refl, mk_eq_symm
from izf.proof_ops import subst_proof, subst_proof_term
from izf.proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    ExIntro,
    Inl,
    Inr,
    LamF,
    LamP,
    Let,
    PairP,
    PropVar,
    proof_free_vars,
)
from izf.syntax import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    MemI,
    Empty,
    Omega,
    Or,
    PairT,
    Var,
    alpha_eq,
    free_vars,
    substitute,
)
from izf.typecheck import (
    InternalInconsistencyError,
    TypeCheckError,
    canonical_form,
    check,
    checks,
    ctx_fo_vars,
    ctx_lookup,
    infer,
)

x, y = PropVar("x"), PropVar("y")
B = Bottom()
IDB = LamP("x", B, x)


def test_infer_identity():
    assert infer((), IDB) == Imp(B, B)


def test_infer_unbound():
    with pytest.raises(TypeCheckError) as e:
        infer((), App(x, x))
    assert e.value.kind == "UnboundVar"


def test_infer_pair_axiom_equivalence_proof():
    # lam a1 a2 c. <lam x : c ini {a1,a2}. pairProp(...), lam x : phi. pairRep(...)>
    a1, a2, c = Var("a1"), Var("a2"), Var("c")
    phi = phi_A(PairAx(), c, (a1, a2))
    m = LamF(
        "a1",
        LamF(
            "a2",
            LamF(
                "c",
                PairP(
                    LamP("x", MemI(c, PairT(a1, a2)), AxProp(PairAx(), c, (a1, a2), x)),
                    LamP("x", phi, AxRep(PairAx(), c, (a1, a2), x)),
                ),
            ),
        ),
    )
    want = Forall(
        "a1",
        Forall(
            "a2",
            Forall(
                "c",
                And(Imp(MemI(c, PairT(a1, a2)), phi), Imp(phi, MemI(c, PairT(a1, a2)))),
            ),
        ),
    )
    assert alpha_eq(infer((), m), want)


def test_check_examples():
    check((), IDB, Imp(B, B))
    with pytest.raises(TypeCheckError) as e:
        check((), IDB, Imp(B, Imp(B, B)))
    assert e.value.kind == "Mismatch"


def test_check_case_disjunction_elim():
    phi, psi = Imp(B, B), B
    ctx = (("x", Or(phi, psi)),)
    m = Case(x, "y", phi, Inr(y, Or(psi, phi)), "y", psi, Inl(y, Or(psi, phi)))
    check(ctx, m, Or(psi, phi))


def test_lamf_side_condition_vacuous_generalization():
    # a free in the context: the binder renames, yielding a vacuous quantifier
    ctx = (("x", Mem(Var("a"), Var("b"))),)
    got = infer(ctx, LamF("a", x))
    assert isinstance(got, Forall)
    assert alpha_eq(got, Forall("q", Mem(Var("a"), Var("b"))))


def test_let_side_condition_escaping_witness():
    er = mk_eq_refl()
    ann = Eq(Var("a"), Var("a"))
    subject = ExIntro(Empty(), AppT(er, Empty()), Exists("a", ann))
    leak = Let("a", "x", ann, subject, AppT(er, Var("a")))
    with pytest.raises(TypeCheckError) as e:
        infer((), leak)
    assert e.value.kind == "SideCondition"


def test_infer_deterministic():
    m = mk_eq_symm()
    assert infer((), m) == infer((), m)


def test_canonical_form_disjunction():
    d = Or(Imp(B, B), B)
    v = Inl(IDB, d)
    assert canonical_form(d, v) is v
    assert alpha_eq(infer((), v.body), Imp(B, B))


def test_canonical_form_witness():
    er = mk_eq_refl()
    ann = Exists("a", Eq(Var("a"), Var("a")))
    v = ExIntro(Omega(), AppT(er, Omega()), ann)
    assert canonical_form(ann, v) is v
    assert v.witness == Omega()
    assert alpha_eq(infer((), v.body), Eq(Omega(), Omega()))


def test_canonical_form_membership():
    p = build_numeral_proof(0)
    assert canonical_form(Mem(Empty(), Omega()), p) is p
    assert isinstance(p, AxRep) and isinstance(p.ax, InAx)


def test_canonical_form_bottom_impossible():
    with pytest.raises(InternalInconsistencyError):
        canonical_form(B, IDB)


def test_canonical_form_rejects_nonchecking():
    with pytest.raises(InternalInconsistencyError):
        canonical_form(Imp(B, Imp(B, B)), IDB)


def weaken_ok(ctx, extra, m, phi, nwf=False):
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


def test_weaken_ok_simple():
    assert weaken_ok((), ("y", B), IDB, Imp(B, B))


def test_weaken_ok_rejects_reused_name():
    with pytest.raises(ValueError):
        weaken_ok((("y", B),), ("y", B), IDB, Imp(B, B))


def test_weakening_across_corpus():
    # every theorem stays checkable under one fresh hypothesis
    for e in all_entries():
        assert weaken_ok((), ("w0", Bottom()), e.proof, e.formula, nwf=e.nwf)


def test_substitution_lemma_prop():
    # if x : phi |- M : psi and |- N : phi then |- M[x:=N] : psi, on corpus shapes
    phi = Imp(B, B)
    m = PairP(x, IDB)
    ctx = (("x", phi),)
    psi = infer(ctx, m)
    n = IDB
    check((), n, phi)
    check((), subst_proof(m, "x", n), psi)


def test_substitution_lemma_first_order():
    er = mk_eq_refl()
    m = AppT(er, Var("a"))
    phi = infer((), m)
    t = PairT(Empty(), Omega())
    check((), subst_proof_term(m, "a", t), substitute(phi, "a", t))


def test_substitution_lemma_first_order_in_context():
    ctx = (("x", Mem(Var("a"), Omega())),)
    m = x
    phi = infer(ctx, m)
    ctx2 = tuple((n, substitute(f, "a", Empty())) for n, f in ctx)
    check(ctx2, subst_proof_term(m, "a", Empty()), substitute(phi, "a", Empty()))


def test_nwf_axiom_requires_mode():
    from izf.axioms import Sep0Ax
    from izf.syntax import NwfConst

    d = NwfConst("D")
    m = LamP("x", Mem(d, d), AxProp(Sep0Ax(), d, (), x))
    with pytest.raises(TypeCheckError) as e:
        infer((), m, nwf=False)
    assert e.value.kind == "AxiomShape"
    infer((), m, nwf=True)


def test_axprop_arity_mismatch():
    with pytest.raises(TypeCheckError) as e:
        infer((), AxRep(PairAx(), Empty(), (Empty(),), x))
    assert e.value.kind == "ArityMismatch"


def test_error_paths_point_into_terms():
    bad = App(IDB, PairP(IDB, IDB))
    with pytest.raises(TypeCheckError) as e:
        infer((), bad)
    assert e.value.path == ("arg",)


def test_infer_rejects_an_erased_proof_as_not_a_proof_term():
    from izf.proofs import EApp, EPropVar

    with pytest.raises(TypeCheckError) as e:
        infer((), EApp(EPropVar("f"), EPropVar("x")))
    assert e.value.kind == "AxiomShape" and e.value.path == ()
    assert e.value.message.startswith("not a proof term: EApp(")


# Checking and printing take one frame per nesting level.  From a fresh
# interpreter at the default recursion limit both handle 993 levels of
# ``_burn_beta`` (one node a level) and 496 of ``_burn_case`` (two nodes a
# level), and raise ``RecursionError`` at 1500.  The test stays ten levels
# below, as interpreter versions differ by a few frames; one more frame per
# node would halve both.
_DEEP_CHECK = """
import sys
from izf import corpus
from izf.printer import print_proof
from izf.typecheck import check
e = getattr(corpus, sys.argv[1])(int(sys.argv[2]))
check((), e.proof, e.formula)
assert print_proof(e.proof).count("(") > int(sys.argv[2])
print("ok")
"""


@pytest.mark.parametrize("burn, depth", [("_burn_beta", 983), ("_burn_case", 486)])
def test_checking_and_printing_take_one_frame_per_level_of_a_deep_chain(burn, depth):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    r = subprocess.run([sys.executable, "-c", _DEEP_CHECK, burn, str(depth)], capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout == "ok\n", r.stderr[-2000:]
