import gc
import random
import weakref

import pytest

from gens import _PVARS, _VARS, rand_formula, rand_proof, rand_term
from izf import syntax
from izf.syntax import SHAPES
from izf.axioms import PairAx, SepAx
from izf.proof_ops import alpha_eq_proof, erase, esubst_prop, esubst_term, subst_proof, subst_proof_term
from izf.proofs import (
    FO_BINDER,
    FORMULA,
    HYP_BINDER,
    SCHEMA,
    TERM,
    TERMS,
    App,
    AppT,
    AxRep,
    Case,
    EAppT,
    EAxRep,
    ELamP,
    ExIntro,
    Ind,
    Inl,
    LamF,
    LamP,
    Let,
    Magic,
    PairP,
    Proof,
    ErasedProof,
    PropVar,
    is_value,
    proof_free_vars,
)
from izf.axioms import IndAx
from izf.syntax import (
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    Omega,
    PairT,
    Var,
    free_vars,
    map_children,
    substitute,
    to_nameless,
)

x, y = PropVar("x"), PropVar("y")
B = Bottom()


def test_proof_free_vars_examples():
    assert proof_free_vars(x) == ({"x"}, frozenset())
    assert proof_free_vars(LamP("x", B, x)) == (frozenset(), frozenset())
    exi = ExIntro(Var("a"), x, Exists("a", Eq(Var("a"), Var("a"))))
    assert proof_free_vars(exi) == ({"x"}, {"a"})


def test_subst_proof_examples():
    assert subst_proof(x, "x", Magic(y, B)) == Magic(y, B)
    exi = ExIntro(Var("a"), x, Exists("b", Eq(Var("b"), Var("b"))))
    got = subst_proof_term(exi, "a", Empty())
    assert got.witness == Empty()
    # shadowing: the bound x is untouched
    lam = LamP("x", B, x)
    assert subst_proof(lam, "x", y) == lam


def test_subst_proof_capture_avoidance():
    # substituting a term mentioning x under a lambda binding x renames it
    m = LamP("x", B, PairP(x, y))
    got = subst_proof(m, "y", x)
    assert isinstance(got, LamP) and got.var != "x"
    assert proof_free_vars(got)[0] == {"x"}


def test_erase_examples():
    m = AxRep(PairAx(), Empty(), (Empty(), Omega()), x)
    got = erase(m)
    assert got == EAxRep("pair", erase(x))
    lam = LamP("x", B, x)
    assert isinstance(erase(lam), ELamP)
    apt = AppT(x, Omega())
    assert erase(apt) == EAppT(erase(x), Omega())


# sha256 of the reprs of the erasures of corpus.all_entries(), each followed
# by a NUL byte: it pins every family tag erasure writes for the corpus.
_ERASED_CORPUS_SHA256 = "75cefb681fa604971c9fb55cbf388802ec880ba36a359711c58a051f727cc815"


def test_erasure_of_every_corpus_proof_is_unchanged():
    import hashlib

    from izf.corpus import all_entries

    h = hashlib.sha256()
    for e in all_entries():
        h.update(repr(erase(e.proof)).encode())
        h.update(b"\0")
    assert h.hexdigest() == _ERASED_CORPUS_SHA256
    # the one family the corpus never erases
    ind = AxRep(IndAx("a", (), Bottom()), Empty(), (), x)
    assert erase(ind) == EAxRep("ind", erase(x))


def test_is_value_examples():
    assert is_value(Inl(x, Bottom()))
    assert not is_value(App(x, y))
    ind = Ind(IndAx("a", (), Eq(Var("a"), Var("a"))), x, ())
    assert not is_value(ind)


@pytest.mark.parametrize("seed", range(80))
def test_erase_commutes_with_prop_substitution(seed):
    rng = random.Random(seed)
    m = rand_proof(rng, 3)
    n = rand_proof(rng, 2)
    lhs = erase(subst_proof(m, "x", n))
    rhs = esubst_prop(erase(m), "x", erase(n))
    assert alpha_eq_proof(lhs, rhs)


@pytest.mark.parametrize("seed", range(80))
def test_erase_commutes_with_term_substitution(seed):
    rng = random.Random(1000 + seed)
    m = rand_proof(rng, 3)
    t = rand_term(rng, 2)
    lhs = erase(subst_proof_term(m, "a", t))
    rhs = esubst_term(erase(m), "a", t)
    assert alpha_eq_proof(lhs, rhs)


@pytest.mark.parametrize("seed", range(80))
def test_erasure_preserves_valueness(seed):
    rng = random.Random(2000 + seed)
    m = rand_proof(rng, 3)
    if is_value(m):
        assert is_value(erase(m))
        assert SHAPES[type(erase(m))].tag == SHAPES[type(m)].tag


@pytest.mark.parametrize("seed", range(40))
def test_prop_substitution_matches_free_var_accounting(seed):
    rng = random.Random(3000 + seed)
    m = rand_proof(rng, 3)
    n = rand_proof(rng, 2)
    pv_m, fv_m = proof_free_vars(m)
    out = subst_proof(m, "x", n)
    pv_out, _ = proof_free_vars(out)
    if "x" not in pv_m:
        assert alpha_eq_proof(out, m)
    else:
        pv_n, _ = proof_free_vars(n)
        assert pv_out == (pv_m - {"x"}) | pv_n


def test_substitution_walks_its_argument_once_and_only_past_a_binder(monkeypatch):
    n = LamP("z", B, PropVar("z"))
    en = erase(n)
    t = PairT(Var("c"), Omega())
    seen = []
    real = syntax._names
    monkeypatch.setattr(syntax, "_names", lambda v: seen.append(v) or real(v))

    def calls_on(arg, run) -> int:
        seen.clear()
        run()
        return sum(v is arg for v in seen)

    flat = App(AppT(PropVar("f"), Var("a")), PairP(x, x))
    deep = LamF("b", LamF("d", flat))
    for body, want in ((flat, 0), (deep, 1)):
        ebody = erase(body)
        assert calls_on(n, lambda: subst_proof(body, "x", n)) == want
        assert calls_on(en, lambda: esubst_prop(ebody, "x", en)) == want
        assert calls_on(t, lambda: subst_proof_term(body, "a", t)) == want
        assert calls_on(t, lambda: esubst_term(ebody, "a", t)) == want


def _fresh_copy(m):
    """A copy of m that shares no node with it, so it has nothing cached."""
    m = map_children(m, _fresh_copy)
    return type(m)(*(getattr(m, name) for name in m.__match_args__))


def _subtrees(m):
    out = [m]
    map_children(m, lambda c: out.extend(_subtrees(c)) or c)
    return out


def test_cached_keys_agree_with_fresh_copies_under_random_stacks():
    rng = random.Random(47)
    for _ in range(500):
        m = rand_proof(rng, 3)
        for tree in (m, erase(m), rand_formula(rng, 3), rand_term(rng, 3)):
            key = to_nameless(tree)
            assert tree._facts[4] is key  # kept on the node
            for node in _subtrees(tree):
                stack = tuple(rng.choice(_VARS) for _ in range(rng.randrange(4)))
                hstack = tuple(rng.choice(_PVARS) for _ in range(rng.randrange(3)))
                fresh = _fresh_copy(node)
                assert to_nameless(node, stack, hstack) == to_nameless(fresh, stack, hstack)
                assert to_nameless(node) == to_nameless(_fresh_copy(node))


def test_nodes_with_cached_facts_are_freed():
    phi = Forall("a", Imp(Eq(Var("a"), Var("b")), Mem(Var("b"), Var("a"))))
    m = LamP("x", phi, PropVar("x"))
    trees = [phi, m, erase(m)]
    for tree in trees:
        to_nameless(tree)
        free_vars(tree)
        substitute(tree, "b", Var("a"))
        assert tree._facts[4] is not None
    refs = [weakref.ref(tree) for tree in trees]
    del phi, m, tree, trees
    gc.collect()
    assert all(r() is None for r in refs)


def test_every_constructor_declares_its_binding_shape():
    classes = [c for base in (Proof, ErasedProof) for c in base.__subclasses__()]
    assert len(classes) == 34 and set(classes) == {c for c in SHAPES if issubclass(c, (Proof, ErasedProof))}
    for cls in classes:
        shape = SHAPES[cls]
        assert tuple(f.name for f in shape.fields) == cls.__match_args__
        binders = {f.name for f in shape.fields if f.kind in (HYP_BINDER, FO_BINDER)}
        for f in shape.fields:
            assert set(f.under) <= binders, (cls.__name__, f.name)
    # erasure: each annotated constructor has one erased partner with its tag,
    # whose fields are its own in order, minus annotations and term data,
    # with the family tag in place of the axiom identifier
    erased = [c for c in classes if issubclass(c, ErasedProof)]
    annotated = [c for c in classes if c not in erased]
    assert sorted(SHAPES[c].tag for c in erased) == sorted(SHAPES[c].tag for c in annotated)
    for cls in annotated:
        partners = [e for e in erased if SHAPES[e].tag == SHAPES[cls].tag]
        assert len(partners) == 1, cls.__name__
        own = [(f.name, f.kind, f.under) for f in SHAPES[cls].fields]
        kept = [("ax", SCHEMA, ()) if f.name == "family" else (f.name, f.kind, f.under)
                for f in SHAPES[partners[0]].fields]
        assert kept == [f for f in own if f in kept], cls.__name__
        assert {f[1] for f in own if f not in kept} <= {FORMULA, SCHEMA, TERM, TERMS}, cls.__name__

A, C = Eq(Var("a"), Var("a")), Eq(Var("a1"), Var("a1"))
_f, _g, _s = PropVar("f"), PropVar("g"), PropVar("s")


@pytest.mark.parametrize(
    "m, var, n, want",
    [
        # LamP: the fresh name avoids N's names, the body's and the substituted variable
        (LamP("y", B, App(App(x, y), PropVar("y1"))), "x", y,
         LamP("y2", B, App(App(y, PropVar("y2")), PropVar("y1")))),
        (LamP("y", B, y), "y1", y, LamP("y2", B, PropVar("y2"))),
        # LamF under a proof substitution: the hypothesis x is not avoided
        (LamF("a", App(x, AppT(AppT(_g, Var("a")), Var("a1")))), "x", AppT(_f, Var("a")),
         LamF("a2", App(AppT(_f, Var("a")), AppT(AppT(_g, Var("a2")), Var("a1"))))),
        # both Case branches
        (Case(_s, "y", B, App(x, y), "z", A, App(x, PropVar("z"))), "x", App(y, PropVar("z")),
         Case(_s, "y1", B, App(App(y, PropVar("z")), PropVar("y1")),
              "z1", A, App(App(y, PropVar("z")), PropVar("z1")))),
        # both Let binders, first-order before hypothesis
        (Let("a", "y", A, _s, App(AppT(x, Var("a")), y)), "x", AppT(y, Var("a")),
         Let("a1", "y1", C, _s, App(AppT(AppT(y, Var("a")), Var("a1")), PropVar("y1")))),
        # a Let binding x seals its body, but its first-order binder is still renamed
        (Let("a", "x", A, x, AppT(x, Var("a"))), "x", AppT(_f, Var("a")),
         Let("a1", "x", C, AppT(_f, Var("a")), AppT(x, Var("a1")))),
    ],
)
def test_proof_substitution_picks_exact_fresh_names(m, var, n, want):
    assert subst_proof(m, var, n) == want
    assert esubst_prop(erase(m), var, erase(n)) == erase(want)


@pytest.mark.parametrize(
    "m, var, t, want",
    [
        (LamF("b", AppT(AppT(_f, Var("a")), Var("b"))), "a", Var("b"),
         LamF("b1", AppT(AppT(_f, Var("b")), Var("b1")))),
        (LamF("b", AppT(_f, Var("b"))), "b1", Var("b"), LamF("b2", AppT(_f, Var("b2")))),
        (Let("b", "y", Eq(Var("b"), Var("c")), _s, AppT(y, Var("a"))), "a", Var("b"),
         Let("b1", "y", Eq(Var("b1"), Var("c")), _s, AppT(y, Var("b")))),
        # a schema body is a scope under its binder: rewritten, and renamed on a clash
        (Ind(IndAx("a", (), Eq(Var("a"), Var("b"))), x, ()), "b", Empty(),
         Ind(IndAx("a", (), Eq(Var("a"), Empty())), x, ())),
        (Ind(IndAx("a", (), Eq(Var("a"), Var("b"))), x, ()), "b", Var("a"),
         Ind(IndAx("a1", (), Eq(Var("a1"), Var("a"))), x, ())),
        (AxRep(SepAx("z", (), Eq(Var("z"), Var("b"))), Var("b"), (Var("b"),), x), "b", Omega(),
         AxRep(SepAx("z", (), Eq(Var("z"), Omega())), Omega(), (Omega(),), x)),
    ],
)
def test_term_substitution_picks_exact_fresh_names(m, var, t, want):
    assert subst_proof_term(m, var, t) == want
    assert esubst_term(erase(m), var, t) == erase(want)
