import dataclasses
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import rand_formula, rand_term
from nameless import nameless_free_vars, nameless_subst, nameless_subst_many, readback
from izf.axioms import AxiomId
from izf.proofs import ErasedProof, Proof, PropVar
from izf.syntax import (
    FO_BINDER,
    Bottom,
    FO_BINDERS,
    SHAPES,
    And,
    Empty,
    Eq,
    Forall,
    Formula,
    Imp,
    Inac,
    Mem,
    MemI,
    NwfConst,
    Omega,
    Or,
    PairT,
    Repl,
    Sep,
    Term,
    UnionT,
    Var,
    alpha_eq,
    bound_names,
    free_vars,
    fresh_name,
    numeral,
    substitute,
    substitute_many,
    to_nameless,
)

a, b, c, f = Var("a"), Var("b"), Var("c"), Var("f")


def test_free_vars_atoms():
    assert free_vars(MemI(c, a)) == {"c", "a"}
    assert free_vars(Forall("a", Eq(a, a))) == frozenset()


def test_free_vars_sep_binders():
    z, p, y = Var("z"), Var("p"), Var("y")
    for t, want in (
        (Sep("z", (), Mem(z, f), a, ()), {"a", "f"}),
        (Sep("z", ("p",), And(Mem(z, p), Eq(Var("q"), c)), a, (b,)), {"q", "c", "a", "b"}),
        (Repl("z", "y", ("p",), Eq(y, PairT(z, Var("q"))), p, (c,)), {"q", "p", "c"}),
    ):
        # oracle: occurrence scan on the nameless representation
        assert free_vars(t) == nameless_free_vars(to_nameless(t)) == want


def test_substitute_variable():
    assert substitute(a, "a", Omega()) == Omega()


def test_substitute_atom():
    got = substitute(MemI(c, a), "a", PairT(Empty(), Empty()))
    assert got == MemI(c, PairT(Empty(), Empty()))


def test_substitute_capture_avoiding():
    # forall b. b in a  [a := {b, b}]  must rename the binder
    got = substitute(Forall("b", Mem(b, a)), "a", PairT(b, b))
    assert isinstance(got, Forall) and got.binder != "b"
    # a schema body is a scope as well: substitution reaches into it and
    # renames the member variable, a parameter or an output variable
    z, p, y = Var("z"), Var("p"), Var("y")
    open_sep = Sep("z", (), MemI(z, Var("q")), Empty(), ())
    assert free_vars(substitute(open_sep, "q", Omega())) == frozenset()
    for x, v, t in (
        (Forall("b", Mem(b, a)), "a", PairT(b, b)),
        (open_sep, "q", Omega()),
        (Sep("z", ("p",), And(Mem(z, p), Eq(a, z)), a, (c,)), "a", PairT(z, p)),
        (Repl("z", "y", ("p",), Eq(y, PairT(z, a)), p, (a,)), "a", PairT(y, p)),
        (Sep("z", ("p", "p"), Mem(p, a), a, (b, c)), "a", p),  # the later p binds
    ):
        got = substitute(x, v, t)
        # oracle: nameless substitution then readback
        oracle = readback(nameless_subst(to_nameless(x), v, to_nameless(t)))
        assert alpha_eq(got, oracle)
        assert free_vars(got) == nameless_free_vars(to_nameless(oracle))


_VARS, _PVARS = ("a", "b", "c", "d", "e"), ("x", "y", "z")  # the binder names gens draws


@pytest.mark.parametrize("seed", range(150))
def test_simultaneous_substitution_matches_the_nameless_oracle(seed):
    """``substitute_many`` over both namespaces at once, with two or more
    replacements named like the trees' own binders, agrees with the
    capture-free substitution on the nameless view."""
    from gens import rand_proof
    from izf.proof_ops import erase

    rng = random.Random(seed)
    proof = rand_proof(rng, 4)
    for tree, erased in ((rand_term(rng, 3), False), (rand_formula(rng, 3), False), (proof, False), (erase(proof), True)):
        env = {a: rng.choice((rand_term(rng, 2), Var(rng.choice(_VARS)))) for a in rng.sample(_VARS, rng.randint(1, 3))}
        for h in rng.sample(_PVARS, rng.randint(1, 2)):
            q = rng.choice((PropVar(rng.choice(_PVARS)), rand_proof(rng, 2)))
            env[h] = erase(q) if erased else q
        fo = {a: to_nameless(t) for a, t in env.items() if isinstance(t, Term)}
        hyp = {h: to_nameless(q) for h, q in env.items() if not isinstance(q, Term)}
        assert to_nameless(substitute_many(tree, env)) == nameless_subst_many(to_nameless(tree), fo, hyp), env


def test_a_sealed_hypothesis_binder_free_in_another_replacement_is_renamed():
    from izf.proofs import App, LamP

    got = substitute_many(LamP("x", Bottom(), App(PropVar("x"), PropVar("y"))), {"x": PropVar("q"), "y": PropVar("x")})
    assert got == LamP("x1", Bottom(), App(PropVar("x1"), PropVar("x")))


def test_cached_free_vars_agree_with_the_nameless_scan():
    rng = random.Random(41)
    for _ in range(2000):
        x = rand_formula(rng, 3) if rng.random() < 0.5 else rand_term(rng, 3)
        fv = free_vars(x)
        assert fv == nameless_free_vars(to_nameless(x))
        assert free_vars(x) is fv  # read off the node


def test_substitution_returns_untouched_subtrees_as_is():
    closed = Forall("b", Eq(b, c))
    got = substitute(And(closed, Eq(a, a)), "a", Var("d"))
    assert got.left is closed and got.right == Eq(Var("d"), Var("d"))
    # a binder named like a free name of the replacement is still renamed,
    # even where its scope holds no occurrence of the substituted variable
    got = substitute(And(closed, Eq(a, a)), "a", b)
    assert got.left == Forall("b1", Eq(Var("b1"), c))
    rng = random.Random(43)
    for _ in range(2000):
        phi = rand_formula(rng, 3)
        if not isinstance(phi, (And, Or, Imp)):
            continue
        t = rand_term(rng, 2)
        got = substitute(phi, "a", t)
        for old, new in ((phi.left, got.left), (phi.right, got.right)):
            if "a" not in free_vars(old) and not bound_names(old) & free_vars(t):
                assert new is old


def test_every_constructor_declares_its_binding_shape():
    classes = {c for base in (Term, Formula) for c in base.__subclasses__()}
    axioms = set(AxiomId.__subclasses__())
    proofs = {c for base in (Proof, ErasedProof) for c in base.__subclasses__()}
    assert len(classes) == 20 and len(axioms) == 13 and len(proofs) == 34
    assert set(SHAPES) == classes | axioms | proofs
    for cls, shape in SHAPES.items():
        assert tuple(f.name for f in shape.fields) == cls.__match_args__
        assert not dataclasses.is_dataclass(cls)
        binders = [f.name for f in shape.fields if f.kind in (FO_BINDER, FO_BINDERS)]
        for f in shape.fields:
            # a node's first-order binders all cover the same fields
            assert f.fo_under in ((), tuple(binders)), (cls.__name__, f.name)


def test_alpha_eq_examples():
    assert alpha_eq(Forall("a", Eq(a, a)), Forall("b", Eq(b, b)))
    assert not alpha_eq(Forall("a", Eq(a, a)), Forall("a", Mem(a, a)))
    s1 = Sep("z", (), Eq(Var("z"), c), a, ())
    s2 = Sep("w", (), Eq(Var("w"), c), a, ())
    assert alpha_eq(s1, s2)


def test_a_node_without_a_shape_is_rejected_by_kernel_ops():
    class Shapeless(Formula):
        pass

    with pytest.raises(TypeError):
        free_vars(Shapeless())
    with pytest.raises(TypeError, match="Shapeless has no binding shape"):
        substitute(Shapeless(), "a", Empty())
    with pytest.raises(TypeError, match="Shapeless has no binding shape"):
        substitute_many(Shapeless(), {"a": Empty(), "x": PropVar("y")})


@pytest.mark.parametrize("build, message", [
    (lambda: Var(""), "variable name must be non-empty"),
    (lambda: Inac(0), "inaccessible index must be >= 1"),
    (lambda: NwfConst("E"), "nwf constant must be C or D"),
])
def test_construction_rejects_a_bad_field(build, message):
    # the separation, replacement and inaccessible-axiom checks reach the
    # parser's diagnostics, which the frontend tests and the parse golden pin
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_a_node_refuses_assignment_and_deletion():
    x = Forall("a", Eq(a, a))
    for change in (lambda: setattr(x, "binder", "b"), lambda: setattr(x, "extra", 1), lambda: delattr(x, "body")):
        with pytest.raises(AttributeError):
            change()
    assert x == Forall("a", Eq(a, a))


def test_fresh_name_deterministic():
    assert fresh_name("b", frozenset()) == "b"
    assert fresh_name("b", frozenset({"b"})) == "b1"
    assert fresh_name("b", frozenset({"b", "b1"})) == "b2"


def _rng_pair(seed):
    rng = random.Random(seed)
    return rand_formula(rng, 3), rand_term(rng, 2)


@pytest.mark.parametrize("seed", range(60))
def test_substitution_identity_laws(seed):
    rng = random.Random(seed)
    phi = rand_formula(rng, 3)
    t = rand_term(rng, 2)
    # substituting a variable for itself is alpha-identity
    assert alpha_eq(substitute(phi, "a", Var("a")), phi)
    # substituting for a non-free variable is alpha-identity
    if "q" not in free_vars(phi):
        assert alpha_eq(substitute(phi, "q", t), phi)


@pytest.mark.parametrize("seed", range(120))
def test_substitution_commutation(seed):
    # phi[a:=t][b:=u[a:=t]] == phi[b:=u][a:=t]  when a != b and b not free in t
    rng = random.Random(10_000 + seed)
    phi = rand_formula(rng, 3)
    t = rand_term(rng, 2)
    u = rand_term(rng, 2)
    if "b" in free_vars(t):
        t = substitute(t, "b", Empty())
    lhs = substitute(substitute(phi, "a", t), "b", substitute(u, "a", t))
    rhs = substitute(substitute(phi, "b", u), "a", t)
    assert alpha_eq(lhs, rhs)


@pytest.mark.parametrize("seed", range(80))
def test_alpha_eq_equivalence_relation(seed):
    rng = random.Random(20_000 + seed)
    phi = rand_formula(rng, 3)
    psi = rand_formula(rng, 3)
    chi = rand_formula(rng, 2)
    assert alpha_eq(phi, phi)
    assert alpha_eq(phi, psi) == alpha_eq(psi, phi)
    if alpha_eq(phi, psi) and alpha_eq(psi, chi):
        assert alpha_eq(phi, chi)


@pytest.mark.parametrize("seed", range(60))
def test_alpha_eq_matches_nameless_oracle(seed):
    rng = random.Random(30_000 + seed)
    phi = rand_formula(rng, 3)
    psi = rand_formula(rng, 3)
    assert alpha_eq(phi, psi) == (to_nameless(phi) == to_nameless(psi))
    # renaming by round-tripping through the nameless view is invisible
    assert alpha_eq(phi, readback(to_nameless(phi)))


@given(st.integers(0, 10))
@settings(max_examples=11)
def test_numeral_expansion_is_iterated_succ(n):
    expanded = numeral(n)
    expect = Empty()
    for _ in range(n):
        expect = UnionT(PairT(expect, PairT(expect, expect)))
    assert expanded == expect


def _dataclass_twin(x, twins={}):
    """x rebuilt from fresh dataclasses with the same names and fields; their
    generated ``__repr__`` is the reference for the declared nodes' own."""
    cls = type(x)
    if cls in SHAPES:
        names = [f.name for f in SHAPES[cls].fields]
        if cls not in twins:
            twins[cls] = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)
        return twins[cls](*(_dataclass_twin(getattr(x, name)) for name in names))
    if cls is tuple:
        return tuple(_dataclass_twin(y) for y in x)
    return x


@pytest.mark.parametrize("seed", range(40))
def test_node_repr_is_the_dataclass_repr(seed):
    from gens import rand_proof
    from izf.proof_ops import erase

    rng = random.Random(seed)
    proof = rand_proof(rng, 4)
    for x in (rand_term(rng, 3), rand_formula(rng, 3), proof, erase(proof)):
        assert repr(x) == repr(_dataclass_twin(x))


def _fields(x) -> tuple:
    return tuple(getattr(x, f.name) for f in SHAPES[type(x)].fields)


def _nodes(x) -> list:
    """x and every node under it, tuples entered."""
    out, todo = [], [x]
    while todo:
        y = todo.pop()
        if type(y) is tuple:
            todo.extend(y)
        elif type(y) in SHAPES:
            out.append(y)
            todo.extend(_fields(y))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_nodes_compare_and_hash_as_their_field_tuples(seed):
    from gens import rand_proof
    from izf.proof_ops import erase

    rng = random.Random(50_000 + seed)
    proof = rand_proof(rng, 4)
    nodes = [y for x in (rand_term(rng, 3), rand_formula(rng, 3), proof, erase(proof)) for y in _nodes(x)]
    for x in nodes:
        assert not hasattr(x, "__dict__")
        assert hash(x) == hash(_fields(x))
        copy = type(x)(*_fields(x))
        assert copy == x and copy is not x and not copy != x
        for y in rng.sample(nodes, 10):
            assert (x == y) == (type(x) is type(y) and _fields(x) == _fields(y))
            assert (x != y) == (not x == y)


@pytest.mark.parametrize("burn", ["_burn_beta", "_burn_proj", "_burn_case", "_burn_cancel", "_burn_let"])
def test_repr_of_a_deep_legal_term_takes_no_native_recursion(burn):
    from izf import corpus

    entry = getattr(corpus, burn)(10**4)
    assert repr(entry).startswith(f"CorpusEntry(name={entry.name!r}, formula={entry.formula!r}, proof=")


# Substitution takes one frame per nesting level.  A rename of each level's
# binder makes ``subst_proof`` descend the whole chain; from a fresh
# interpreter at the default recursion limit it reaches 994 levels of
# ``_burn_beta`` (one node a level) and 496 of ``_burn_case`` (two nodes a
# level).  The test stays ten levels below, as interpreter versions differ by
# a few frames; one more frame per node would halve both.
_DEEP_SUBST = """
import sys
from izf import corpus
from izf.proof_ops import subst_proof
from izf.proofs import PropVar
m = getattr(corpus, sys.argv[1])(int(sys.argv[2])).proof
assert subst_proof(m, "w", PropVar(sys.argv[3])) is not m
print("ok")
"""


@pytest.mark.parametrize("burn, depth, name", [("_burn_beta", 984, "x"), ("_burn_case", 486, "y")])
def test_substitution_takes_one_frame_per_level_of_a_deep_chain(burn, depth, name):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    r = subprocess.run([sys.executable, "-c", _DEEP_SUBST, burn, str(depth), name],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout == "ok\n", r.stderr[-2000:]


# Binding facts and keys take one frame per nesting level too.  From a fresh
# interpreter at the default recursion limit, ``free_vars``, ``to_nameless``
# and ``alpha_eq`` each reach about 993 levels of a fresh (unkeyed)
# ``_burn_beta`` and 496 of ``_burn_case``, give or take one.  The test stays
# ten levels below; one more frame per node would halve both.
_DEEP_KEYS = """
import sys
from izf import corpus
from izf.syntax import alpha_eq, free_vars, to_nameless
fresh = lambda: getattr(corpus, sys.argv[1])(int(sys.argv[2])).proof
assert free_vars(fresh()) == frozenset()
assert to_nameless(fresh())[0] in ("app", "case")
assert alpha_eq(fresh(), fresh())
print("ok")
"""


@pytest.mark.parametrize("burn, depth", [("_burn_beta", 983), ("_burn_case", 486)])
def test_facts_and_keys_take_one_frame_per_level_of_a_deep_chain(burn, depth):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    r = subprocess.run([sys.executable, "-c", _DEEP_KEYS, burn, str(depth)], capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout == "ok\n", r.stderr[-2000:]
