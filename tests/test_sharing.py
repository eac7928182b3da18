"""Equal nodes of one parse are one object, and what the checker and erasure
make of it.

The parser keeps one table per parse, from a build and its operands (nodes
by identity) to the node it built, so a text's repeated subtrees come back
as one object; the table dies with the parse.  One ``infer`` call builds each
axiom instance's ``phi_A`` and ``head_formula`` once, and ``erase`` erases
each distinct node once.
"""

import sys
import threading
import weakref
from collections import Counter

import pytest

from izf import parser, typecheck
from izf.parser import Diagnostic, parse, parse_proof
from izf.proof_ops import erase
from izf.proofs import LamP, PairP, PropVar
from izf.syntax import Bottom, map_children

_ID = "fun (x : bot) => x"
_REFL = (
    "ind[a | a = a](fun c => fun (x : forall b, b ini c -> b = b) => eqRep(c, c, fun d => "
    "(fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\\ d = c1]), "
    "fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\\ d = c1]))))"
)


def _beta(n: int) -> str:
    t = _ID
    for _ in range(n):
        t = f"(fun (x : bot -> bot) => x) ({t})"
    return f"thm red_beta : bot -> bot :=\n  {t} .\n"


def _cancel(n: int) -> str:
    phi = "empty = empty \\/ empty = omega"
    t = f"inl({_REFL} @empty : {phi})"
    for _ in range(n):
        t = f"pairProp(empty, empty, omega, pairRep(empty, empty, omega, {t}))"
    return f"thm red_cancel : {phi} :=\n  {t} .\n"


def _nodes(*roots) -> dict:
    """Every node under the roots, by id."""
    seen, todo = {}, list(roots)
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            map_children(x, lambda y: todo.append(y) or y)
    return seen


def _trees(tf) -> list:
    return [x for d in tf.declarations for x in (d.formula, d.proof)]


def test_equal_subtrees_of_one_parse_are_one_object():
    m, heads = parse(_beta(8)).declarations[0].proof, []
    while hasattr(m, "fn"):  # down the applications of the chain
        m, heads = m.arg, [*heads, m.fn]
    assert len(heads) == 8 and all(h is heads[0] for h in heads)
    assert heads[0].dom.left is heads[0].dom.right  # both bot
    for text in (_beta(8), _cancel(6)):  # no abbreviation, so every node comes from the table
        nodes = list(_nodes(*_trees(parse(text))).values())
        assert len(nodes) == len(set(nodes))  # no two of them are equal


def test_two_parses_of_one_text_share_no_node():
    text = _cancel(4) + "thm again : bot -> bot := fun (x : bot) => x ."
    one, two = _nodes(*_trees(parse(text))), _nodes(*_trees(parse(text)))
    assert not one.keys() & two.keys()
    assert parse(text) == parse(text)


def test_no_parse_table_outlives_its_parse(monkeypatch):
    tables = []

    class Table(dict):  # a dict that a weak reference can point to
        pass

    class Watched(parser._Parser):
        def __init__(self, text):
            super().__init__(text)
            self.nodes = Table()
            tables.append(weakref.ref(self.nodes))

    monkeypatch.setattr(parser, "_Parser", Watched)
    tf = parse(_cancel(3))
    m = parse_proof("(fun (x : bot) => x, fun (x : bot) => x)")
    with pytest.raises(Diagnostic):
        parse(_cancel(3) + "thm bad : bot := (x, .")
    assert len(tables) == 3 and all(t() is None for t in tables)
    assert tf.declarations and m.left is m.right  # the trees outlive their tables


def test_threads_parsing_different_texts_at_once_get_their_own_trees():
    texts = [_beta(40), _cancel(12), _beta(30) + _cancel(5)]
    want = [parse(t) for t in texts]
    got, start = {}, threading.Barrier(len(texts))

    def read(i: int) -> None:
        start.wait()
        got[i] = [parse(texts[i]) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(texts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert all(got[i] == [want[i]] * 5 for i in range(len(texts)))
    ids = [_nodes(*_trees(tf)).keys() for i in got for tf in got[i]]
    assert all(not a & b for j, a in enumerate(ids) for b in ids[j + 1:])


def test_a_cancel_chain_builds_each_axiom_instance_once(monkeypatch):
    built, same = Counter(), []
    for name in ("phi_A", "head_formula"):
        def counted(ax, t, args, f=getattr(typecheck, name), name=name):
            built[name, ax, t, args] += 1
            return f(ax, t, args)
        monkeypatch.setattr(typecheck, name, counted)
    alpha_eq = typecheck.alpha_eq
    monkeypatch.setattr(typecheck, "alpha_eq", lambda x, y: same.append(x is y) or alpha_eq(x, y))
    decl = parse(_cancel(48)).declarations[0]
    typecheck.check((), decl.proof, decl.formula)
    assert set(built.values()) == {1}
    assert sorted(f"{name}:{type(ax).__name__}" for name, ax, _, _ in built) == [
        "head_formula:EqAx", "head_formula:InAx", "head_formula:PairAx",
        "phi_A:EqAx", "phi_A:InAx", "phi_A:IndAx", "phi_A:PairAx"]  # IndAx: the induction rule's premise
    assert sum(same) >= 2 * 48 - 1  # down the chain, each premise is the formula the rule below returned


def test_erasure_keeps_sharing():
    s = LamP("x", Bottom(), PropVar("x"))
    e = erase(PairP(s, s))
    assert e.left is e.right
    m = parse(_beta(6)).declarations[0].proof
    em = erase(m)
    assert em.fn is em.arg.fn and len(_nodes(em)) == len(_nodes(m)) - 2  # less the two bot annotations
