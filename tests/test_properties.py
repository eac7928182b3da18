"""Hypothesis property tests over recursively generated syntax."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nameless import readback
from izf.printer import print_formula, print_term
from izf.parser import parse_formula, parse_term
from izf.syntax import (
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    MemI,
    Omega,
    Or,
    PairT,
    PowerT,
    UnionT,
    Var,
    alpha_eq,
    free_vars,
    substitute,
    to_nameless,
)

_names = st.sampled_from(("a", "b", "c", "d"))

terms = st.recursive(
    st.one_of(st.builds(Var, _names), st.just(Empty()), st.just(Omega())),
    lambda inner: st.one_of(
        st.builds(PairT, inner, inner),
        st.builds(UnionT, inner),
        st.builds(PowerT, inner),
    ),
    max_leaves=8,
)

_atoms = st.one_of(
    st.just(Bottom()),
    st.builds(Mem, terms, terms),
    st.builds(MemI, terms, terms),
    st.builds(Eq, terms, terms),
)

formulas = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Imp, inner, inner),
        st.builds(Forall, _names, inner),
        st.builds(Exists, _names, inner),
    ),
    max_leaves=10,
)


@given(formulas)
def test_alpha_eq_reflexive(phi):
    assert alpha_eq(phi, phi)


@given(formulas)
def test_self_substitution_is_identity(phi):
    assert alpha_eq(substitute(phi, "a", Var("a")), phi)


@given(formulas, terms)
def test_substituting_nonfree_variable_is_identity(phi, t):
    if "q" not in free_vars(phi):
        assert alpha_eq(substitute(phi, "q", t), phi)


@given(formulas, terms)
def test_substitution_removes_the_variable(phi, t):
    if "a" not in free_vars(t):
        out = substitute(phi, "a", t)
        assert "a" not in free_vars(out) or "a" in free_vars(t)


@given(formulas, terms, terms)
def test_substitution_commutation_property(phi, t, u):
    if "b" in free_vars(t):
        t = substitute(t, "b", Empty())
    lhs = substitute(substitute(phi, "a", t), "b", substitute(u, "a", t))
    rhs = substitute(substitute(phi, "b", u), "a", t)
    assert alpha_eq(lhs, rhs)


@given(formulas)
def test_nameless_round_trip(phi):
    assert alpha_eq(readback(to_nameless(phi)), phi)
    assert to_nameless(readback(to_nameless(phi))) == to_nameless(phi)


@given(formulas)
@settings(max_examples=60)
def test_print_parse_round_trip(phi):
    assert alpha_eq(parse_formula(print_formula(phi)), phi)


@given(terms)
@settings(max_examples=60)
def test_term_print_parse_round_trip(t):
    assert alpha_eq(parse_term(print_term(t)), t)


@given(formulas, formulas)
def test_alpha_eq_symmetric(phi, psi):
    assert alpha_eq(phi, psi) == alpha_eq(psi, phi)
