"""The checked theorem library.

One entry per axiom family proved from its own introduction/elimination
pair, the five derived equality lemmas, numeral membership proofs, a set of
deliberately compute-heavy theorems that exercise every reduction rule on
long traces, and the non-well-founded suite whose last entry type-checks
and then loops forever with period three.
"""

from __future__ import annotations

from .axioms import (
    AxiomId,
    EmptyAx,
    EqAx,
    InacAx,
    InAx,
    IndAx,
    InfAx,
    NwfAx,
    PairAx,
    PowerAx,
    ReplAx,
    Sep0Ax,
    SepAx,
    UnionAx,
    axiom_statement,
    head_formula,
    phi_A,
)
from .lemmas import (
    build_numeral_proof,
    eq_refl_formula,
    eq_symm_formula,
    eq_trans_formula,
    ext_formula,
    lei_formula,
    mk_eq_refl,
    mk_eq_symm,
    mk_eq_trans,
    mk_ext,
    mk_lei,
    numeral_mem_formula,
)
from .proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    ExIntro,
    Fst,
    Ind,
    Inl,
    LamF,
    LamP,
    Let,
    Magic,
    PairP,
    Proof,
    PropVar,
    Snd,
)
from .syntax import (
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Mem,
    NwfConst,
    Omega,
    Or,
    Var,
    numeral,
    record,
)


@record()
class CorpusEntry:
    name: str
    formula: Formula
    proof: Proof
    status: str  # "checks" | "diverges"
    step_bound: int  # normalization bound for checks, probe budget otherwise
    period: int | None = None  # declared cycle period for diverging entries
    nwf: bool = False

    @property
    def checks(self) -> bool:
        return self.status == "checks"


def _ax_entry(name: str, ax: AxiomId, quant: tuple[str, ...], subject: str) -> CorpusEntry:
    """The generic introduction/elimination pair theorem for one axiom."""
    args = tuple(Var(n) for n in quant if n != subject)
    c = Var(subject)
    fwd = LamP("x", head_formula(ax, c, args), AxProp(ax, c, args, PropVar("x")))
    bwd = LamP("x", phi_A(ax, c, args), AxRep(ax, c, args, PropVar("x")))
    proof: Proof = PairP(fwd, bwd)
    for n in reversed(quant):
        proof = LamF(n, proof)
    return CorpusEntry(name, axiom_statement(ax), proof, "checks", 0)


def axiom_theorems() -> tuple[CorpusEntry, ...]:
    """One theorem per axiom family, each at its closed axiom statement."""
    sep = SepAx("z", ("g",), Mem(Var("z"), Var("g")))
    repl = ReplAx("z", "y", (), Eq(Var("y"), Var("z")))
    ind = IndAx("a", (), Eq(Var("a"), Var("a")))
    entries = [
        _ax_entry("ax_empty", EmptyAx(), ("c",), "c"),
        _ax_entry("ax_pair", PairAx(), ("a", "b", "c"), "c"),
        _ax_entry("ax_inf", InfAx(), ("c",), "c"),
        _ax_entry("ax_union", UnionAx(), ("a", "c"), "c"),
        _ax_entry("ax_power", PowerAx(), ("a", "c"), "c"),
        _ax_entry("ax_sep", sep, ("a", "b", "c"), "c"),
        _ax_entry("ax_repl", repl, ("a", "c"), "c"),
        _ax_entry("ax_inac1", InacAx(1), ("c",), "c"),
        _ax_entry("ax_in", InAx(), ("a", "b"), "a"),
        _ax_entry("ax_eq", EqAx(), ("a", "b"), "a"),
    ]
    premise = Forall("a", phi_A(ind, Var("a"), ()))
    ind_proof = LamP("x", premise, Ind(ind, PropVar("x"), ()))
    entries.append(CorpusEntry("ax_ind", axiom_statement(ind), ind_proof, "checks", 0))
    return tuple(entries)


def equality_theorems() -> tuple[CorpusEntry, ...]:
    er, es, et = mk_eq_refl(), mk_eq_symm(), mk_eq_trans()
    return (
        CorpusEntry("eq_refl", eq_refl_formula(), er, "checks", 1),
        CorpusEntry("eq_symm", eq_symm_formula(), es, "checks", 0),
        CorpusEntry("eq_trans", eq_trans_formula(), et, "checks", 1),
        CorpusEntry("eq_lei", lei_formula(), mk_lei(es, et), "checks", 0),
        CorpusEntry("eq_ext", ext_formula(), mk_ext(er), "checks", 0),
    )


def numeral_theorems(up_to: int = 5) -> tuple[CorpusEntry, ...]:
    er = mk_eq_refl()
    return tuple(
        CorpusEntry(f"num_{n}", numeral_mem_formula(n), build_numeral_proof(n, er), "checks", 0)
        for n in range(up_to + 1)
    )


# ---------------------------------------------------------------------------
# Reduction exercises: long traces through every rule


_B = Bottom()
_IMPB = Imp(_B, _B)


def _id_bot() -> Proof:
    return LamP("x", _B, PropVar("x"))


def _burn_beta(n: int) -> CorpusEntry:
    # n nested applications of the identity at bot -> bot: exactly n steps
    i = LamP("x", _IMPB, PropVar("x"))
    t: Proof = _id_bot()
    for _ in range(n):
        t = App(i, t)
    return CorpusEntry("red_beta", _IMPB, t, "checks", n)


def _burn_proj(n: int) -> CorpusEntry:
    # alternating fst/snd of literal pairs: one step per layer
    t: Proof = _id_bot()
    for k in range(n):
        t = Fst(PairP(t, _id_bot())) if k % 2 == 0 else Snd(PairP(_id_bot(), t))
    return CorpusEntry("red_proj", _IMPB, t, "checks", n)


def _burn_case(n: int) -> CorpusEntry:
    two = Or(_IMPB, _B)
    t: Proof = _id_bot()
    for _ in range(n):
        t = Case(
            Inl(t, two), "x", _IMPB, PropVar("x"), "y", _B, LamP("z", _B, PropVar("y"))
        )
    return CorpusEntry("red_case", _IMPB, t, "checks", n)


def _burn_cancel(n: int) -> CorpusEntry:
    # alternating elimination/introduction pairs for the pair axiom
    er = mk_eq_refl()
    e, w = Empty(), Omega()
    pair_phi = phi_A(PairAx(), e, (e, w))
    t: Proof = Inl(AppT(er, e), pair_phi)
    for _ in range(n):
        t = AxProp(PairAx(), e, (e, w), AxRep(PairAx(), e, (e, w), t))
    return CorpusEntry("red_cancel", pair_phi, t, "checks", n)


def _burn_let(n: int) -> CorpusEntry:
    er = mk_eq_refl()
    ezero = Eq(Empty(), Empty())
    ann = Exists("a", ezero)
    t: Proof = AppT(er, Empty())
    for _ in range(n):
        t = Let("a", "x", ezero, ExIntro(Empty(), t, ann), PropVar("x"))
    # n let steps plus the reflexivity instance left at the core
    return CorpusEntry("red_let", ezero, t, "checks", n + 4)


def _lemma_applications() -> tuple[CorpusEntry, ...]:
    er, es, et = mk_eq_refl(), mk_eq_symm(), mk_eq_trans()
    zero = numeral(0)
    refl0 = AppT(er, zero)
    ezero = Eq(zero, zero)
    symm_app = App(AppT(AppT(es, zero), zero), refl0)
    trans_app = App(AppT(AppT(AppT(et, zero), zero), zero), PairP(refl0, refl0))
    lei_app = App(
        AppT(AppT(AppT(mk_lei(es, et), zero), zero), Omega()),
        PairP(build_numeral_proof(0, er), refl0),
    )
    magic_chain = LamP(
        "x", _B, Magic(App(LamP("y", _B, PropVar("y")), PropVar("x")), _B)
    )
    return (
        CorpusEntry("red_refl_at", ezero, refl0, "checks", 6),
        CorpusEntry("red_symm_app", ezero, symm_app, "checks", 16),
        CorpusEntry("red_trans_app", ezero, trans_app, "checks", 16),
        CorpusEntry("red_lei_app", Mem(zero, Omega()), lei_app, "checks", 32),
        CorpusEntry("red_magic", Imp(_B, _B), magic_chain, "checks", 0),
    )


def reduction_theorems() -> tuple[CorpusEntry, ...]:
    return (
        _burn_beta(300),
        _burn_proj(64),
        _burn_case(48),
        _burn_cancel(48),
        _burn_let(48),
        *_lemma_applications(),
    )


# ---------------------------------------------------------------------------
# The non-well-founded suite


def nwf_suite() -> tuple[CorpusEntry, ...]:
    c, d = NwfConst("C"), NwfConst("D")
    a, x = Var("a"), PropVar("x")
    m_l0 = LamF(
        "a",
        PairP(
            LamP("x", Mem(a, d), Fst(AxProp(Sep0Ax(), a, (), x))),
            LamP(
                "x",
                Mem(a, c),
                AxRep(Sep0Ax(), a, (), PairP(x, LamP("y", Mem(a, a), x))),
            ),
        ),
    )
    m_l05 = AxRep(NwfAx(), d, (), m_l0)
    m_l1 = LamP("x", Mem(d, d), App(Snd(AxProp(Sep0Ax(), d, (), x)), x))
    m_l2 = App(m_l1, AxRep(Sep0Ax(), d, (), PairP(m_l05, m_l1)))
    return (
        CorpusEntry("nwf_l0", phi_A(NwfAx(), d, ()), m_l0, "checks", 0, nwf=True),
        CorpusEntry("nwf_l05", Mem(d, c), m_l05, "checks", 0, nwf=True),
        CorpusEntry("nwf_l1", Imp(Mem(d, d), Mem(d, c)), m_l1, "checks", 0, nwf=True),
        CorpusEntry("nwf_l2", Mem(d, c), m_l2, "diverges", 10**5, period=3, nwf=True),
    )


def standard_entries() -> tuple[CorpusEntry, ...]:
    return (
        *axiom_theorems(),
        *equality_theorems(),
        *numeral_theorems(),
        *reduction_theorems(),
    )


def all_entries() -> tuple[CorpusEntry, ...]:
    return (*standard_entries(), *nwf_suite())


# ---------------------------------------------------------------------------
# Shipped file images


def corpus_files() -> dict[str, tuple[str, tuple[CorpusEntry, ...], tuple[tuple[str, str], ...]]]:
    """Filename -> (mode, entries, directives) for the shipped theorem files."""
    er = mk_eq_refl()
    two = (
        CorpusEntry("eq_refl", eq_refl_formula(), er, "checks", 1),
        CorpusEntry("two_in_omega", numeral_mem_formula(2), build_numeral_proof(2, er), "checks", 0),
    )
    return {
        "axioms.izf": ("standard", axiom_theorems(), ()),
        "equality.izf": ("standard", equality_theorems(), ()),
        "numerals.izf": (
            "standard",
            (equality_theorems()[0],) + numeral_theorems(),
            tuple(("eval", f"num_{n}") for n in range(6)),
        ),
        "reduction.izf": ("standard", reduction_theorems(), ()),
        "nwf_loop.izf": ("nwf", nwf_suite(), ()),
        "two_in_omega.izf": ("standard", two, (("eval", "two_in_omega"),)),
    }


def render_corpus_file(
    mode: str,
    entries: tuple[CorpusEntry, ...],
    directives: tuple[tuple[str, str], ...] = (),
) -> str:
    from .printer import print_formula, print_proof

    lines = ["-- generated theorem file; see the corpus module"]
    if mode != "standard":
        lines.append(f"mode {mode} .")
    for e in entries:
        lines.append("")
        lines.append(f"thm {e.name} : {print_formula(e.formula)} :=")
        lines.append(f"  {print_proof(e.proof)} .")
    for kind, name in directives:
        lines.append("")
        lines.append(f"{kind} {name} .")
    return "\n".join(lines) + "\n"
