"""The checked theorem library.

One entry per axiom family proved from its own introduction/elimination
pair, the five derived equality lemmas, numeral membership proofs, a set of
deliberately compute-heavy theorems that exercise every reduction rule on
long traces, and the non-well-founded suite whose last entry type-checks
and then loops forever with period three.  Theorems written by hand are
texts in the notation, parsed on first use, as the lemmas are; only the
generic axiom theorem and the long reduction chains are built in Python.
"""

from __future__ import annotations

from .axioms import (
    AxiomId,
    EmptyAx,
    EqAx,
    InacAx,
    InAx,
    InfAx,
    PairAx,
    PowerAx,
    UnionAx,
    axiom_statement,
    head_formula,
    parsed,
    phi_A,
)
from .lemmas import (
    LEI,
    NUM_ZERO,
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
    Inl,
    LamF,
    LamP,
    Let,
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
    Formula,
    Imp,
    Omega,
    Or,
    Var,
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


# Induction is proved from its premise, as its statement has no (intro, elim) pair.
AX_IND = r"""
thm ax_ind : (forall a1, (forall b, b ini a1 -> b = b) -> a1 = a1) -> (forall a1, a1 = a1) :=
  fun (x : forall a, (forall b, b ini a -> b = b) -> a = a) => ind[a | a = a](x) .
"""


def _theorems(text: str, bounds: tuple[int, ...], **fields) -> tuple[CorpusEntry, ...]:
    """The last theorems of a text, one per step bound, parsed on first use;
    the lemma texts it starts with are the ones they cite."""
    decls = parsed(text, "parse").declarations[-len(bounds):]
    return tuple(CorpusEntry(d.name, d.formula, d.proof, "checks", bound, **fields) for d, bound in zip(decls, bounds))


def axiom_theorems() -> tuple[CorpusEntry, ...]:
    """One theorem per axiom family, each at its closed axiom statement."""
    return (
        _ax_entry("ax_empty", EmptyAx(), ("c",), "c"),
        _ax_entry("ax_pair", PairAx(), ("a", "b", "c"), "c"),
        _ax_entry("ax_inf", InfAx(), ("c",), "c"),
        _ax_entry("ax_union", UnionAx(), ("a", "c"), "c"),
        _ax_entry("ax_power", PowerAx(), ("a", "c"), "c"),
        _ax_entry("ax_sep", parsed("sep[z g | z in g]", "parse_axiom"), ("a", "b", "c"), "c"),
        _ax_entry("ax_repl", parsed("repl[z y | y = z]", "parse_axiom"), ("a", "c"), "c"),
        _ax_entry("ax_inac1", InacAx(1), ("c",), "c"),
        _ax_entry("ax_in", InAx(), ("a", "b"), "a"),
        _ax_entry("ax_eq", EqAx(), ("a", "b"), "a"),
        *_theorems(AX_IND, (0,)),
    )


def equality_theorems() -> tuple[CorpusEntry, ...]:
    return (
        CorpusEntry("eq_refl", eq_refl_formula(), mk_eq_refl(), "checks", 1),
        CorpusEntry("eq_symm", eq_symm_formula(), mk_eq_symm(), "checks", 0),
        CorpusEntry("eq_trans", eq_trans_formula(), mk_eq_trans(), "checks", 1),
        CorpusEntry("eq_lei", lei_formula(), mk_lei(), "checks", 0),
        CorpusEntry("eq_ext", ext_formula(), mk_ext(), "checks", 0),
    )


def numeral_theorems(up_to: int = 5) -> tuple[CorpusEntry, ...]:
    return tuple(
        CorpusEntry(f"num_{n}", numeral_mem_formula(n), build_numeral_proof(n), "checks", 0)
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


# The lemmas at zero, read after the lemma texts, which they cite by name.
LEMMA_APPLICATIONS = LEI + NUM_ZERO + r"""
thm red_refl_at : empty = empty := eq_refl @empty .
thm red_symm_app : empty = empty := eq_symm @empty @empty (eq_refl @empty) .
thm red_trans_app : empty = empty := eq_trans @empty @empty @empty (eq_refl @empty, eq_refl @empty) .
thm red_lei_app : empty in omega := eq_lei @empty @empty @omega (num_0, eq_refl @empty) .
thm red_magic : bot -> bot := fun (x : bot) => magic((fun (y : bot) => y) x : bot) .
"""


def reduction_theorems() -> tuple[CorpusEntry, ...]:
    return (
        _burn_beta(300),
        _burn_proj(64),
        _burn_case(48),
        _burn_cancel(48),
        _burn_let(48),
        *_theorems(LEMMA_APPLICATIONS, (6, 16, 16, 32, 0)),
    )


# ---------------------------------------------------------------------------
# The non-well-founded suite


# Each theorem after the first cites earlier ones by name.
NWF_SUITE = r"""
mode nwf .
thm nwf_l0 : forall e, (e in nwfD -> e in nwfC) /\ (e in nwfC -> e in nwfD) :=
  fun a => (fun (x : a in nwfD) => fst(sProp(a, x)), fun (x : a in nwfC) => sRep(a, (x, fun (y : a in a) => x))) .
thm nwf_l05 : nwfD in nwfC := nRep(nwfD, nwf_l0) .
thm nwf_l1 : nwfD in nwfD -> nwfD in nwfC := fun (x : nwfD in nwfD) => snd(sProp(nwfD, x)) x .
thm nwf_l2 : nwfD in nwfC := nwf_l1 sRep(nwfD, (nwf_l05, nwf_l1)) .
"""


def nwf_suite() -> tuple[CorpusEntry, ...]:
    *lemmas, loop = _theorems(NWF_SUITE, (0, 0, 0, 0), nwf=True)
    return (*lemmas, CorpusEntry(loop.name, loop.formula, loop.proof, "diverges", 10**5, period=3, nwf=True))


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
    two = (
        equality_theorems()[0],
        CorpusEntry("two_in_omega", numeral_mem_formula(2), build_numeral_proof(2), "checks", 0),
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
