import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import rand_formula, rand_proof, rand_term
from izf.corpus import corpus_files, render_corpus_file
from izf.notation import KEYWORDS, NOTES, NUMBERED, SYMBOLS
from izf.parser import (
    Diagnostic,
    TheoremFile,
    parse,
    parse_formula,
    parse_proof,
    parse_term,
)
from izf.printer import print_formula, print_proof, print_term
from izf.proof_ops import alpha_eq_proof
from izf.proofs import Proof
from izf.syntax import NUMERAL_BOUND, Bottom, Eq, Forall, Formula, Imp, Term, Var, alpha_eq, substitute

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


def izf(*args, env_extra=None, cwd=ROOT):
    env = dict(os.environ)
    src_dir = str(ROOT / "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "izf.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_parse_simple_declaration():
    tf = parse("thm id : bot -> bot := fun (x:bot) => x .")
    assert len(tf.declarations) == 1
    d = tf.declarations[0]
    assert d.name == "id"
    assert alpha_eq(d.formula, Imp(Bottom(), Bottom()))


def test_parse_reports_position():
    with pytest.raises(Diagnostic) as e:
        parse("thm bad : bot := magic .")
    assert e.value.line == 1
    assert e.value.col >= 18


def test_print_examples():
    assert print_formula(Imp(Bottom(), Imp(Bottom(), Bottom()))) == "bot -> bot -> bot"
    assert print_formula(Forall("a", Eq(Var("a"), Var("a")))) == "forall a, a = a"


def test_comments_and_mode_header():
    tf = parse("-- hello\nmode nwf .\nthm t : nwfD in nwfC -> nwfD in nwfC := fun (x : nwfD in nwfC) => x .")
    assert tf.nwf
    assert tf.declarations[0].name == "t"


def test_reference_inlining():
    tf = parse(
        "thm base : bot -> bot := fun (x:bot) => x .\n"
        "thm uses : bot -> bot := base .\n"
    )
    assert alpha_eq_proof(tf.declarations[0].proof, tf.declarations[1].proof)


def test_duplicate_names_rejected():
    with pytest.raises(Diagnostic):
        parse("thm t : bot -> bot := fun (x:bot) => x .\nthm t : bot -> bot := fun (x:bot) => x .")


def test_directive_unknown_name_rejected():
    with pytest.raises(Diagnostic):
        parse("eval nothing .")


@pytest.mark.parametrize("seed", range(150))
def test_round_trip_terms(seed):
    rng = random.Random(seed)
    t = rand_term(rng, 3)
    assert alpha_eq(parse_term(print_term(t)), t)


@pytest.mark.parametrize("seed", range(150))
def test_round_trip_formulas(seed):
    rng = random.Random(500 + seed)
    f = rand_formula(rng, 4)
    assert alpha_eq(parse_formula(print_formula(f)), f)


@pytest.mark.parametrize("seed", range(150))
def test_round_trip_proofs(seed):
    rng = random.Random(900 + seed)
    m = rand_proof(rng, 4)
    assert alpha_eq_proof(parse_proof(print_proof(m)), m)


def test_round_trip_corpus_files():
    for name, (mode, entries, directives) in corpus_files().items():
        text = render_corpus_file(mode, entries, directives)
        tf = parse(text)
        assert len(tf.declarations) == len(entries)
        for decl, entry in zip(tf.declarations, entries):
            assert decl.name == entry.name
            assert alpha_eq(decl.formula, entry.formula)
            assert alpha_eq_proof(decl.proof, entry.proof)


def test_shipped_files_match_builders():
    for name, (mode, entries, directives) in corpus_files().items():
        on_disk = (CORPUS / name).read_text(encoding="utf-8")
        assert on_disk == render_corpus_file(mode, entries, directives), name


# -- command line


def test_cli_check_corpus_ok():
    r = izf("check", "corpus/axioms.izf")
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.count("ok ") == 11


def test_cli_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.izf"
    bad.write_text("thm nope : bot := fun (x:bot) => x .")
    r = izf("check", str(bad))
    assert r.returncode == 1
    assert "FAIL nope" in r.stdout


def test_cli_check_substitutes_into_separation_bodies(tmp_path):
    # Instantiating c with c1 must reach the schema body of the sep term, so
    # the statement mentioning c1 checks and the one still mentioning c fails.
    def thm(name, v):
        s = f"sep[z | z in {v}](empty)"
        t = "sep[z | z in c](empty)"
        return (f"thm {name} : forall c1, {s} = {s} -> {s} = {s} := "
                f"fun c1 => (fun a => fun c => fun (x : {t} = {t}) => x) @c @c1 .")

    src = tmp_path / "sep.izf"
    src.write_text(thm("w", "c") + "\n" + thm("w1", "c1"))
    r = izf("check", str(src))
    assert r.returncode == 1
    assert "FAIL w:" in r.stdout and "ok w1 :" in r.stdout


def test_nesting_too_deep_is_a_diagnostic(tmp_path):
    deep = "(" * 3000 + "bot" + ")" * 3000
    for parse_one, text in ((parse_formula, deep), (parse_term, "(" * 3000 + "empty" + ")" * 3000),
                            (parse, f"thm t : {deep} -> bot := fun (x : bot) => x .")):
        with pytest.raises(Diagnostic, match="nesting too deep"):
            parse_one(text)
    src = tmp_path / "deep.izf"
    src.write_text(f"thm t : {deep} -> bot := fun (x : bot) => x .")
    r = izf("check", str(src))
    assert r.returncode == 1
    assert "nesting too deep" in r.stderr and "Traceback" not in r.stderr


# A chain of each burn family, written as text as the benchmark writes it.
# The parser takes one frame per construct on the path to the innermost
# one, so these depths parse in a fresh interpreter under the default
# recursion limit (494 for beta, proj and case, 488 for cancel and let).
_CHAINS = """
import sys
sys.path.insert(0, sys.argv[1])
import inputs
from izf.parser import parse
for family in inputs.BURN_CHAINS:
    parse(inputs.burn_chain(family, 480).text)
print("ok")
"""


def test_480_deep_burn_chains_parse_under_the_default_recursion_limit():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", _CHAINS, str(ROOT / "perfbench")]
    r = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout == "ok\n", r.stderr[-2000:]


def test_a_numeral_literal_above_the_bound_is_a_diagnostic(tmp_path):
    assert isinstance(parse_formula(f"{NUMERAL_BOUND} in omega"), Formula)
    with pytest.raises(Diagnostic, match=f"numeral 1000000 is above the bound {NUMERAL_BOUND}") as e:
        parse_term("{empty,\n  1000000}")
    assert (e.value.line, e.value.col) == (2, 3)
    src = tmp_path / "big.izf"
    src.write_text("thm a : 99999999999999999999999 in omega := x .")
    r = izf("check", str(src))
    assert r.returncode == 1
    assert f"{src}:1:9: numeral 99999999999999999999999 is above the bound {NUMERAL_BOUND}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter reads any integer")
def test_an_integer_past_the_interpreters_digit_limit_is_a_diagnostic():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for parse_one, text, col in ((parse_term, "{empty, V" + "9" * 5000 + "}", 9),
                                     (parse_proof, f"f inac{'9' * 5000}Rep(empty, x)", 3)):
            with pytest.raises(Diagnostic, match="Exceeds the limit") as e:
                parse_one(text)
            assert (e.value.line, e.value.col) == (1, col)
    finally:
        sys.set_int_max_str_digits(limit)


def _container_sizes(module) -> dict:
    """The number of entries in each module-level dict, set, list or tuple,
    counting those nested in them."""
    def size(x, seen) -> int:
        if not isinstance(x, (dict, set, frozenset, list, tuple)) or id(x) in seen:
            return 0
        seen.add(id(x))
        items = [*x.keys(), *x.values()] if isinstance(x, dict) else x
        return len(x) + sum(size(y, seen) for y in items)

    return {k: size(v, set()) for k, v in vars(module).items() if isinstance(v, (dict, set, frozenset, list))}


def test_parsing_fresh_words_leaves_no_state_behind():
    import izf.notation
    import izf.parser

    def text(i: int) -> str:
        return (f"thm t{i} : V{i + 1} in V{i + 2} -> {i} in omega :=\n"
                f"  fun (h{i} : V{i + 1} in V{i + 2}) => inac{i + 1}Rep(empty, q{i}_{i}) .")

    parse(text(0))
    before = [_container_sizes(m) for m in (izf.parser, izf.notation)]
    for i in range(1000):
        assert len(parse(text(i)).declarations) == 1
    assert [_container_sizes(m) for m in (izf.parser, izf.notation)] == before


# The parser makes its table entries when a text first needs them; threads
# that read texts at once from cold tables must read what one thread reads.
_THREADS = """
import pathlib, sys, threading
sys.setswitchinterval(1e-6)
from izf.parser import parse
texts = [p.read_text("utf-8") for p in sorted(pathlib.Path(sys.argv[1]).glob("*.izf"))] * 2
got = {}
threads = [threading.Thread(target=lambda i=i: got.update({i: repr(parse(texts[i]))})) for i in range(len(texts))]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(all(got[i] == repr(parse(text)) for i, text in enumerate(texts)))
"""


def test_threads_reading_from_cold_tables_read_alike():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", _THREADS, str(CORPUS)]
    r = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0 and r.stdout == "True\n", r.stderr[-2000:]


def test_cli_runs_a_500_binder_chain(tmp_path):
    n = 500
    src = tmp_path / "deep.izf"
    binders = "".join(f"fun (x{i} : bot) => " for i in range(n))
    src.write_text(f"thm deep : {' -> '.join(['bot'] * (n + 1))} :=\n  {binders}x0 .\n")
    for args in (("check",), ("normalize",), ("realize", "--depth", "1")):
        r = izf(*args, str(src))
        assert r.returncode == 0, (args, r.stderr[-500:])
        assert "Traceback" not in r.stdout + r.stderr
    assert r.stdout.strip() == "deep REALIZES"


def test_parse_proof_rejects_inaccessible_axiom_index_zero():
    for word in ("inac0Rep", "inac0Prop"):
        with pytest.raises(Diagnostic, match="index must be >= 1") as e:
            parse_proof(f"f {word}(empty, x)")
        assert (e.value.line, e.value.col) == (1, 3)


def test_cli_check_rejects_inaccessible_axiom_index_zero(tmp_path):
    src = tmp_path / "inac0.izf"
    src.write_text("thm t : empty = empty := inac0Rep(empty, x) .")
    r = izf("check", str(src))
    assert r.returncode == 1
    assert f"{src}:1:26: inaccessible axiom index must be >= 1" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_check_rejects_separation_params_and_args_apart(tmp_path):
    for parse_one, text, col in ((parse_term, "sep[z a | z in a](omega)", 1),
                                 (parse_proof, "f @repl[y z | y = z](omega; empty)", 4)):
        with pytest.raises(Diagnostic, match="params/args length mismatch") as e:
            parse_one(text)
        assert (e.value.line, e.value.col) == (1, col)
    src = tmp_path / "sep.izf"
    src.write_text("thm t : empty = empty := x .\nthm u : sep[z g | z in g](a) = empty := x .")
    r = izf("check", str(src))
    assert r.returncode == 1
    assert f"{src}:2:9: separation term: params/args length mismatch" in r.stderr
    assert "Traceback" not in r.stderr


# Every word and symbol the notation declares, the numbered words at a few
# numbers, and a few names.
_AXIOM_WORDS = {n.parts[0] for n in NOTES.values() if n.cat == "axiom" and isinstance(n.parts[0], str)}
_NUMBERED = [family.replace("<n>", n) for family in NUMBERED for n in ("0", "1", "2", "17")]
_WORDS = (*SYMBOLS, *sorted(KEYWORDS | _AXIOM_WORDS), *_NUMBERED, "a", "b", "x", "y")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from((" ", "", "\n"))), max_size=40))
def test_parse_gives_a_file_or_a_diagnostic(words):
    text = "".join(w + sep for w, sep in words)
    for parse_one, kind in ((parse, TheoremFile), (parse_formula, Formula), (parse_term, Term),
                            (parse_proof, Proof)):
        try:
            assert isinstance(parse_one(text), kind)
        except Diagnostic:
            pass


def test_reserved_words_are_never_names():
    for parse_one, text, col in ((parse_formula, "forall V1, V1 = V1", 8),
                                 (parse_proof, "fun (pairRep : bot) => pairRep", 6)):
        with pytest.raises(Diagnostic, match="cannot be a name") as e:
            parse_one(text)
        assert (e.value.line, e.value.col) == (1, col)


@pytest.mark.parametrize("parse_one, text, col", [
    (parse_formula, "bot <-> bot <-> bot", 13),  # <-> does not associate
    (parse_proof, "f fun x => x", 3),  # a lambda is an argument only in brackets
])
def test_constructs_stand_only_at_their_level(parse_one, text, col):
    with pytest.raises(Diagnostic) as e:
        parse_one(text)
    assert (e.value.line, e.value.col) == (1, col)


def test_renamed_binder_is_not_spelled_like_an_inaccessible():
    phi = substitute(parse_formula("forall V, V = a"), "a", Var("V"))
    assert print_formula(phi) == "forall V_1, V_1 = V"
    assert alpha_eq(parse_formula(print_formula(phi)), phi)


@pytest.mark.parametrize("args", [("sep", "--schema", "z | z in"), ("repl", "--schema", "z | bot"),
                                  ("sep", "--schema", "z | bot] junk"), ("inac0",)])
def test_cli_axiom_rejects_bad_input(args):
    r = izf("axiom", *args)
    assert r.returncode == 2
    assert r.stderr.startswith("izf: ") and "Traceback" not in r.stderr


def test_cli_usage_error_exit_code():
    r = izf("extract", "corpus/axioms.izf", "--goal", "bogus")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [("check", "corpus/axioms.izf"), ("axiom", "pair")])
def test_cli_exits_1_without_a_traceback_when_stdout_is_closed(args):
    # stdout is a pipe whose read end is closed before the run, so the first
    # write fails, whether the command prints much (check) or little (axiom).
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        r = subprocess.run([sys.executable, "-m", "izf.cli", *args], stdout=write, stderr=subprocess.PIPE,
                           text=True, env=env, cwd=ROOT)
    finally:
        os.close(write)
    assert r.returncode == 1
    assert r.stderr == ""


@pytest.mark.parametrize("args, env", [
    (("normalize", "--fuel", "-1"), {}),
    (("normalize",), {"IZF_FUEL": "-5"}),
    (("extract", "--goal", "numeral", "--fuel", "0"), {}),
    (("realize", "--fuel", "0"), {}),
    (("realize", "--pool", "-3"), {}),
    (("realize", "--depth", "-2"), {}),
])
def test_cli_rejects_out_of_range_numeric_options(args, env):
    r = izf(args[0], "corpus/equality.izf", *args[1:], env_extra=env)
    assert r.returncode == 2
    assert r.stderr.startswith("izf: ") and len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_cli_normalize_nwf_loop():
    r = izf("normalize", "corpus/nwf_loop.izf", "--fuel", "100000")
    assert r.returncode == 1
    assert "FuelExhausted" in r.stdout
    assert "cycle prefix=0 period=3" in r.stdout


def test_cli_normalize_stops_at_a_cycle(tmp_path):
    # nwf_l2 revisits a state after 3 steps, so the default fuel of 10^6 steps
    # is reported without being spent; a traced run still writes every step.
    start = time.perf_counter()
    r = izf("normalize", "corpus/nwf_loop.izf")
    assert time.perf_counter() - start < 30
    assert r.returncode == 1
    assert "nwf_l2: FuelExhausted after 1000000 steps; cycle prefix=0 period=3" in r.stdout.splitlines()
    out = tmp_path / "trace.jsonl"
    r = izf("normalize", "corpus/nwf_loop.izf", "--fuel", "500", "--trace", str(out))
    assert "nwf_l2: FuelExhausted after 500 steps; cycle prefix=0 period=3" in r.stdout.splitlines()
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["step"] for rec in recs if rec["thm"] == "nwf_l2"] == list(range(500))


def test_cli_extract_numeral():
    r = izf("extract", "corpus/two_in_omega.izf", "--goal", "numeral")
    assert r.returncode == 0
    assert r.stdout.strip() == "2"


def test_cli_extract_prints_a_wrong_goal_in_the_notation(tmp_path):
    src = tmp_path / "goals.izf"
    src.write_text(
        "thm t : bot -> bot := fun (x : bot) => x .\n\n"
        "thm w : exists a, bot -> bot := [empty, fun (x : bot) => x : exists a, bot -> bot] .\n"
    )
    want = {
        "dp": ["FAIL t: goal is not a disjunction: bot -> bot", "FAIL w: goal is not a disjunction: exists a, bot -> bot"],
        "witness": ["FAIL t: goal is not existential: bot -> bot", "empty"],
        "numeral": [
            "FAIL t: goal is not a membership in omega: bot -> bot",
            "FAIL w: goal is not a membership in omega: exists a, bot -> bot",
        ],
    }
    for goal, lines in want.items():
        r = izf("extract", str(src), "--goal", goal)
        assert (r.returncode, r.stdout.splitlines()) == (1, lines), goal


def test_cli_trace_export(tmp_path):
    out = tmp_path / "trace.jsonl"
    r = izf("normalize", "corpus/equality.izf", "--trace", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines
    per_thm: dict[str, int] = {}
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"thm", "step", "rule", "path", "term"}
        prev = per_thm.get(rec["thm"], -1)
        assert rec["step"] == prev + 1  # strictly increasing per theorem
        per_thm[rec["thm"]] = rec["step"]
        parse_proof(rec["term"])  # term field re-parses


def test_cli_normalize_passes_a_step_callback_only_when_tracing(monkeypatch, tmp_path):
    from izf import cli

    callbacks = []
    real = cli.normalize

    def spy(m, fuel, **kwargs):
        callbacks.append(kwargs.get("on_step"))
        return real(m, fuel, **kwargs)

    monkeypatch.setattr(cli, "normalize", spy)
    monkeypatch.delenv("IZF_FUEL", raising=False)
    path = str(CORPUS / "equality.izf")
    assert cli.main(["normalize", path]) == 0
    assert callbacks and all(cb is None for cb in callbacks)
    callbacks.clear()
    assert cli.main(["normalize", path, "--trace", str(tmp_path / "t.jsonl")]) == 0
    assert callbacks and all(cb is not None for cb in callbacks)


def test_cli_deterministic_reports():
    a = izf("check", "corpus/equality.izf")
    b = izf("check", "corpus/equality.izf")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_cli_env_fuel(tmp_path):
    r = izf("normalize", "corpus/nwf_loop.izf", env_extra={"IZF_FUEL": "50"})
    assert r.returncode == 1
    assert "after 50 steps" in r.stdout


def test_cli_axiom_statement():
    from izf.axioms import PairAx, axiom_statement

    r = izf("axiom", "pair")
    assert r.returncode == 0
    assert alpha_eq(parse_formula(r.stdout.strip()), axiom_statement(PairAx()))


def test_cli_axiom_instantiated():
    r = izf("axiom", "pair", "--inst", "empty", "omega")
    assert r.returncode == 0
    got = parse_formula(r.stdout.strip())
    want = parse_formula(
        "forall c, (c ini {empty, omega} -> c = empty \\/ c = omega)"
        " /\\ (c = empty \\/ c = omega -> c ini {empty, omega})"
    )
    assert alpha_eq(got, want)


@pytest.mark.parametrize(
    "case", json.loads((ROOT / "tests" / "axiom_statements.json").read_text()), ids=lambda c: " ".join(c["argv"][1:])
)
def test_cli_axiom_prints_each_statement_exactly(case, capsys):
    # Bound names included: the statements were recorded before the axiom
    # catalogue became one table, and alpha-equivalence would hide a renaming.
    from izf import cli

    assert cli.main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_cli_realize_eq_file():
    r = izf("realize", "corpus/equality.izf", "--depth", "1", "--fuel", "10000")
    assert r.returncode == 0
    for line in r.stdout.strip().splitlines():
        assert line.endswith("REALIZES")


def test_cli_deterministic_across_hash_seeds():
    a = izf("check", "corpus/equality.izf", env_extra={"PYTHONHASHSEED": "1"})
    b = izf("check", "corpus/equality.izf", env_extra={"PYTHONHASHSEED": "271828"})
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    ra = izf("realize", "corpus/numerals.izf", "--depth", "1", env_extra={"PYTHONHASHSEED": "7"})
    rb = izf("realize", "corpus/numerals.izf", "--depth", "1", env_extra={"PYTHONHASHSEED": "99"})
    assert ra.stdout == rb.stdout


def test_print_tree_dispatch():
    from izf.printer import print_tree
    from izf.proofs import PropVar as PV

    assert print_tree(Var("a")) == "a"
    assert print_tree(Eq(Var("a"), Var("a"))) == "a = a"
    assert print_tree(PV("x")) == "x"
    from izf.proofs import App as A, EApp, EPropVar
    from izf.syntax import NameRef

    erased = EApp(EPropVar("f"), EPropVar("x"))
    for bad, shown in (
        (42, "42"),
        (erased, repr(erased)),
        (NameRef(3), "NameRef(payload=3)"),
        (NameRef([1]), "NameRef(payload=[1])"),  # unhashable: never looked up by value
        (Eq(NameRef("n"), Var("a")), "NameRef(payload='n')"),
        (A(PV("f"), EPropVar("x")), "EPropVar(name='x')"),
    ):
        with pytest.raises(TypeError) as e:
            print_tree(bad)
        assert str(e.value) == f"cannot print: {shown}"


_FUZZ_FILES = ("axioms.izf", "equality.izf", "nwf_loop.izf", "reduction.izf", "two_in_omega.izf")
_FUZZ_RUNS = (
    ("check",),
    ("normalize", "--fuel", "200"),
    ("extract", "--goal", "numeral", "--fuel", "200"),
    ("realize", "--depth", "1", "--fuel", "200"),
)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    st.sampled_from(_FUZZ_FILES),
    st.lists(
        st.tuples(st.integers(0, 10**5), st.integers(0, 12), st.sampled_from(("", " ", *_WORDS))),
        min_size=1,
        max_size=4,
    ),
)
def test_cli_exit_codes_hold_on_mutated_corpus_files(tmp_path_factory, name, edits):
    from izf import cli

    text = (CORPUS / name).read_text("utf-8")
    for pos, cut, word in edits:
        at = pos % (len(text) + 1)
        text = text[:at] + word + text[at + cut :]
    src = tmp_path_factory.mktemp("fuzz") / name
    src.write_text(text, encoding="utf-8")
    for command, *opts in _FUZZ_RUNS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([command, str(src), *opts])
            except SystemExit as e:
                code = e.code
        assert code in (0, 1, 2), (command, code)
