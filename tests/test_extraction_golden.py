"""Golden of `izf extract`: for each shipped corpus file and each goal, the
sha256 of the text printed on stdout and the exit code, so a change to
extraction that changes a result, a message or a verdict shows here."""

import hashlib
import pathlib

import pytest

from izf.cli import main

_CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# (file, goal arguments) -> (sha256 of stdout, exit code)
_EXTRACT_GOLDEN = {
    ("axioms.izf", "dp"): ("d4e594f7812789aa6ee71e0c2b2ed5f1d46a708d39504add41fef90adb3f6b6e", 1),
    ("axioms.izf", "witness"): ("815861bfa5927dc0a8a9dff66a4babd70d8db42077cdea6595ac04cc0e74e410", 1),
    ("axioms.izf", "numeral"): ("e99d6b15b56f5dbc7c1bb2d8818fa42c6cc5098c80f139e27157ae8a0258cedb", 1),
    ("axioms.izf", "numeral --paranoid"): ("e99d6b15b56f5dbc7c1bb2d8818fa42c6cc5098c80f139e27157ae8a0258cedb", 1),
    ("equality.izf", "dp"): ("c74637fc657dfdd1af066659aebcfb4b550e55c572adf597cae4adafee759ba6", 1),
    ("equality.izf", "witness"): ("d3eba8cc08534c1e9b3a754a7d373d26973057590100278fcbbd4cf1e94ccb05", 1),
    ("equality.izf", "numeral"): ("30fa7369b788e398f5b6f52d43fc2035fa77579b4e96c1af4ea6093c83657fdd", 1),
    ("equality.izf", "numeral --paranoid"): ("30fa7369b788e398f5b6f52d43fc2035fa77579b4e96c1af4ea6093c83657fdd", 1),
    ("numerals.izf", "dp"): ("68cff21edca003c1c7ef156b0814c8b207e67bbf90a2bced1908957fe5285589", 1),
    ("numerals.izf", "witness"): ("9d328772349627ffd3d69429ce87d2939dad3cb7246d2f356c141ac279935594", 1),
    ("numerals.izf", "numeral"): ("9d6093db34ed3db1834973eb10698ddb099971d39ac0e4707485d5f5aa5b0595", 0),
    ("numerals.izf", "numeral --paranoid"): ("9d6093db34ed3db1834973eb10698ddb099971d39ac0e4707485d5f5aa5b0595", 0),
    ("nwf_loop.izf", "dp"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("nwf_loop.izf", "witness"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("nwf_loop.izf", "numeral"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("nwf_loop.izf", "numeral --paranoid"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    ("reduction.izf", "dp"): ("8382b0f0670cc6b506ccc1cfab0dd3720115f22ca0c4c5caedf84f7a4e483ff7", 1),
    ("reduction.izf", "witness"): ("1c84e4518445ab9bcb9736dc4884fe6700d6081c6cf134420913dcb2a013d2b5", 1),
    ("reduction.izf", "numeral"): ("8521efc8e68d24b05cb768e16d434daec2c7c15e39bf7ac6640b618a011732e9", 1),
    ("reduction.izf", "numeral --paranoid"): ("8521efc8e68d24b05cb768e16d434daec2c7c15e39bf7ac6640b618a011732e9", 1),
    ("two_in_omega.izf", "dp"): ("509ca2211be8df57518d712322fed29e9720f10c91864ed6a0e5a86e49e23e7f", 1),
    ("two_in_omega.izf", "witness"): ("dafab5c3be7ce8887cf9ea9a2174a5aea37ef4bf87f35f73476ea765f7fd5a26", 1),
    ("two_in_omega.izf", "numeral"): ("53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", 0),
    ("two_in_omega.izf", "numeral --paranoid"): ("53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", 0),
}


def test_the_golden_covers_every_corpus_file():
    assert {f for f, _ in _EXTRACT_GOLDEN} == {p.name for p in _CORPUS.glob("*.izf")}


@pytest.mark.parametrize("name,goal", sorted(_EXTRACT_GOLDEN))
def test_extract_keeps_its_stdout_and_exit_code(name, goal, capsys):
    code = main(["extract", "--goal", *goal.split(), str(_CORPUS / name)])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == _EXTRACT_GOLDEN[name, goal]
