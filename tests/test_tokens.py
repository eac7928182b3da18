"""The tokenizer reads the words, keys and diagnostic positions that the
earlier pattern with a capturing group read.

``OLD_TOKEN`` is that pattern, kept here as the oracle: a blank or a comment
matches with the group empty, and a token is the group.
"""

import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from izf.notation import BAD, EOF, SYMBOLS, key
from izf.parser import Diagnostic, _diagnostic, tokenize

OLD_TOKEN = re.compile(r"\s+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*|\d+|" + "|".join(map(re.escape, SYMBOLS)) + "|.)")
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
TEXTS = [p.read_text("utf-8") for p in sorted(CORPUS.glob("*.izf"))]
# Pieces of text: comments and arrows that touch, bad characters, Unicode
# blanks and digits, words and numbers.
PIECES = (
    "--", "-", "->", "-->", "<->", "<-", "<", ">", "--x\n", "-- c", ":=", ":", "=", "=>", "/\\", "\\/", "/", "\\",
    "thm", "x", "x'", "_", "V3", "inac2Rep", "0", "17", "٣", "(", ")", "{", "}", ".", ",", ";", "|", "@",
    " ", "\n", "\t", "\r\n", " ", " ", "　", "\x1c", "\x85", " ",
    "#", "$", "é", "λ", "\x00", "∀", "'",
)


def _oracle(text: str) -> tuple[list[str], list[int]]:
    found = [m for m in OLD_TOKEN.finditer(text) if m.group(1)]
    return [m.group(1) for m in found], [m.start(1) for m in found]


def _position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _check(text: str) -> None:
    words, offsets = _oracle(text)
    keys = [key(w) for w in words]
    if BAD in keys:
        try:
            tokenize(text)
        except Diagnostic as d:
            assert (d.line, d.col) == _position(text, offsets[keys.index(BAD)])
        else:
            raise AssertionError(f"no diagnostic for {text!r}")
    else:
        assert tokenize(text) == ([*words, ""], [*keys, EOF])
    for i in {0, len(words) // 2, max(len(words) - 1, 0), len(words)}:
        d = _diagnostic(text, i, "here")
        assert (d.line, d.col) == _position(text, offsets[i] if i < len(words) else len(text))


def test_corpus_texts_tokenize_as_before():
    for text in TEXTS:
        _check(text)


@given(st.sampled_from(TEXTS), st.integers(0, 10**6), st.integers(0, 400), st.lists(st.sampled_from(PIECES)))
@settings(max_examples=300, deadline=None)
def test_corpus_slices_with_inserted_pieces_tokenize_as_before(text, start, length, pieces):
    start %= len(text)
    cut = text[start : start + length]
    at = len(cut) // 2
    _check(cut[:at] + "".join(pieces) + cut[at:])


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@settings(max_examples=500, deadline=None)
def test_random_texts_tokenize_as_before(text):
    _check(text)


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_arbitrary_unicode_tokenizes_as_before(text):
    _check(text)
