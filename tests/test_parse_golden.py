"""The golden parse table: each case that `scripts/parse_golden.py`
enumerates keeps the tree digest or the exact diagnostic recorded in
`tests/parse_golden.json`."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import parse_golden  # noqa: E402


def test_every_golden_case_keeps_its_outcome():
    want = json.loads(parse_golden.TABLE.read_text("utf-8"))
    got = parse_golden.table()
    assert len(want) >= 1392
    assert sum(k.startswith("mutation/") for k in want) >= 500
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
