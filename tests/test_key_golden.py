"""The golden keys-and-facts table: each tree that `scripts/key_golden.py`
enumerates keeps the binding facts, the alpha-equivalence verdicts and the
nameless keys recorded in `tests/key_golden.json`, the keys down to their
exact repr."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import key_golden  # noqa: E402


def test_every_golden_tree_keeps_its_facts_and_keys():
    want = json.loads(key_golden.TABLE.read_text("utf-8"))
    got = key_golden.table()
    assert len(want) >= 2000
    assert sum(k.startswith("hand/") for k in want) >= 16
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
