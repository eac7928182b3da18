"""The golden substitution table: each case that `scripts/subst_golden.py`
enumerates keeps the result recorded in `tests/subst_golden.json`, down to
its exact repr, whether it is the input object and how many of the input's
nodes it keeps."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import subst_golden  # noqa: E402


def test_every_golden_substitution_keeps_its_result():
    want = json.loads(subst_golden.TABLE.read_text("utf-8"))
    got = subst_golden.table()
    assert len(want) >= 2400
    assert sum(k.startswith("hand/") for k in want) >= 18
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
