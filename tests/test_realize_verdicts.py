"""The golden realizability verdict table: each query that
`scripts/realize_verdicts.py` enumerates keeps the (status, reason) recorded
in `tests/realize_verdicts.json`."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import realize_verdicts  # noqa: E402


def test_every_golden_query_keeps_its_verdict():
    want = json.loads(realize_verdicts.TABLE.read_text("utf-8"))
    got = realize_verdicts.table()
    assert len(want) >= 763
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
