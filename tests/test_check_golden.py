"""The golden check-and-print table: each case that `scripts/check_golden.py`
enumerates keeps the type digest or the exact error (kind, path, message and
the digests of its formulas) recorded in `tests/check_golden.json`, and the
digest of the text printed for its proof and type."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import check_golden  # noqa: E402


def test_every_golden_check_keeps_its_type_or_error_and_its_printed_text():
    want = json.loads(check_golden.TABLE.read_text("utf-8"))
    got = check_golden.table()
    assert len(want) >= 1860
    assert sum(v["infer"].startswith("ok ") for v in want.values()) >= 500
    assert sum("/mutation/" in k for k in want) >= 1000
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
