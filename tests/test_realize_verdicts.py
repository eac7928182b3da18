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


def test_the_golden_queries_in_reverse_order_on_shared_configurations_keep_their_verdicts():
    """Each configuration's queries share its model, so running them in the
    other order must not change a verdict."""
    want = json.loads(realize_verdicts.TABLE.read_text("utf-8"))
    queries = list(realize_verdicts.queries())
    got = {qid: realize_verdicts.verdict(*query) for qid, *query in reversed(queries)}
    cfgs = {id(q[3]): q[3] for q in queries}
    assert len(cfgs) < len(queries) and all("_model" in vars(cfg) for cfg in cfgs.values())
    changed = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not changed, changed
