"""The package's record classes behave as the dataclasses they stand for.

Each record is pinned against a ``dataclasses.make_dataclass`` twin with its
name and fields: its constructor's parameters and defaults, ``repr``, ``==``,
``hash`` (or unhashability, for the mutable ones), frozenness and
``__match_args__``.
"""

import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from izf.realizability import EMPTY_NAME, LambdaName, identity_value
from izf.syntax import Empty

REQ = inspect.Parameter.empty
DEFAULT_FUEL = 10**6

# module, class, frozen, its parameters in order with their defaults (REQ: none)
RECORDS = [
    ("syntax", "FieldShape", True, dict(name=REQ, kind=REQ, under=REQ, hyp_under=REQ, fo_under=REQ)),
    ("syntax", "Shape", True, dict(tag=REQ, fields=REQ)),
    ("typecheck", "TypeCheckError", False, dict(kind=REQ, path=REQ, message=REQ, expected=None, found=None)),
    ("reduction", "Stepped", True, dict(term=REQ, rule=REQ, path=REQ)),
    ("reduction", "IsValue", True, dict()),
    ("reduction", "Stuck", True, dict(path=REQ, reason=REQ)),
    ("reduction", "NormalizeOutcome", False, dict(status=REQ, result=REQ, steps=REQ, stuck_path=(), stuck_reason="")),
    ("reduction", "ErasureReport", False, dict(ok=REQ, steps=REQ, status=REQ, divergence_at=-1, detail="")),
    ("realizability", "Verdict", True, dict(status=REQ, reason="")),
    (
        "realizability", "RealizCfg", True,
        dict(fuel=10**4, universe=(EMPTY_NAME,), realizers=(), truncated=False),
    ),
    ("parser", "Diagnostic", False, dict(line=REQ, col=REQ, message=REQ, expected=())),
    ("parser", "Declaration", True, dict(name=REQ, formula=REQ, proof=REQ)),
    ("parser", "TheoremFile", True, dict(mode=REQ, declarations=REQ, directives=REQ)),
    ("extraction", "ExtractionConfig", True, dict(fuel=DEFAULT_FUEL, depth_cap=2**16, paranoid=False)),
    (
        "corpus", "CorpusEntry", True,
        dict(name=REQ, formula=REQ, proof=REQ, status=REQ, step_bound=REQ, period=None, nwf=False),
    ),
]


def _twin(cls: type, params: dict, frozen: bool) -> type:
    spec = [(n, object) if d is REQ else (n, object, dataclasses.field(default=d)) for n, d in params.items()]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=frozen)


def _samples(params: dict) -> tuple[dict, dict]:
    """Arguments for two records: every required field set to its own name,
    then the same with the first field changed."""
    a = {n: n for n, d in params.items() if d is REQ}
    return a, ({**a, next(iter(params)): 7} if params else a)


@pytest.mark.parametrize("module, name, frozen, params", RECORDS, ids=[f"{m}.{n}" for m, n, *_ in RECORDS])
def test_record_is_its_dataclass_twin(module, name, frozen, params):
    cls = getattr(importlib.import_module(f"izf.{module}"), name)
    twin = _twin(cls, params, frozen)
    signature = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in signature] == list(params.items())
    assert cls.__match_args__ == twin.__match_args__ == tuple(params)
    a, b = _samples(params)
    x, same, other = cls(**a), cls(**a), cls(**b)
    tx, tsame, tother = twin(**a), twin(**a), twin(**b)
    for y, ty in ((x, tx), (other, tother)):
        assert repr(y) == repr(ty)
    assert (x == same, x == other, x != same, x != other) == (tx == tsame, tx == tother, tx != tsame, tx != tother)
    assert x == same and (x != tx) and not (x == tx)
    if params:
        first = next(iter(params))
        if frozen:
            assert hash(x) == hash(tx) == hash(same)
            with pytest.raises(AttributeError):
                setattr(x, first, 1)
            with pytest.raises(AttributeError):
                delattr(x, first)
            with pytest.raises(AttributeError):
                x.extra = 1
            assert repr(x) == repr(tx)
        else:
            with pytest.raises(TypeError):
                hash(x)
            setattr(x, first, 1)
            setattr(tx, first, 1)
            assert repr(x) == repr(tx) and x == cls(**{**a, first: 1})
    else:
        assert hash(x) == hash(tx)


@pytest.mark.parametrize("cls, kwargs", [
    ("extraction.ExtractionConfig", dict(fuel=0)),
    ("extraction.ExtractionConfig", dict(depth_cap=-1)),
    ("realizability.RealizCfg", dict(fuel=0)),
    ("realizability.RealizCfg", dict(universe=())),
])
def test_config_records_reject_bad_budgets(cls, kwargs):
    module, name = cls.split(".")
    with pytest.raises(ValueError):
        getattr(importlib.import_module(f"izf.{module}"), name)(**kwargs)


def test_lambda_name_keeps_its_own_identity_and_label_parameter():
    signature = inspect.signature(LambdaName).parameters.values()
    assert [(p.name, p.default) for p in signature] == [("entries", REQ), ("label", None)]
    assert LambdaName.__match_args__ == ("entries", "key")
    one = LambdaName(((identity_value(), EMPTY_NAME),))
    labelled = LambdaName(((identity_value(), EMPTY_NAME),), label=lambda v: "x")
    assert repr(one) == "<name:2:1>" and one.key != labelled.key and one != labelled
    assert one == LambdaName(((identity_value(), EMPTY_NAME),)) and hash(one) == hash(one.key)
    assert LambdaName(()) == EMPTY_NAME and not hasattr(EMPTY_NAME, "label")
    with pytest.raises(AttributeError):
        one.entries = ()
    with pytest.raises(ValueError):
        LambdaName(((Empty(), EMPTY_NAME),))


def test_the_package_imports_no_dataclasses():
    """The records are built without ``dataclasses``, so a process that
    imports the kernel does not pay for it."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = "import sys, izf.cli, izf.realizability; sys.exit('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
