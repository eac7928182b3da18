"""Goldens of the code the kernel derives from its declarations.

The substitution, binding-facts and nameless-key functions are generated per
class from its shape in ``syntax.SHAPES``; their sources are pinned by one
sha256 over the sorted distinct sources.  The machine's context fillers are
pinned by their behaviour: a context node rebuilt around its own hole child
is the node again.
"""

import hashlib

from izf import reduction
from izf.corpus import all_entries
from izf.proof_ops import erase
from izf.syntax import _FACTS, _KEY, _MAKERS, _SUBST, SHAPES, map_children

_MAKERS_SHA256 = "08deb22464e118dc91909ece05dac0e04db5be9c7a52a428e35368edaaca240f"


def test_generated_sources_are_pinned():
    for cls in list(SHAPES):
        for table in (_SUBST, _FACTS, _KEY):
            assert callable(table[cls])
    assert len(SHAPES) == 67 and len(_MAKERS) == 84
    digest = hashlib.sha256("\n\0\n".join(sorted(_MAKERS)).encode()).hexdigest()
    assert digest == _MAKERS_SHA256


def _first_of_each_class(roots):
    """The first node of each class met in a depth-first walk of the roots."""
    first, todo = {}, list(reversed(roots))
    while todo:
        x = todo.pop()
        first.setdefault(type(x), x)
        kids = []
        map_children(x, lambda y: kids.append(y) or y)
        todo.extend(reversed(kids))
    return first


def test_each_context_class_fills_its_hole_back():
    proofs = [e.proof for e in all_entries()]
    first = _first_of_each_class(proofs + [erase(m) for m in proofs])
    assert len(reduction._FILL) == 16 and set(reduction._FILL) <= set(first)
    for cls, fill in reduction._FILL.items():
        p = first[cls]
        hole = reduction._RULES[cls][1]
        assert fill(p, getattr(p, hole)) == p, cls.__name__
