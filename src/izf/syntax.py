"""First-order terms and formulas of the set theory.

Terms and formulas are mutually recursive: the separation and replacement
set terms carry a schema formula together with the variables it binds.
Three atomic relations exist and are kept distinct throughout: intensional
membership (MemI), extensional membership (Mem) and equality (Eq).

All nodes are immutable; an operation returns a node unchanged when it
has nothing to change in it.

Each constructor is one ``node`` declaration, which makes its class and its
binding shape in ``SHAPES`` together: terms and formulas here, axiom
identifiers in ``axioms`` and proof terms in ``proofs``.  The classes are
built at import, cheaply: slots, no instance dictionary, and the
``__init__``s of a module compiled from one source.  A schema body is an
ordinary scope under its binders.  There is no sugar node: the notation's
abbreviations ``<->``, numerals and ``S(t)`` are built as the core syntax
they stand for, by ``iff``, ``numeral`` and ``succ_term`` below.

The binding facts (behind ``free_vars`` and ``bound_names``), the nameless
key ``to_nameless`` and substitution are generated per shape: for each job,
each class gets its own straight-line function, made from its shape the
first time the job meets a node of the class, that enters each child through
the job's table of these functions, one frame per level.  The child map
``map_children`` (and ``proof_ops.erase``) still interpret the shapes.  All
read ``SHAPES``, which rejects a class without a shape.  Substitution serves
both namespaces: a term replaces a first-order variable and a proof a
hypothesis variable, in terms, formulas and proofs of both calculi; it
renames binders only if the shape has any, and a variable is one dictionary
lookup.  ``to_nameless`` is the package's one binding-invariant key:
``alpha_eq`` compares it, proofs are keyed by it, and the realizability memo
keys are built on it.

Keys and free names live on the node.  Each node computes its binding
facts once, when a traversal first needs them, and keeps them: its free
hypothesis names, free first-order names, first-order and hypothesis binder
names, and its closed nameless key.  ``free_vars``, ``bound_names`` and
``proofs.proof_free_vars`` read them; ``to_nameless`` reuses a kept key
wherever the stacks bind none of the node's free names; substitution
returns a subtree as is when it cannot change it.  The caches live and die
with their nodes.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from functools import reduce
from operator import attrgetter, is_not
from typing import Callable, Iterator, Union


class FrozenError(AttributeError):
    """An assignment to, or deletion of, a field of a node or a frozen record."""


class Node:
    """Base class of every declared node: terms, formulas, axiom identifiers
    and proof terms.

    ``_facts`` is the node's binding facts (see ``_names``), stored on the
    node the first time a traversal needs them.  It is the one attribute a
    node gains after construction, so the cache lives and dies with it.  A
    node refuses any other assignment or deletion, as a frozen dataclass
    does.
    """

    __slots__ = ("__weakref__",)
    _facts = None

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenError(f"cannot delete field {name!r}")


class Term(Node):
    """Base class for set terms."""

    __slots__ = ()


class Formula(Node):
    """Base class for formulas."""

    __slots__ = ()


Tree = Union[Term, Formula]


# ---------------------------------------------------------------------------
# Equality of nodes and records, and the records themselves

_IDENTITY: dict[tuple[str, ...], tuple[Callable, Callable]] = {}  # field names -> (__eq__, __hash__)


def _identity(names: tuple[str, ...]) -> tuple[Callable, Callable]:
    """A frozen dataclass's ``__eq__`` and ``__hash__`` over these fields,
    shared by every node and record class with them: two are equal when they
    are of one class and their field tuples are equal, and one hashes as its
    field tuple."""
    if names not in _IDENTITY:
        values = attrgetter(*names) if names else None

        if len(names) > 1:  # attrgetter gives the field tuple

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return values(self) == values(other)
                return NotImplemented

            def __hash__(self):
                return hash(values(self))

        else:  # attrgetter gives the one field, or there is none

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return not names or (values(self),) == (values(other),)
                return NotImplemented

            def __hash__(self):
                return hash((values(self),) if names else ())

        _IDENTITY[names] = __eq__, __hash__
    return _IDENTITY[names]


def _record_repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(frozen: bool = True) -> Callable[[type], type]:
    """A class decorator that makes a record, as ``dataclass(frozen=...)``
    would.  The fields are the class's annotated names, in order, and a
    class-level value is a field's default.  The class gets an ``__init__``
    that takes them (and then calls ``__post_init__``, if the class has one),
    their ``__match_args__``, a dataclass's repr and ``_identity``'s
    equality; a frozen record also gets its hash and refuses assignment, as
    a node does, and a mutable one is unhashable.  Whatever the class defines
    itself it keeps."""

    def make(cls: type) -> type:
        names, own = tuple(cls.__dict__.get("__annotations__", {})), cls.__dict__
        space = {"setattr": object.__setattr__, **{f"d_{n}": own[n] for n in names if n in own}}
        params = "".join(f", {n}=d_{n}" if f"d_{n}" in space else f", {n}" for n in names)
        sets = [f"setattr(self, {n!r}, {n})" if frozen else f"self.{n} = {n}" for n in names]
        sets += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        exec(f"def __init__(self{params}):\n " + "\n ".join(sets or ["pass"]), space)
        space["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        eq, hash_ = _identity(names)
        made = dict(__init__=space["__init__"], __match_args__=names, __repr__=_record_repr, __eq__=eq, __hash__=None)
        made.update(dict(__hash__=hash_, __setattr__=Node.__setattr__, __delattr__=Node.__delattr__) if frozen else {})
        for attr, value in made.items():
            setattr(cls, attr, own.get(attr, value))
        return cls

    return make


# ---------------------------------------------------------------------------
# Binding shapes
#
# One declaration per constructor: its fields in order, each with a kind, and
# for each field under a binder the binder fields whose scope covers it.  The
# tag names the constructor inside nameless keys.


class Kind(Enum):
    TERM = "term"
    FORMULA = "formula"
    TERMS = "term tuple"
    LITERAL = "literal"  # copied as is
    FO_VAR = "first-order variable"  # the occurrence Var stands for
    FO_BINDER = "first-order binder"
    FO_BINDERS = "first-order binder tuple"
    PROOF = "sub-proof"
    SCHEMA = "axiom schema"  # an axiom identifier; a schema binds its own body
    HYP = "hypothesis variable"  # the occurrence PropVar/EPropVar stands for
    HYP_BINDER = "hypothesis binder"


TERM, FORMULA, TERMS, LITERAL, FO_VAR, FO_BINDER, FO_BINDERS, PROOF, SCHEMA, HYP, HYP_BINDER = Kind


@record()
class FieldShape:
    name: str
    kind: Kind
    under: tuple[str, ...]  # binder fields whose scope covers this field, in field order
    hyp_under: tuple[str, ...]  # the hypothesis binders among them
    fo_under: tuple[str, ...]  # the first-order binders among them


@record()
class Shape:
    tag: str
    fields: tuple[FieldShape, ...]


class _Shapes(dict):
    def __missing__(self, cls: type):
        raise TypeError(f"{cls.__name__} has no binding shape")


SHAPES: dict[type, Shape] = _Shapes()
# Per base class, its hypothesis variable: the class whose first field is a
# HYP.  A node's hypothesis binders are renamed to variables of that class.
_HYP_VARS: dict[type, type] = {}


# ---------------------------------------------------------------------------
# Node classes
#
# ``node`` makes a constructor's class and its shape from one declaration.
# The class keeps its fields and ``_facts`` in slots, and has a frozen
# dataclass's equality, hash, match arguments and repr; ``declare`` gives it
# its ``__init__``.

_PENDING: dict[type, tuple[str, str] | None] = {}  # declared classes without an __init__ -> their reject clause


def node(base: type, name: str, tag: str, /, *, reject: tuple[str, str] | None = None, **fields: Kind | tuple) -> type:
    """Declare a constructor: its class ``name`` under ``base``, and its
    shape in ``SHAPES``.  Each field, in order, is ``field=KIND`` or
    ``field=(KIND, binder, ...)``, naming the binder fields whose scope
    covers it.  ``reject`` is a condition on the fields, as source, and the
    message of the ``ValueError`` construction raises when it holds."""
    specs = {n: (s,) if isinstance(s, Kind) else s for n, s in fields.items()}
    out = []
    for field, (kind, *under) in specs.items():
        hyp = tuple(b for b in under if specs[b][0] is HYP_BINDER)
        fo = tuple(b for b in under if specs[b][0] in (FO_BINDER, FO_BINDERS))
        out.append(FieldShape(field, kind, tuple(under), hyp, fo))
    names = tuple(specs)
    eq, hash_ = _identity(names)
    cls = type(name, (base,), {
        "__slots__": (*names, "_facts"),
        "__match_args__": names,
        "__eq__": eq,
        "__hash__": hash_,
        "__repr__": _node_repr,
        "__module__": sys._getframe(1).f_globals["__name__"],
    })
    SHAPES[cls] = Shape(tag, tuple(out))
    if out and out[0].kind is HYP:
        _HYP_VARS[base] = cls
    _PENDING[cls] = reject
    return cls


def declare() -> None:
    """Finish the classes declared since the last call: each module calls it
    once, after its declarations.

    Their ``__init__``s are compiled from one source, in one ``exec``: each
    tests its reject clause, then writes its fields through their slots and
    ``_facts`` empty.
    """
    src, space = [], {"inits": []}
    for i, (cls, reject) in enumerate(_PENDING.items()):
        src.append(f"def __init__(self{''.join(', ' + n for n in cls.__match_args__)}):")
        if reject:
            src += [f" if {reject[0]}:", f"  raise ValueError({reject[1]!r})"]
        for j, slot in enumerate(cls.__slots__):
            space[f"set{i}_{j}"] = cls.__dict__[slot].__set__
            src.append(f" set{i}_{j}(self, {'None' if slot == '_facts' else slot})")
        src.append("inits.append(__init__)")
    exec("\n".join(src), space)
    for cls, init in zip(_PENDING, space["inits"]):
        cls.__init__ = init
        init.__qualname__ = f"{cls.__qualname__}.__init__"
    _PENDING.clear()


class _Text(str):
    """A piece of repr text, as opposed to a value still to be shown."""


def _node_repr(x: Node) -> str:
    """The dataclass repr of a declared node, built on an explicit stack, so
    that a deep tree takes no native recursion: ``Cls(field=value, ...)``
    over the node's fields, a tuple as Python shows it, and any other value
    by its own repr."""
    out: list[str] = []
    todo: list[object] = [x]
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is _Text:
            out.append(item)
            continue
        if cls.__repr__ is _node_repr:
            pieces: list[object] = [_Text(f"{cls.__qualname__}(")]
            for i, f in enumerate(SHAPES[cls].fields):
                pieces += (_Text(f"{', ' if i else ''}{f.name}="), getattr(item, f.name))
        elif cls is tuple:
            pieces = [_Text("(")]
            for i, y in enumerate(item):
                pieces += (_Text(", "), y) if i else (y,)
            pieces.append(_Text("," if len(item) == 1 else ""))
        else:
            out.append(repr(item))
            continue
        todo.append(_Text(")"))
        todo.extend(reversed(pieces))
    return "".join(out)


# ---------------------------------------------------------------------------
# Core terms

Var = node(Term, "Var", "free", name=FO_VAR, reject=("not name", "variable name must be non-empty"))
Empty = node(Term, "Empty", "empty")
Omega = node(Term, "Omega", "omega")
# The i-th inaccessible-set constant, i >= 1 (index 0 is just omega).
Inac = node(Term, "Inac", "inac", index=LITERAL, reject=("index < 1", "inaccessible index must be >= 1"))
# One of the two extra constants of the non-well-founded mode, "C" or "D".
NwfConst = node(Term, "NwfConst", "nwf", name=LITERAL, reject=("name not in ('C', 'D')", "nwf constant must be C or D"))
# A constant referring to a model element.  The realizability language extends
# the signature with one constant per name in the model universe; the payload
# is opaque here and only needs equality and hashing.
NameRef = node(Term, "NameRef", "nameref", payload=LITERAL)
PairT = node(Term, "PairT", "pair", left=TERM, right=TERM)
UnionT = node(Term, "UnionT", "union", arg=TERM)
PowerT = node(Term, "PowerT", "power", arg=TERM)
# Separation set term: carries its schema formula explicitly.  ``binder`` is
# the member variable of the schema body, ``params`` the parameter variables,
# instantiated positionally by ``args``.  ``body`` is a scope under ``binder``
# and ``params`` (a later name shadows an earlier equal one); its other free
# variables are free variables of the term.  Unused params are permitted.
Sep = node(
    Term, "Sep", "sep",
    binder=FO_BINDER, params=FO_BINDERS, body=(FORMULA, "binder", "params"), carrier=TERM, args=TERMS,
    reject=("len(params) != len(args)", "separation term: params/args length mismatch"),
)
# Replacement set term; binder1/binder2 are the input/output variables.
Repl = node(
    Term, "Repl", "repl",
    binder1=FO_BINDER, binder2=FO_BINDER, params=FO_BINDERS, body=(FORMULA, "binder1", "binder2", "params"),
    carrier=TERM, args=TERMS,
    reject=("len(params) != len(args)", "replacement term: params/args length mismatch"),
)


# ---------------------------------------------------------------------------
# Core formulas

Bottom = node(Formula, "Bottom", "bot")
MemI = node(Formula, "MemI", "memi", left=TERM, right=TERM)  # intensional membership, the primitive relation
Mem = node(Formula, "Mem", "mem", left=TERM, right=TERM)  # extensional membership, defined from MemI by (IN)
Eq = node(Formula, "Eq", "eq", left=TERM, right=TERM)
And = node(Formula, "And", "and", left=FORMULA, right=FORMULA)
Or = node(Formula, "Or", "or", left=FORMULA, right=FORMULA)
Imp = node(Formula, "Imp", "imp", left=FORMULA, right=FORMULA)
Forall = node(Formula, "Forall", "forall", binder=FO_BINDER, body=(FORMULA, "binder"))
Exists = node(Formula, "Exists", "exists", binder=FO_BINDER, body=(FORMULA, "binder"))
declare()


# ---------------------------------------------------------------------------
# Traversals read off the shapes
#
# Each serves every declared node: terms, formulas, axiom identifiers and, as
# ``proofs`` declares them, proof terms of both calculi.

_TREES = (TERM, FORMULA, SCHEMA)
_CHILD = (*_TREES, PROOF)


def map_children(x: Tree, f: Callable[[Tree], Tree]) -> Tree:
    """x with ``f`` applied to each child node and each term of a tuple.

    ``f`` is blind to binders: variables, binder names and literals stay as
    they are.  x itself comes back when ``f`` returns every child unchanged.
    """
    vals, changed = [], False
    for field in SHAPES[type(x)].fields:
        v = w = getattr(x, field.name)
        if field.kind in _CHILD:
            w = f(v)
        elif field.kind is TERMS and v:
            w = tuple(f(u) for u in v)
        changed = changed or w is not v
        vals.append(w)
    return type(x)(*vals) if changed else x


def free_vars(x: Tree) -> frozenset[str]:
    """Variables with a free occurrence; schema binders bind their bodies."""
    return _names(x)[1]


def bound_names(x: Tree) -> frozenset[str]:
    """All first-order binder names occurring anywhere in the tree."""
    return _names(x)[2]


_NONE: frozenset[str] = frozenset()
_CLOSED = (_NONE, _NONE, _NONE, _NONE, None)  # shared by every unkeyed node without names


def _join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing an operand that already is the union."""
    if b <= a:
        return a
    return b if a <= b else a | b


def _names(x: Tree) -> tuple:
    """x's binding facts, cached on x: its free hypothesis names, free
    first-order names, first-order binder names and hypothesis binder names,
    then its closed nameless key or None.  Each set is built from the
    children's, so a node shares them wherever it adds nothing."""
    return x._facts or _FACTS[type(x)](x)


def to_nameless(x: Tree, stack: tuple[str, ...] = (), hstack: tuple[str, ...] = ()) -> tuple:
    """Binding-invariant key: equal tuples iff alpha-equal trees.

    A node renders as its tag and then its fields in order, a binder tuple
    as its length and a binder not at all.  Bound variables become de
    Bruijn indices into ``stack`` (first-order) or ``hstack`` (hypotheses),
    innermost binder last; free variables keep their names.  The tuples are
    hashable whenever the ``NameRef`` payloads are.

    A node's key does not depend on stacks that bind none of its free
    names: it is then the node's closed key.  x and every node under it
    whose key is closed keep that key, and a kept key serves under any such
    stacks, so keying a tree again, or a new tree built around keyed
    subtrees, walks only what is new.
    """
    return _KEY[type(x)](x, stack, hstack, True)


def _binders(names: tuple[str, ...], fields: tuple[FieldShape, ...]) -> str:
    """The source of the names these binder fields bind, in order, as the
    items of a sequence: ``v0, *v1``."""
    index = {f.name: j for j, f in enumerate(fields)}
    return ", ".join(("*" if fields[index[b]].kind is FO_BINDERS else "") + f"v{index[b]}" for b in names)


def _fo_binders(fields: tuple[FieldShape, ...]) -> tuple[str, ...]:
    """A node's first-order binder fields, in order; they all cover the same fields."""
    return tuple(f.name for f in fields if f.kind in (FO_BINDER, FO_BINDERS))


def _facts_source(shape: Shape) -> str:
    """The source of ``make(C, tag, H)``, which gives the facts function
    ``f(x)`` of a class ``C`` with this shape: it joins the facts of the
    children, each entered through ``_FACTS``, drops the names each child's
    binders bind, adds the node's own binders and keeps the result on x."""
    fields = shape.fields
    out = ["def make(C, tag, H):", ' S = C.__dict__["_facts"].__set__', " def f(x):"]
    out += [f"  v{j} = x.{f.name}" for j, f in enumerate(fields) if f.kind is not LITERAL]
    sets: list[list[str]] = [[], [], [], []]  # hypothesis free, first-order free, first-order bound, hypothesis bound
    for j, f in enumerate(fields):
        kind = f.kind
        if kind in _CHILD:
            out.append(f"  h{j}, f{j}, b{j}, k{j}, _ = v{j}._facts or _FACTS[type(v{j})](v{j})")
            for own, under in ((f"h{j}", f.hyp_under), (f"f{j}", f.fo_under)):
                if under:
                    out.append(f"  if {own}: {own} = {own}.difference(({_binders(under, fields)},))")
            for parts, own in zip(sets, (f"h{j}", f"f{j}", f"b{j}", f"k{j}")):
                parts.append(own)
        elif kind is TERMS:
            out += [f"  f{j} = b{j} = _NONE", f"  for u in v{j}:",
                    "   _, tf, tb, _, _ = u._facts or _FACTS[type(u)](u)",
                    f"   f{j}, b{j} = _join(f{j}, tf), _join(b{j}, tb)"]
            sets[1].append(f"f{j}")
            sets[2].append(f"b{j}")
        elif kind in (FO_VAR, HYP):
            sets[kind is FO_VAR].append(f"frozenset((v{j},))")
        elif kind in (FO_BINDER, FO_BINDERS, HYP_BINDER):
            sets[2 if kind is not HYP_BINDER else 3].append(f"frozenset(v{j})" if kind is FO_BINDERS else f"frozenset((v{j},))")
    joined = (reduce(lambda a, b: f"_join({a}, {b})", parts) if parts else "_NONE" for parts in sets)
    out += [f"  hfree, ffree, fbound, hbound = {', '.join(joined)}",
            "  facts = (hfree, ffree, fbound, hbound, None) if hfree or ffree or fbound or hbound else _CLOSED"]
    return "\n".join([*out, "  S(x, facts)", "  return facts", " return f"])


def _key_source(shape: Shape) -> str:
    """The source of ``make(C, tag, H)``, which gives the key function
    ``k(x, stack, hstack, keep)`` of a class ``C`` with this shape: the kept
    key when the stacks bind none of x's free names, else the tag and one
    entry per field, each child keyed through ``_KEY`` under the stacks its
    binders extend; a bound variable is its index.  With ``keep``, x keeps
    its key when the key does not depend on the stacks.  One frame per
    level."""
    fields, binders = shape.fields, _fo_binders(shape.fields)
    out = [
        "def make(C, tag, H):", ' S = C.__dict__["_facts"].__set__', " def k(x, stack, hstack, keep):",
        "  facts = x._facts",
        "  if facts is not None and facts[4] is not None and facts[1].isdisjoint(stack) and facts[0].isdisjoint(hstack):",
        "   return facts[4]",
        *(f"  v{j} = x.{f.name}" for j, f in enumerate(fields)),
    ]
    if binders:
        out.append(f"  fs = stack + ({_binders(binders, fields)},)")
    entries = ["tag"]
    for j, f in enumerate(fields):
        kind = f.kind
        if kind in _CHILD:
            hs = f"hstack + ({_binders(f.hyp_under, fields)},)" if f.hyp_under else "hstack"
            entries.append(f"_KEY[type(v{j})](v{j}, {'fs' if f.fo_under else 'stack'}, {hs}, keep)")
        elif kind is TERMS:
            entries.append(f"tuple([_KEY[type(u)](u, stack, (), keep) for u in v{j}])")
        elif kind in (FO_VAR, HYP):
            names, bound = ("stack", "bound") if kind is FO_VAR else ("hstack", "pb")
            out += [f"  if v{j} in {names}:", f"   return ({bound!r}, {names}[::-1].index(v{j}))"]
            entries.append(f"v{j}")
        elif kind is FO_BINDERS:
            entries.append(f"len(v{j})")
        elif kind is LITERAL:
            entries.append(f"v{j}")
    return "\n".join([
        *out, f"  key = ({', '.join(entries)}{',' * (len(entries) == 1)})", "  if keep:", "   facts = facts or _FACTS[C](x)",
        "   if facts[1].isdisjoint(stack) and facts[0].isdisjoint(hstack):", "    S(x, facts[:4] + (key,))",
        "  return key", " return k",
    ])


_SUFFIX = re.compile(r"^(.*?)(\d*)$")
_INAC_SPELLING = re.compile(r"V\d+")  # how the notation writes Inac: never a name


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Deterministic fresh name: smallest numeric suffix of the stem of base.

    The name is never spelled like an inaccessible constant: the stem ``V``
    becomes ``V_``.
    """
    stem = _SUFFIX.match(base).group(1) or "v"
    if base not in avoid and not _INAC_SPELLING.fullmatch(base):
        return base
    stem = "V_" if stem == "V" else stem
    n = 1
    while f"{stem}{n}" in avoid:
        n += 1
    return f"{stem}{n}"


# ---------------------------------------------------------------------------
# Substitution


def substitute(x: Tree, a: str, s: Tree) -> Tree:
    """Capture-avoiding substitution of s for the variable a: a term for a
    first-order variable, a proof for a hypothesis variable."""
    if isinstance(s, Term):
        return x if type(s) is Var and s.name == a else _SUBST[type(x)](x, {a: s}, {}, [])
    return _SUBST[type(x)](x, {}, {a: s}, [])


def substitute_many(x: Tree, env: dict[str, Tree]) -> Tree:
    """Simultaneous capture-avoiding substitution in both namespaces.

    Each replacement's type gives its namespace: a term replaces a
    first-order variable and a proof a hypothesis variable.  A binder named
    like a substituted variable of its namespace seals its scope from it.
    A binder free in a replacement in scope is renamed to the first fresh
    name avoiding those replacements' free names in its namespace, the free
    names of its scope and the substituted variables of its namespace; a
    first-order binder also avoids the node's other binders, and of two
    equal first-order binder names the inner one (the one the scope's
    occurrences refer to) is renamed first.  A sealed hypothesis binder is
    renamed too when it is free in the replacement of another variable
    free in its scope.
    """
    fo = {a: s for a, s in env.items() if isinstance(s, Term) and not (type(s) is Var and s.name == a)}
    hyp = {a: s for a, s in env.items() if not isinstance(s, Term)}
    return _SUBST[type(x)](x, fo, hyp, []) if fo or hyp else x


def _clash(cell: list, env: dict[str, Tree], henv: dict[str, Tree]) -> list:
    """Fills ``cell`` with the clash sets of the maps ``env`` and ``henv``:
    the free first-order names of all their replacements and the free
    hypothesis names of the proof replacements."""
    fo, hyp = [_names(s) for s in env.values()], [_names(s) for s in henv.values()]
    cell[:] = (frozenset().union(*[f[1] for f in fo + hyp]), frozenset().union(*[f[0] for f in hyp]))
    return cell


# x comes back as is when no substituted variable is free in it and none of
# its binders is named like a free name of a replacement, as no binder in it
# can then be renamed.  The clash sets are built at the first binder that
# needs them and shared by every node entered with the same maps.
_GUARD = """\
  hfree, ffree, fbound, hbound, _ = x._facts or _FACTS[type(x)](x)
  if ffree.isdisjoint(env) and hfree.isdisjoint(henv):
   if not (fbound or hbound):
    return x
   fc, hc = free or _clash(free, env, henv)
   if fbound.isdisjoint(fc) and hbound.isdisjoint(hc):
    return x"""


def _subst_source(shape: Shape) -> str:
    """The source of ``make(C, tag, H)``: the substitution function of a
    class ``C`` with this shape, ``H`` being its hypothesis variable.

    The function is straight-line code over the node's fields ``v0``,
    ``v1``, ...: the guard, the renaming of binders free in a replacement
    (only for a shape with binders), one call per child, and a rebuild only
    when something changed.  A variable is one dictionary lookup."""
    fields, binders = shape.fields, _fo_binders(shape.fields)
    kinds = [f.kind for f in fields]
    index = {f.name: j for j, f in enumerate(fields)}
    scope = [j for j, f in enumerate(fields) if f.fo_under]
    hyp_binders = [  # each hypothesis binder's index, with the indices of the fields it covers
        (i, [j for j, g in enumerate(fields) if b.name in g.hyp_under])
        for i, b in enumerate(fields) if b.kind is HYP_BINDER]
    out = ["def make(C, tag, H):", " def s(x, env, henv, free):"]
    for f in fields:
        if f.kind in (FO_VAR, HYP):  # the node is the occurrence
            env = "env" if f.kind is FO_VAR else "henv"
            return "\n".join([*out, f"  return {env}.get(x.{f.name}, x)", " return s"])
    if all(k not in _CHILD and k is not TERMS for k in kinds):
        return "\n".join([*out, "  return x", " return s"])
    out += [_GUARD, *(f"  v{j} = x.{f.name}" for j, f in enumerate(fields))]
    if binders or hyp_binders:
        out.append("  changed = False")
    if binders:
        out += [
            f"  names = [{_binders(binders, fields)}]",
            "  inner = env if env.keys().isdisjoint(names) else {a: t for a, t in env.items() if a not in names}",
            "  ci = (free or _clash(free, env, henv)) if inner is env else _clash([], inner, henv)",
            "  for k in range(len(names) - 1, -1, -1):",
            "   b = names[k]",
            "   if b in ci[0]:",
            f"    names[k] = fresh_name(b, ci[0].union(inner, names, {', '.join(f'free_vars(v{j})' for j in scope)}))",
            *(f"    v{j} = _SUBST[type(v{j})](v{j}, {{b: Var(names[k])}}, {{}}, [])" for j in scope),
            "    changed = True",
            "  if changed:",
        ]
        start = "0"  # where the next binder's names start in ``names``
        for b in binders:
            j = index[b]
            many = kinds[j] is FO_BINDERS
            end = f"{start} + len(v{j})" if many else f"{start} + 1"
            out.append(f"   v{j} = tuple(names[{start}:{end}])" if many else f"   v{j} = names[{start}]")
            start = end
    sealed = {j for _, over in hyp_binders for j in over if kinds[j] is PROOF}
    if hyp_binders:
        out += [*(f"  h{j} = henv" for j in sorted(sealed)), "  if henv:",
                "   hc = (free or _clash(free, env, henv))[1]"]
        for i, over in hyp_binders:
            out += [f"   if v{i} in henv:"]
            out += [f"    h{j} = {{a: t for a, t in h{j}.items() if a != v{i}}}" for j in over if j in sealed]
            # A sealed binder is renamed only if free in the replacement of
            # another variable that is free in its scope.
            in_scope = " or ".join(f"a in _names(v{j})[0]" for j in over)
            capture = f"any(v{i} in _names(t)[0] and ({in_scope}) for a, t in henv.items() if a != v{i})"
            out += [
                f"   if v{i} in hc and (v{i} not in henv or {capture}):",
                f"    b = fresh_name(v{i}, hc.union(henv, {', '.join(f'_names(v{j})[0]' for j in over)}))",
                *(f"    v{j} = _SUBST[type(v{j})](v{j}, {{}}, {{v{i}: H(b)}}, [])" for j in over),
                f"    v{i} = b",
                "    changed = True",
            ]
    same, args = ["not changed"] if binders or hyp_binders else [], []
    for j, f in enumerate(fields):
        kind = f.kind
        # A child entered with this node's maps shares its clash sets, one
        # entered with narrower maps gets a cell of its own.
        e, cell = ("inner", "ci") if f.fo_under else ("env", "free")
        h = f"h{j}" if j in sealed else "henv"
        if kind is PROOF and (e, h) == ("env", "henv"):  # past the guard, env or henv is not empty
            out.append(f"  w{j} = _SUBST[type(v{j})](v{j}, env, henv, free)")
        elif kind is PROOF:
            shared = cell if h == "henv" else f"{cell} if {h} is henv else []"
            out.append(f"  w{j} = _SUBST[type(v{j})](v{j}, {e}, {h}, {shared}) if {e} or {h} else v{j}")
        elif kind in _TREES:
            out.append(f"  w{j} = _SUBST[type(v{j})](v{j}, {e}, {{}}, [] if henv else {cell}) if {e} else v{j}")
        elif kind is TERMS:
            out += [
                f"  w{j} = v{j}",
                f"  if {e} and v{j}:",
                f"   t = [_SUBST[type(u)](u, {e}, {{}}, [] if henv else {cell}) for u in v{j}]",
                f"   if any(map(is_not, t, v{j})):",
                f"    w{j} = tuple(t)",
            ]
        else:
            args.append(f"v{j}")
            continue
        same.append(f"w{j} is v{j}")
        args.append(f"w{j}")
    out += [f"  if {' and '.join(same)}:", "   return x", f"  return C({', '.join(args)})", " return s"]
    return "\n".join(out)


class _Generated(dict):
    """A class-keyed table of generated functions, each made from its
    class's shape the first time the table is asked for the class.
    ``source(shape)`` gives the source of a factory ``make(C, tag, H)``: the
    function of class ``C`` with its tag and hypothesis variable.  Classes
    whose source is the same share one compiled factory."""

    def __init__(self, source: Callable[[Shape], str]):
        super().__init__()
        self.source = source

    def __missing__(self, cls: type):
        shape = SHAPES[cls]
        src = self.source(shape)
        if src not in _MAKERS:
            space: dict = {}
            exec(src, _GENERATED_NS, space)
            _MAKERS[src] = space["make"]
        f = self[cls] = _MAKERS[src](cls, shape.tag, _HYP_VARS.get(cls.__mro__[1]))
        return f


_MAKERS: dict[str, Callable] = {}  # generated source -> its compiled factory
# The facts function ``f(x)`` and the key function ``k(x, stack, hstack,
# keep)`` of each class (see ``_names`` and ``to_nameless``).
_FACTS: dict[type, Callable] = _Generated(_facts_source)
_KEY: dict[type, Callable] = _Generated(_key_source)


# A substitution function ``f(x, env, henv, free)``: ``env`` maps first-order
# variables to terms and ``henv`` hypothesis variables to proofs; only
# sub-proofs can hold hypotheses, so the other children are entered with
# ``env`` alone.  ``free`` is the cell of the maps' clash sets (see
# ``_clash``): empty until a binder first needs them, then kept for every
# node entered with the same maps.  Each child is entered through this
# table, so a nesting level costs one frame.
_SUBST: dict[type, Callable] = _Generated(_subst_source)
_GENERATED_NS = dict(  # the generated code's globals
    _SUBST=_SUBST, _FACTS=_FACTS, _KEY=_KEY, _clash=_clash, _names=_names, _join=_join, _NONE=_NONE,
    _CLOSED=_CLOSED, free_vars=free_vars, fresh_name=fresh_name, Var=Var, is_not=is_not,
)


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(x: Tree, y: Tree) -> bool:
    """Equality up to consistent renaming of bound variables.

    Kept keys are read but the keys compared are not kept: keeping them
    means building the binding facts of every compared node, which costs
    type checking more than the repeated comparisons save."""
    return x is y or _KEY[type(x)](x, (), (), False) == _KEY[type(y)](y, (), (), False)


# ---------------------------------------------------------------------------
# Convenience constructors used across the package


def iff(l: Formula, r: Formula) -> Formula:
    return And(Imp(l, r), Imp(r, l))


def succ_term(t: Term) -> Term:
    return UnionT(PairT(t, PairT(t, t)))


NUMERAL_BOUND = 10**4  # far above any numeral the package writes; a numeral is n nested successors


def numeral(n: int) -> Term:
    if n > NUMERAL_BOUND:
        raise ValueError(f"numeral {n} is above the bound {NUMERAL_BOUND}")
    t: Term = Empty()
    for _ in range(n):
        t = succ_term(t)
    return t


def forall_many(names: Iterator[str] | tuple[str, ...] | list[str], body: Formula) -> Formula:
    out = body
    for a in reversed(tuple(names)):
        out = Forall(a, out)
    return out


def v_index(i: int) -> Term:
    """V_i with the convention that V_0 abbreviates omega."""
    if i < 0:
        raise ValueError("negative inaccessible index")
    return Omega() if i == 0 else Inac(i)
