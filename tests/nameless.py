"""Oracle operations on the nameless (de Bruijn) view of terms and formulas.

The view itself, ``syntax.to_nameless``, is the kernel's one binding-invariant
key: ``alpha_eq`` compares it, and proof keys (``proof_ops.canon``) and the
realizability memo keys are built from it.  This module adds what only the
oracle tests need: free variables, substitution and read-back computed on the
nameless tuples, independently of the named kernel operations, so the kernel's
``free_vars`` and ``substitute`` can be checked against them.
"""

from __future__ import annotations

from izf import syntax as s

Nameless = tuple


def nameless_free_vars(n: Nameless) -> frozenset[str]:
    """Occurrence scan over a nameless tree."""
    tag = n[0]
    if tag == "free":
        return frozenset((n[1],))
    if tag in ("bound", "empty", "omega", "inac", "nwf", "nameref", "bot"):
        return frozenset()
    if tag in ("sep", "repl"):
        out = nameless_free_vars(n[2]) | nameless_free_vars(n[3])
        for u in n[4]:
            out |= nameless_free_vars(u)
        return out
    out: frozenset[str] = frozenset()
    for child in n[1:]:
        if isinstance(child, tuple) and child and isinstance(child[0], str):
            out |= nameless_free_vars(child)
    return out


def nameless_subst(n: Nameless, a: str, sub: Nameless) -> Nameless:
    """Substitute a closed-under-levels tree for the free name ``a``.

    The substituted tree must not itself contain bound levels (callers pass
    to_nameless of a standalone term), so no shifting is required; this is
    exactly why the nameless route makes a trustworthy oracle.
    """
    tag = n[0]
    if tag == "free":
        return sub if n[1] == a else n
    if tag in ("bound", "empty", "omega", "inac", "nwf", "nameref", "bot"):
        return n
    if tag in ("sep", "repl"):
        return (
            tag,
            n[1],
            nameless_subst(n[2], a, sub),
            nameless_subst(n[3], a, sub),
            tuple(nameless_subst(u, a, sub) for u in n[4]),
        )
    head = [tag]
    for child in n[1:]:
        head.append(nameless_subst(child, a, sub))
    return tuple(head)


def nameless_subst_many(n: Nameless, fo: dict[str, Nameless], hyp: dict[str, Nameless]) -> Nameless:
    """Simultaneous substitution on the nameless view of a term, formula or
    proof of either calculus: ``fo`` maps free first-order names and ``hyp``
    free hypothesis names to the views of standalone replacements.

    A bound occurrence is an index, so no binder can capture a replacement
    or needs renaming; a replacement's own indices count only its own
    binders, so nothing needs shifting either.
    """
    tag = n[0]
    if tag == "free":
        return fo.get(n[1], n)
    if tag == "pf":
        return hyp.get(n[1], n)
    out = [tag]
    for v in n[1:]:
        if isinstance(v, tuple) and v and isinstance(v[0], str):  # a child
            v = nameless_subst_many(v, fo, hyp)
        elif isinstance(v, tuple):  # a term tuple
            v = tuple(nameless_subst_many(u, fo, hyp) for u in v)
        out.append(v)  # else a binder count or a literal
    return tuple(out)


def readback(n: Nameless, stack: tuple[str, ...] = ()) -> s.Tree:
    """Rebuild a named tree with canonical binder names x0, x1, ..."""

    def bind(k: int) -> tuple[str, ...]:
        return tuple(f"x{len(stack) + i}" for i in range(k))

    tag = n[0]
    if tag == "free":
        return s.Var(n[1])
    if tag == "bound":
        return s.Var(stack[len(stack) - 1 - n[1]])
    if tag == "empty":
        return s.Empty()
    if tag == "omega":
        return s.Omega()
    if tag == "inac":
        return s.Inac(n[1])
    if tag == "nwf":
        return s.NwfConst(n[1])
    if tag == "nameref":
        return s.NameRef(n[1])
    if tag == "pair":
        return s.PairT(readback(n[1], stack), readback(n[2], stack))
    if tag == "union":
        return s.UnionT(readback(n[1], stack))
    if tag == "power":
        return s.PowerT(readback(n[1], stack))
    if tag == "sep":
        names = bind(1 + n[1])
        return s.Sep(
            names[0],
            names[1:],
            readback(n[2], stack + names),
            readback(n[3], stack),
            tuple(readback(u, stack) for u in n[4]),
        )
    if tag == "repl":
        names = bind(2 + n[1])
        return s.Repl(
            names[0],
            names[1],
            names[2:],
            readback(n[2], stack + names),
            readback(n[3], stack),
            tuple(readback(u, stack) for u in n[4]),
        )
    if tag == "bot":
        return s.Bottom()
    if tag in ("memi", "mem", "eq"):
        cls = {"memi": s.MemI, "mem": s.Mem, "eq": s.Eq}[tag]
        return cls(readback(n[1], stack), readback(n[2], stack))
    if tag in ("and", "or", "imp"):
        cls = {"and": s.And, "or": s.Or, "imp": s.Imp}[tag]
        return cls(readback(n[1], stack), readback(n[2], stack))
    if tag in ("forall", "exists"):
        (name,) = bind(1)
        cls = {"forall": s.Forall, "exists": s.Exists}[tag]
        return cls(name, readback(n[1], stack + (name,)))
    raise ValueError(f"bad nameless tag: {tag}")
