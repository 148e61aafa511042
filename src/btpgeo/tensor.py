"""Sparse tensors as maps {index tuple: nonzero entry}, and einsum over them.

A table of any rank is held as the dict of its nonzero entries, keyed by
index tuples; an absent key is a zero.  ``ein`` is ``numpy.einsum`` on such
maps for a spec with an explicit output (``"ab,bc->ac"``) whose operands
repeat no index: each row of bound indices, with its product, joins the next
operand's agreeing entries, and the products that land on one output key are
summed, the cancelled ones dropped.  ``Map`` is the result type, closed under
the sums, negation and scalar multiples that table formulas take of einsum
results.  Entries may be any scalars with ``+``, ``*`` and ``bool``:
``ExactComplex`` on the chart side, ``Fraction`` or ``int`` too.  numpy is not
imported.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter


class Map(dict):
    """A table {index tuple: nonzero entry} under sums, negation and scalar
    multiples (a scalar on either side)."""

    __neg__ = lambda self: Map({k: -v for k, v in self.items()})       # noqa: E731
    __sub__ = lambda self, other: self + -other                          # noqa: E731
    __mul__ = lambda self, c: Map({k: v * c for k, v in self.items()})   # noqa: E731
    __rmul__ = __mul__

    def __add__(self, other):
        out = Map(self)
        for k, v in other.items():
            v = out.pop(k) + v if k in out else v
            if v:
                out[k] = v
        return out


def conj(t) -> Map:
    """The entrywise conjugate of a table."""
    return Map({k: c.conjugate() for k, c in t.items()})


def ein(spec: str, first, *ops) -> Map:
    """numpy.einsum on maps, none with a repeated index: each row of bound
    indices, with its product, joins the next operand's agreeing entries."""
    steps, out = plan(spec)
    rows = first.items()
    for (at, old, new), op in zip(steps, ops):
        index = {}
        for k, v in op.items():
            index.setdefault(tuple(k[p] for p in old), []).append(
                (tuple(k[p] for p in new), v))
        rows = [(r + k, x * v) for r, x in rows
                for k, v in index.get(tuple(r[p] for p in at), ())]
    acc = {}
    for r, x in rows:
        key = out(r)
        acc[key] = acc[key] + x if key in acc else x
    return Map({k: v for k, v in acc.items() if v})


@cache
def plan(spec: str):
    """How ``ein`` joins a spec's operands: per operand after the first, the row
    places of its bound indices, their places in it and the places of its new
    ones; then the getter of the output key, an index tuple, from a row."""
    first, *inputs = spec.replace("->", ",").split(",")
    row, steps = first, []
    for op in inputs[:-1]:
        old = [p for p, c in enumerate(op) if c in row]
        steps.append(([row.index(op[p]) for p in old], old,
                      [p for p, c in enumerate(op) if c not in row]))
        row += "".join(c for c in op if c not in row)
    places = [row.index(c) for c in inputs[-1]]
    return steps, (itemgetter(*places) if len(places) > 1
                   else lambda r: tuple(r[p] for p in places))
