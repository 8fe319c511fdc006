"""The symmetric group on four points.

Exhaustive subgroup enumeration, point stabilizers and the permutation
matrix representation whose point-4 stabilizer realizes exactly the swap
and cycle observables of the restricted two-qubit family. ``S3_GENERATORS``
is the one written table of those observables; ``s3world`` builds its
matrices from it with ``perm_matrix``, and ``report`` names their products
by it. The engine computes on element indices and int bitsets of them. Only
``perm_matrix`` uses numpy, and imports it when called, so ``sqw check s4``
runs without numpy.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import PreconditionViolated, _validated_make

if TYPE_CHECKING:
    from .linalg import Mat4

POINTS = (1, 2, 3, 4)


class _Images(NamedTuple):
    images: tuple[int, int, int, int]


class Perm4(_Images):
    """A permutation of {1, 2, 3, 4}, stored as the image tuple.

    Composition is left-to-right: ``(p * q)(i) == q(p(i))``, which makes
    ``perm_matrix`` a homomorphism under ordinary matrix multiplication. A
    NamedTuple of one field, so permutations sort by their images; the
    constructor, and ``_make`` and ``_replace`` through it, store the images
    as a tuple of ints, raise ``TypeError`` for an image that is not an
    integer and ``PreconditionViolated`` for images that are not a
    permutation, its violation the places where sorted images and 1..4 differ.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, images: tuple[int, int, int, int]):
        images = tuple(map(operator.index, images))
        if sorted(images) != list(POINTS):
            bad = sum(a != b for a, b in itertools.zip_longest(sorted(images), POINTS))
            raise PreconditionViolated(f"not a permutation of 1..4: {images}", float(bad))
        return tuple.__new__(cls, (images,))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm4") -> "Perm4":
        if not isinstance(other, Perm4):
            raise TypeError(f"operands must be Perm4, got {other!r}")
        return Perm4(tuple(other.images[i - 1] for i in self.images))

    def order(self) -> int:
        return _closure((_table()[1][self],)).bit_count()


IDENTITY = Perm4((1, 2, 3, 4))
#: The five other permutations fixing point 4: the swaps of points (1, 2),
#: (1, 3) and (2, 3), and the cyclic shifts A: 1 -> 2 -> 3 -> 1 and B = A^-1.
S3_GENERATORS = {
    "H1": Perm4((2, 1, 3, 4)),
    "H2": Perm4((3, 2, 1, 4)),
    "H3": Perm4((1, 3, 2, 4)),
    "A": Perm4((2, 3, 1, 4)),
    "B": Perm4((3, 1, 2, 4)),
}


class Subgroup(tuple):
    """A subgroup as its sorted element tuple (canonical identity)."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self)


@lru_cache(maxsize=1)
def _table() -> tuple[tuple[Perm4, ...], dict[Perm4, int], tuple[tuple[int, ...], ...]]:
    # The 24 elements in lexicographic order, the index of each, and the
    # multiplication table on indices: product[i][j] indexes elements[i] *
    # elements[j]. Index order is element order, and IDENTITY has index 0.
    images = tuple(itertools.permutations(POINTS))
    at = {t: i for i, t in enumerate(images)}.__getitem__
    compose = (operator.itemgetter(*(i - 1 for i in p)) for p in images)  # q -> p * q
    product = tuple(tuple(map(at, map(f, images))) for f in compose)
    elements = tuple(map(Perm4, images))
    return elements, {p: i for i, p in enumerate(elements)}, product


def _closure(gens) -> int:
    # The subgroup generated by the element indices gens, as a bitset of indices.
    product = _table()[2]
    found, queue = 1, [0]
    for x in queue:  # the queue grows while it is read: every element found is multiplied
        row = product[x]
        for g in gens:
            y = row[g]
            if not found >> y & 1:
                found |= 1 << y
                queue.append(y)
    return found


def _subgroup(bits: int) -> Subgroup:
    return Subgroup(p for i, p in enumerate(_table()[0]) if bits >> i & 1)


def generate(generators) -> Subgroup:
    """Closure of ``Perm4`` generators under composition; other items raise ``TypeError``."""
    index = _table()[1]
    gens = []
    for g in generators:
        if not isinstance(g, Perm4):
            raise TypeError(f"generators must be Perm4, got {g!r}")
        gens.append(index[g])
    return _subgroup(_closure(gens))


@lru_cache(maxsize=1)
def enumerate_subgroups() -> tuple[Subgroup, ...]:
    """All subgroups: the cyclic subgroups and the joins of two of them.

    Every subgroup of the group is generated by at most two elements, so
    the sweep is exhaustive; the expected count (30) is asserted by tests.
    Deterministic order: by subgroup order, then element tuple.
    """
    cyclic = [_closure((g,)) for g in range(24)]
    joins = dict(zip(cyclic, cyclic))  # a union of two cyclic subgroups -> their join
    for g, h in itertools.combinations(range(24), 2):
        union = cyclic[g] | cyclic[h]
        if union not in joins:
            joins[union] = _closure((g, h))
    return tuple(sorted(map(_subgroup, set(joins.values())), key=lambda s: (s.order, s)))


def stabilizer(point: int) -> Subgroup:
    """The six permutations fixing one point; a non-integer raises ``TypeError``, and a
    point outside 1..4 ``PreconditionViolated``, its distance from 1..4 the violation."""
    point = operator.index(point)
    if point not in POINTS:
        off = float(max(1 - point, point - 4))
        raise PreconditionViolated(f"point must be in 1..4, got {point}", off)
    return Subgroup(p for p in _table()[0] if p(point) == point)


def perm_matrix(p: Perm4) -> Mat4:
    """A new complex array with a one at (i, p(i)), multiplicative in composition."""
    import numpy as np

    return np.array([[int(p(i) == j) for j in POINTS] for i in POINTS], dtype=complex)


def classify(subgroup: Subgroup) -> str:
    """Isomorphism label from the order and the element orders.

    Order 4 splits into cyclic C4 versus the Klein group V4. Larger orders
    are unambiguous inside this group: S3 (no element has order 6), D4, A4
    and the full group.
    """
    n = subgroup.order
    if n in (1, 2, 3):
        return f"C{n}"
    if n == 4:
        return "C4" if any(p.order() == 4 for p in subgroup) else "V4"
    return {6: "S3", 8: "D4", 12: "A4", 24: "S4"}[n]
