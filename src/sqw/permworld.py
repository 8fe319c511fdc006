"""The symmetric group on four points.

Exhaustive subgroup enumeration, point stabilizers and the permutation
matrix representation whose point-4 stabilizer realizes exactly the swap
and cycle observables of the restricted two-qubit family. ``S3_GENERATORS``
is the one written table of those observables; ``s3world`` builds its
matrices from it. Only ``perm_matrix`` uses numpy, and imports it when
called, so ``sqw check s4`` runs without numpy.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import _validated_make

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
    integer and ``ValueError`` for images that are not a permutation.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, images: tuple[int, int, int, int]):
        images = tuple(map(operator.index, images))
        if sorted(images) != list(POINTS):
            raise ValueError(f"not a permutation of 1..4: {images}")
        return tuple.__new__(cls, (images,))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm4") -> "Perm4":
        if not isinstance(other, Perm4):
            raise TypeError(f"operands must be Perm4, got {other!r}")
        return Perm4(tuple(other.images[i - 1] for i in self.images))

    def order(self) -> int:
        return len(generate((self,)))


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


def all_elements() -> tuple[Perm4, ...]:
    """All 24 permutations in canonical (lexicographic) order."""
    return tuple(Perm4(images) for images in itertools.permutations(POINTS))


class Subgroup(tuple):
    """A subgroup as its sorted element tuple (canonical identity)."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self)


@lru_cache(maxsize=1)
def _table() -> tuple[tuple[Perm4, ...], dict[Perm4, int], tuple[tuple[int, ...], ...]]:
    # The 24 elements in canonical order, the index of each, and the
    # multiplication table on indices: product[i][j] indexes elements[i] *
    # elements[j]. Index order is element order, and IDENTITY has index 0.
    elements = all_elements()
    index = {p: i for i, p in enumerate(elements)}
    product = tuple(tuple(index[p * q] for q in elements) for p in elements)
    return elements, index, product


def generate(generators) -> Subgroup:
    """Closure of ``Perm4`` generators under composition; other items raise ``TypeError``."""
    elements, index, product = _table()
    gens = []
    for g in generators:
        if not isinstance(g, Perm4):
            raise TypeError(f"generators must be Perm4, got {g!r}")
        gens.append(index[g])
    found, queue = {0}, [0]
    for x in queue:  # the queue grows while it is read: every element found is multiplied
        for g in gens:
            y = product[x][g]
            if y not in found:
                found.add(y)
                queue.append(y)
    return Subgroup(tuple(elements[i] for i in sorted(found)))


@lru_cache(maxsize=1)
def enumerate_subgroups() -> tuple[Subgroup, ...]:
    """All subgroups, by closing every generator set of size at most two.

    Every subgroup of the group is generated by at most two elements, so
    the sweep is exhaustive; the expected count (30) is asserted by tests.
    Deterministic order: by subgroup order, then element tuple.
    """
    elements = all_elements()
    found = {generate(s) for k in (0, 1, 2) for s in itertools.combinations(elements, k)}
    return tuple(sorted(found, key=lambda s: (s.order, s)))


def stabilizer(point: int) -> Subgroup:
    """The six permutations fixing one point; a non-integer raises ``TypeError``."""
    point = operator.index(point)
    if point not in POINTS:
        raise ValueError(f"point must be in 1..4, got {point}")
    return Subgroup(tuple(p for p in all_elements() if p(point) == point))


def perm_matrix(p: Perm4) -> Mat4:
    """Rows p(1), ..., p(4) of the identity: a one at (i, p(i)), multiplicative in composition."""
    from .linalg import UNIT

    return UNIT[[p(i) - 1 for i in POINTS]]


def classify(subgroup: Subgroup) -> str:
    """Isomorphism label from the order and the element orders.

    Order 4 splits into cyclic C4 versus the Klein group V4; order 6 is S3
    whenever no element of order 6 exists (always the case here). Larger
    orders are unambiguous inside this group: D4, A4 and the full group.
    """
    n = subgroup.order
    if n in (1, 2, 3):
        return f"C{n}"
    orders = {p.order() for p in subgroup}
    if n == 4:
        return "C4" if 4 in orders else "V4"
    if n == 6:
        return "C6" if 6 in orders else "S3"
    return {8: "D4", 12: "A4", 24: "S4"}[n]
