import itertools
import re
from collections import Counter

import numpy as np
import pytest

import kernel_reference
from sqw import linalg, s3world
from sqw.errors import PreconditionViolated
from sqw.permworld import (
    IDENTITY,
    S3_GENERATORS,
    Perm4,
    Subgroup,
    _table,
    classify,
    enumerate_subgroups,
    generate,
    perm_matrix,
    stabilizer,
)


def test_identity_and_inverse():
    p = Perm4((2, 3, 1, 4))
    assert p(1) == 2 and p(4) == 4
    assert p * p * p == IDENTITY
    assert p.order() == 3


def test_rejects_non_bijection():
    # The violation counts the places where the sorted images differ from 1..4.
    cases = [((1, 1, 3, 4), 1), ((1, 2, 3, 5), 1), ((1, 2, 3), 1), ((2, 2, 2, 2), 3), ((), 4)]
    for images, places in cases:
        with pytest.raises(PreconditionViolated, match=r"^not a permutation of 1\.\.4: ") as info:
            Perm4(images)
        assert isinstance(info.value, ValueError) and info.value.violation == places


def test_composition_is_left_to_right():
    p = Perm4((2, 1, 3, 4))  # swap 1,2
    q = Perm4((3, 2, 1, 4))  # swap 1,3
    assert (p * q)(1) == q(p(1))


def test_perm_matrix_homomorphism_all_pairs():
    elements = kernel_reference.all_elements()
    assert len(elements) == 24
    for p in elements:
        for q in elements:
            assert np.array_equal(perm_matrix(p * q), perm_matrix(p) @ perm_matrix(q))


def test_perm_matrix_named_images():
    written = kernel_reference.S3_MATRICES
    assert np.array_equal(perm_matrix(IDENTITY), np.eye(4, dtype=complex))
    assert list(S3_GENERATORS) == list(written)
    for name, m in written.items():
        assert np.array_equal(perm_matrix(S3_GENERATORS[name]), m)
        assert np.array_equal(getattr(s3world, name), m)


def test_enumeration_counts():
    subgroups = enumerate_subgroups()
    assert len(subgroups) == 30
    histogram = Counter(s.order for s in subgroups)
    assert histogram == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    assert all(24 % s.order == 0 for s in subgroups)
    orders = [s.order for s in subgroups]
    assert orders[0] == 1 and orders[-1] == 24


def test_enumeration_deterministic():
    first = enumerate_subgroups()
    enumerate_subgroups.cache_clear()
    second = enumerate_subgroups()
    assert first == second


def _perm_closure(generators):
    """Closure by Perm4 products: the reference for the indexed table."""
    elements, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        frontier = [x * g for x in frontier for g in generators]
        frontier = [y for y in dict.fromkeys(frontier) if y not in elements]
        elements.update(frontier)
    return tuple(sorted(elements))


def _generator_sets():
    """Every generator set of size at most two: 1 + 24 + 276 of them."""
    elements = kernel_reference.all_elements()
    return [()] + [(g,) for g in elements] + list(itertools.combinations(elements, 2))


def test_generate_matches_perm4_closure():
    # Against Perm4 products, and against the frontier closure it replaced.
    sets = _generator_sets()
    assert len(sets) == 301
    for gens in sets:
        assert tuple(generate(gens)) == _perm_closure(gens)
        assert generate(gens) == kernel_reference.generate(gens)


def test_table_agrees_with_perm4_products():
    # The table composes image tuples and Perm4.__mul__ composes points: two routes.
    elements, index, product = _table()
    assert elements == kernel_reference.all_elements() and elements[0] == IDENTITY
    assert index == {p: i for i, p in enumerate(elements)}
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            assert elements[product[i][j]] == p * q
    assert all(sorted(row) == list(range(24)) for row in product)
    assert all(sorted(column) == list(range(24)) for column in zip(*product))


def test_cold_enumeration_matches_both_references():
    # From an empty table: the frontier enumeration, and all 301 closures by Perm4 products.
    _table.cache_clear()
    enumerate_subgroups.cache_clear()
    subgroups = enumerate_subgroups()
    assert subgroups == kernel_reference.enumerate_subgroups()
    closures = {_perm_closure(gens) for gens in _generator_sets()}
    assert list(subgroups) == sorted(closures, key=lambda s: (len(s), s))
    assert all(type(s) is Subgroup for s in subgroups)
    # No element of S4 has order 6, so the reference's C6 arm never decides a label.
    labels = [kernel_reference.classify(s) for s in subgroups]
    assert [classify(s) for s in subgroups] == labels and "C6" not in labels


def test_order_equals_the_power_loop():
    for p in kernel_reference.all_elements():
        assert p.order() == kernel_reference.order(p)


def test_perm_matrix_equals_the_written_matrix():
    for p in kernel_reference.all_elements():
        got, want = perm_matrix(p), kernel_reference.perm_matrix(p)
        assert got.tobytes() == want.tobytes()
        assert got.dtype == want.dtype and got.flags.writeable
        got[0, 0] = 2.0  # a fresh array each call: the identity is untouched
    assert np.array_equal(linalg.UNIT, np.eye(4))


@pytest.mark.parametrize("item", [(2, 1, 3, 4), [2, 1, 3, 4], "ab", None, 3])
def test_generate_rejects_a_non_perm4(item):
    with pytest.raises(TypeError, match=re.escape(f"generators must be Perm4, got {item!r}")):
        generate([Perm4((2, 1, 3, 4)), item])


def test_stabilizers():
    for point in (1, 2, 3, 4):
        stab = stabilizer(point)
        assert stab.order == 6
        assert all(p(point) == point for p in stab)
        assert classify(stab) == "S3"
        assert type(stab) is Subgroup and stab == kernel_reference.stabilizer(point)
    assert stabilizer(4) in enumerate_subgroups()
    # The violation is the distance from the point to 1..4.
    for point, distance in [(5, 1), (0, 1), (-3, 4), (9, 5)]:
        with pytest.raises(PreconditionViolated, match=r"^point must be in 1\.\.4, got ") as info:
            stabilizer(point)
        assert isinstance(info.value, ValueError) and info.value.violation == distance


def test_stabilizer_and_generate_read_integer_input():
    assert stabilizer(np.int64(4)) == stabilizer(4)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        stabilizer(4.0)
    assert generate([Perm4([2, 1, 3, 4])]) == generate((Perm4((2, 1, 3, 4)),))


@pytest.mark.parametrize("other", [(2, 1, 3, 4), 3, None], ids=["tuple", "int", "none"])
def test_product_with_a_non_permutation_raises_type_error(other):
    # Perm4 is a tuple, so an unchecked product would read other.images or repeat.
    with pytest.raises(TypeError, match=r"^operands must be Perm4, got "):
        Perm4((1, 2, 3, 4)) * other


def test_stabilizer_of_four_realizes_the_generator_set():
    written = kernel_reference.S3_MATRICES
    generator_set = {
        m.real.astype(int).tobytes() for m in (linalg.UNIT, *written.values())
    }
    stab_set = {
        perm_matrix(p).real.astype(int).tobytes() for p in stabilizer(4)
    }
    assert stab_set == generator_set
    assert set(stabilizer(4)) == {IDENTITY, *S3_GENERATORS.values()}
    assert all(np.array_equal(getattr(s3world, name), m) for name, m in written.items())


def test_classification_labels():
    assert classify(generate(())) == "C1"
    assert classify(generate((Perm4((2, 1, 3, 4)),))) == "C2"
    assert classify(generate((Perm4((2, 3, 1, 4)),))) == "C3"
    assert classify(generate((Perm4((2, 3, 4, 1)),))) == "C4"
    klein = generate((Perm4((2, 1, 4, 3)), Perm4((3, 4, 1, 2))))
    assert classify(klein) == "V4"
    dihedral = generate((Perm4((2, 3, 4, 1)), Perm4((3, 2, 1, 4))))
    assert classify(dihedral) == "D4"
    alternating = generate((Perm4((2, 3, 1, 4)), Perm4((2, 1, 4, 3))))
    assert classify(alternating) == "A4"
    full = generate((Perm4((2, 1, 3, 4)), Perm4((2, 3, 4, 1))))
    assert classify(full) == "S4"


def test_stabilizer_matrix_span_has_dimension_five():
    rows = np.array([perm_matrix(p).flatten() for p in stabilizer(4)])
    assert np.linalg.matrix_rank(rows) == 5
