import itertools
import re
from collections import Counter

import numpy as np
import pytest

import kernel_reference
from sqw import linalg, s3world
from sqw.permworld import (
    IDENTITY,
    Perm4,
    all_elements,
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
    with pytest.raises(ValueError):
        Perm4((1, 1, 3, 4))


def test_composition_is_left_to_right():
    p = Perm4((2, 1, 3, 4))  # swap 1,2
    q = Perm4((3, 2, 1, 4))  # swap 1,3
    assert (p * q)(1) == q(p(1))


def test_perm_matrix_homomorphism_all_pairs():
    elements = all_elements()
    assert len(elements) == 24
    for p in elements:
        for q in elements:
            assert np.array_equal(perm_matrix(p * q), perm_matrix(p) @ perm_matrix(q))


def test_perm_matrix_named_images():
    assert np.array_equal(perm_matrix(IDENTITY), np.eye(4, dtype=complex))
    # the 3-cycle 1 -> 2 -> 3 -> 1 is the cyclic-shift generator
    assert np.array_equal(perm_matrix(Perm4((2, 3, 1, 4))), s3world.A)
    assert np.array_equal(perm_matrix(Perm4((2, 1, 3, 4))), s3world.H1)


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


def test_generate_matches_perm4_closure():
    # Against Perm4 products, and against the frontier closure and enumeration it replaced.
    elements = all_elements()
    sets = [()] + [(g,) for g in elements] + list(itertools.combinations(elements, 2))
    assert len(sets) == 301
    for gens in sets:
        assert tuple(generate(gens)) == _perm_closure(gens)
        assert generate(gens) == kernel_reference.generate(gens)
    enumerate_subgroups.cache_clear()
    assert enumerate_subgroups() == kernel_reference.enumerate_subgroups()


def test_order_equals_the_power_loop():
    for p in all_elements():
        assert p.order() == kernel_reference.order(p)


def test_perm_matrix_equals_the_written_matrix():
    for p in all_elements():
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
    assert stabilizer(4) in enumerate_subgroups()
    with pytest.raises(ValueError):
        stabilizer(5)


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
    generator_set = {
        m.real.astype(int).tobytes()
        for m in (linalg.UNIT, s3world.H1, s3world.H2, s3world.H3, s3world.A, s3world.B)
    }
    stab_set = {
        perm_matrix(p).real.astype(int).tobytes() for p in stabilizer(4)
    }
    assert stab_set == generator_set


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
