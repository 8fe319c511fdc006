"""Value records are NamedTuples or tuple subclasses, immutable and validated.

Every record rejects attribute assignment and survives a pickle round trip.
The records that validate (``S3Coeffs``, ``XCoeffs``, ``Perm4``,
``DensityMatrix``) raise from ``_make`` and ``_replace`` exactly what their
constructor raises: NamedTuple's own ``_make`` fills the tuple without
calling ``__new__``. A ``DensityMatrix`` is built from its matrix alone, so
its decomposition is always ``herm_eigen``'s.
"""

import copy
import math
import pickle

import numpy as np
import pytest

import kernel_reference
from draws import generic_matrices, valid_matrices
from sqw import twoqubit
from sqw.errors import InvalidState, NotHermitian, NotPSD
from sqw.linalg import herm_eigen
from sqw.permworld import IDENTITY, Perm4, stabilizer
from sqw.report import CheckResult, Report
from sqw.s3world import MeasurementAxis, S3Coeffs, assemble_s3, gain, mean_values
from sqw.twoqubit import DensityMatrix, concurrence_oracle, validate_density
from sqw.xworld import XCoeffs

ZERO3 = (0.0, 0.0, 0.0)


def _records():
    coeffs = S3Coeffs(1.0, -1 / 6, -1 / 6, -1 / 6)
    dm = validate_density(assemble_s3(coeffs))
    check = CheckResult("H1*H1 = 1", True, 0.0)
    return {
        "S3Coeffs": coeffs,
        "GainResult": gain(MeasurementAxis.H2, 0.5),
        "MeanValues": mean_values(coeffs),
        "DensityMatrix": dm,
        "ConcurrenceReport": concurrence_oracle(dm),
        "XCoeffs": XCoeffs(0.25, (0.5, 0.0, 0.0), (0.0, 0.25, 0.0)),
        "CheckResult": check,
        "Report": Report((check, CheckResult("A*B = 1", False, 0.5))),
        "Perm4": Perm4((2, 3, 1, 4)),
        "Subgroup": stabilizer(4),
    }


RECORDS = _records()
#: Attributes that are not NamedTuple fields.
PROPERTIES = {
    "XCoeffs": ("p_norm", "s_norm"), "Report": ("all_pass",),
    "Subgroup": ("order",),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_tuple_of_its_type(name):
    record = RECORDS[name]
    assert type(record).__name__ == name and isinstance(record, tuple)


@pytest.mark.parametrize("name", RECORDS)
def test_attribute_assignment_raises(name):
    record = RECORDS[name]
    names = (*getattr(record, "_fields", ()), *PROPERTIES.get(name, ()), "extra")
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(record, attr, 0.0)
    assert not hasattr(record, "__dict__")


def _same(a, b) -> bool:
    # Field by field; an array field is compared with array_equal.
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name]
    assert _same(pickle.loads(pickle.dumps(record)), record)


def test_records_compare_equal_to_plain_tuples():
    assert S3Coeffs(1.0, -0.5, 0.0, 0.0) == (1.0, -0.5, 0.0, 0.0)
    assert RECORDS["Perm4"] == ((2, 3, 1, 4),)
    assert RECORDS["Subgroup"] == tuple(RECORDS["Subgroup"])
    assert RECORDS["Report"].all_pass is False and Report().all_pass is True


def _raised(build):
    """Class, message and violation of what ``build()`` raises."""
    with pytest.raises((ValueError, TypeError)) as info:
        build()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "violation", None)


# (valid record, replacement that makes it invalid)
INVALID_REPLACEMENTS = [
    (S3Coeffs(1.0, -0.5, 0.0, 0.0), {"a": 5.0}),
    (S3Coeffs(1.0, -0.5, 0.0, 0.0), {"b": math.nan}),
    (S3Coeffs(1.0, -0.5, 0.0, 0.0), {"c": math.inf, "d": -math.inf}),
    (XCoeffs(0.0, ZERO3, ZERO3), {"p": (0.0, 0.0)}),
    (XCoeffs(0.0, ZERO3, ZERO3), {"s": (0.0, 0.0, 0.0, 0.3)}),
    (XCoeffs(0.0, ZERO3, ZERO3), {"e": math.nan, "s": (math.inf, 0.0, 0.0)}),
    (Perm4((1, 2, 3, 4)), {"images": (1, 1, 3, 4)}),
    (Perm4((1, 2, 3, 4)), {"images": (1, 2, 3, 5)}),
    # A complex value raises TypeError, even where the imaginary parts cancel.
    (S3Coeffs(1.0, -0.5, 0.0, 0.0), {"b": -0.25 + 0.1j, "c": -0.25 - 0.1j}),
    (S3Coeffs(1.0, -0.5, 0.0, 0.0), {"d": 0j}),
    (XCoeffs(0.0, ZERO3, ZERO3), {"p": (0.1j, 0, 0)}),
]


@pytest.mark.parametrize("record, change", INVALID_REPLACEMENTS)
def test_replace_and_make_validate_like_the_constructor(record, change):
    cls = type(record)
    values = {**record._asdict(), **change}
    expected = _raised(lambda: cls(**values))
    assert expected[0] in (ValueError, TypeError) or issubclass(expected[0], InvalidState)
    assert _raised(lambda: record._replace(**change)) == expected
    assert _raised(lambda: cls._make(values.values())) == expected


@pytest.mark.parametrize("record", [S3Coeffs(1.0, -0.5, 0.0, 0.0), XCoeffs(0.0, ZERO3, ZERO3),
                                    Perm4((2, 1, 3, 4))])
def test_valid_replace_and_make_keep_the_type(record):
    cls = type(record)
    assert type(record._replace()) is cls and record._replace() == record
    assert type(cls._make(record)) is cls and cls._make(record) == record


def _decomposed(dm, m) -> bool:
    # A read-only copy of m, with herm_eigen(m)'s bytes as its decomposition.
    w, v = herm_eigen(m)
    arrays = (np.asarray(m, dtype=complex), w, v)
    return type(dm) is DensityMatrix and all(
        a.tobytes() == b.tobytes() and not a.flags.writeable for a, b in zip(dm, arrays)
    )


def test_density_matrix_builds_every_route_through_the_constructor(monkeypatch):
    dm = RECORDS["DensityMatrix"]
    m = np.eye(4, dtype=complex) / 4
    calls = []
    monkeypatch.setattr(twoqubit, "herm_eigen", lambda x: calls.append(1) or herm_eigen(x))
    routes = {
        "constructor": lambda: DensityMatrix(m), "keyword": lambda: DensityMatrix(m=m),
        "validate_density": lambda: validate_density(m), "_make": lambda: DensityMatrix._make([m]),
        "_replace(m=...)": lambda: dm._replace(m=m),
    }
    for name, build in routes.items():
        calls.clear()
        assert _decomposed(build(), m) and calls == [1], name
    for name, build in {
        "_replace()": dm._replace, "pickle": lambda: pickle.loads(pickle.dumps(dm)),
        "copy": lambda: copy.copy(dm), "deepcopy": lambda: copy.deepcopy(dm),
    }.items():
        calls.clear()
        assert _decomposed(build(), dm.m) and calls == [1], name


def test_density_matrix_takes_no_decomposition():
    dm = RECORDS["DensityMatrix"]
    w, v = dm.eigenvalues, dm.eigenvectors
    for build in (
        lambda: DensityMatrix(dm.m, w, v), lambda: DensityMatrix(dm.m, eigenvalues=w),
        lambda: DensityMatrix._make(dm), lambda: DensityMatrix._make([dm.m, w[::-1], v]),
        lambda: dm._replace(eigenvalues=w[::-1]), lambda: dm._replace(eigenvectors=v),
        lambda: dm._replace(m=dm.m, eigenvalues=w),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize(
    "m, error",
    [(np.full((4, 4), math.nan), NotHermitian), (np.diag([0.5, 0.5, 0.5, -0.5]), NotPSD)],
    ids=["nan", "not-psd"],
)
def test_density_matrix_routes_raise_what_validation_raises(m, error):
    dm = RECORDS["DensityMatrix"]
    expected = _raised(lambda: validate_density(m))
    assert expected[0] is error
    for build in (lambda: DensityMatrix(m), lambda: DensityMatrix._make([m]),
                  lambda: dm._replace(m=m)):
        assert _raised(build) == expected


@pytest.mark.filterwarnings("error")
def test_every_validated_record_gives_the_oracle_finite_reference_bits():
    # A validated record holds finite eigenpairs of a unit-trace PSD matrix, so
    # the reference oracle's finiteness checks, which the package's oracle
    # does not make, never fire; its clamp of eigenvalues down to -EIGEN_TOL
    # still bites on the records with a nonpositive eigenvalue.
    rng = np.random.default_rng(137)
    records = [validate_density(m) for m in valid_matrices(rng, 500) + generic_matrices(rng, 500)]
    for dm in records:
        r = concurrence_oracle(dm)
        assert all(map(math.isfinite, r.omegas))
        expected = kernel_reference.concurrence_oracle(dm)
        assert [x.hex() for x in (*r.omegas, r.concurrence, r.eof)] == [
            x.hex() for x in (*expected.omegas, expected.concurrence, expected.eof)
        ]
    assert any(dm.eigenvalues[0] <= 0.0 for dm in records)


def test_perm4_keeps_its_sort_order_and_operations():
    p, q = Perm4((2, 1, 3, 4)), Perm4((1, 3, 2, 4))
    assert sorted([p, q]) == [q, p] and q < p
    assert p.images == (2, 1, 3, 4) and p(1) == 2
    assert (p * q).images == (3, 1, 2, 4) and p * p == IDENTITY and (p * q).order() == 3
    stab = stabilizer(4)
    assert stab.order == len(stab) == 6 and p in stab
    assert list(stab) == sorted(stab)


def test_perm4_stores_its_images_as_a_tuple_of_ints():
    # Whatever sequence holds the images, the record holds a tuple of ints: it hashes
    # and compares like the tuple form, so generate() and sets accept it.
    p = Perm4((2, 1, 3, 4))
    for q in (
        Perm4([2, 1, 3, 4]), Perm4(np.array([2, 1, 3, 4])), Perm4((np.int64(2), 1, 3, 4)),
        IDENTITY._replace(images=[2, 1, 3, 4]), Perm4._make([[2, 1, 3, 4]]),
    ):
        assert type(q) is Perm4 and q == p and hash(q) == hash(p)
        assert type(q.images) is tuple and all(type(i) is int for i in q.images)


def test_xcoeffs_stores_its_vectors_as_tuples():
    # Whatever sequences hold p and s, the record holds tuples: it hashes and
    # compares like the tuple form, and a validated vector cannot change in place.
    x = XCoeffs(0.0, (0.5, 0.0, 0.0), ZERO3)
    lists, arrays = ([0.5, 0.0, 0.0], [0.0, 0.0, 0.0]), (np.array([0.5, 0.0, 0.0]), np.zeros(3))
    base = XCoeffs(0.0, ZERO3, ZERO3)
    for y in (
        XCoeffs(0.0, *lists), XCoeffs(0.0, *arrays),
        base._replace(p=lists[0], s=lists[1]), base._replace(p=arrays[0], s=arrays[1]),
        XCoeffs._make([0.0, *lists]), XCoeffs._make([0.0, *arrays]),
    ):
        assert type(y) is XCoeffs and y == x and hash(y) == hash(x)
        assert type(y.p) is tuple and type(y.s) is tuple
        with pytest.raises(TypeError):
            y.p[0] = 5.0


@pytest.mark.parametrize("images", [(1.0, 2, 3, 4), (2, 1, 3, 4.5), "1234", (1, 2, 3, None)])
def test_perm4_rejects_non_integer_images(images):
    for build in (
        lambda: Perm4(images), lambda: IDENTITY._replace(images=images),
        lambda: Perm4._make([images]),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()
