"""The result records: immutable named tuples with fixed text, fields and checks."""

import re

import pytest

from kalmandeg import (
    AsymptoticEstimate,
    CodimVec,
    RationalSeries,
    TensorFormat,
    TPoly,
    asymptotic_degree,
    compare_exact_asymptotic,
    critical_constants,
    isotropic_degree,
    isotropic_degree_symmetric,
    macmahon_check,
    symmetric_degree,
    verify_critical_point,
)
from kalmandeg.genfun import InputError

RING = ("z",)


def _records():
    fmt, cv = TensorFormat((3, 2), (1, 1)), CodimVec((0, 0))
    return [
        fmt,
        cv,
        RationalSeries(TPoly.one(RING), TPoly.one(RING), (2,)),
        critical_constants(3, 1, 0),
        verify_critical_point(3, 1),
        asymptotic_degree(3, 1, 0, 5),
        compare_exact_asymptotic(3, 1, 0, [3])[0],
        isotropic_degree(TensorFormat((3,), (2,))),
    ]


def test_repr_is_pinned():
    assert repr(TensorFormat((2, 2), (1, 1))) == "TensorFormat(n=(2, 2), omega=(1, 1))"
    assert repr(CodimVec((1, 0))) == "CodimVec(delta=(1, 0))"
    assert repr(TensorFormat([2, 2], [1, 1])) == "TensorFormat(n=(2, 2), omega=(1, 1))"  # lists become tuples


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_carry_no_dict(record):
    assert not hasattr(record, "__dict__")
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_construction_hash_and_properties():
    fmt = TensorFormat(n=[2, 3], omega=(1, 2))
    assert fmt == TensorFormat((2, 3), [1, 2]) and fmt.n == (2, 3) and fmt.k == 2
    assert hash(fmt) == hash(((2, 3), (1, 2)))
    assert CodimVec(delta=[1, 2]).total == 3
    series = RationalSeries(numerator=TPoly.one(RING), denominator=TPoly.one(RING), caps=[2])
    assert series.caps == (2,) and series.expand() == {(0,): 1}
    assert AsymptoticEstimate(log10_value=1.0, value_if_representable=10.0).value_if_representable == 10.0


# Checks of the public functions' own arguments, which raise InputError (the CLI's exit 2).
INPUT_CHECKS = [
    (lambda: asymptotic_degree(3, 1, -1, 5), "delta must be >= 0"),
    (lambda: symmetric_degree(0, 0, 2), "n must be >= 1"),
    (lambda: symmetric_degree(3, 0, 0), "omega must be >= 1"),
    (lambda: isotropic_degree_symmetric(3, 0), "omega must be >= 1"),
    (lambda: macmahon_check([[1, 0], [0, 1]], (2,)), "cap length does not match matrix size"),
]


@pytest.mark.parametrize("build, message", [
    (lambda: TensorFormat((0,), (1, 1)), "n and omega must have the same length"),  # checked first
    (lambda: TensorFormat((), ()), "at least one factor is required"),
    (lambda: TensorFormat((2, 0), (0, 1)), "all dimensions n_i must be >= 1"),
    (lambda: TensorFormat((2, 2), (1, 0)), "all weights omega_i must be >= 1"),
    (lambda: CodimVec(()), "at least one entry is required"),
    (lambda: CodimVec((-1, 0)), "codimensions must be nonnegative"),
    (lambda: RationalSeries(TPoly.one(RING), TPoly.one(("w",)), (-1, 0)), "numerator and denominator live in different rings"),
    (lambda: RationalSeries(TPoly.one(RING), TPoly.one(RING), (-1, 0)), "caps length does not match variable count"),
    (lambda: RationalSeries(TPoly.one(RING), TPoly(RING), (-1,)), "caps must be nonnegative"),
    (lambda: RationalSeries(TPoly.one(RING), TPoly(RING), (1,)), "denominator must have constant term 1"),
    (lambda: AsymptoticEstimate(float("inf"), None), "log10_value must be finite"),
    (lambda: AsymptoticEstimate(log10_value=float("nan"), value_if_representable=None), "log10_value must be finite"),
    *INPUT_CHECKS,
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        build()
    assert isinstance(raised.value, InputError) or (build, message) not in INPUT_CHECKS
