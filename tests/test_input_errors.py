"""Library entry points refuse out-of-domain or malformed input with the
exception type and message each one documents."""

from fractions import Fraction

import pytest

from tropgc import (ChamberSignature, DomainError, OrderResult,
                    RationalMatrix, WeightDatum, apply_permutation,
                    compare_signatures, filtration_levels, make_floor,
                    make_heavy_light, make_minimal, signature, wall_set)
from tropgc.enumeration import degree_range

CLASSICAL3 = WeightDatum(1, (Fraction(1),) * 3)
CLASSICAL4 = WeightDatum(1, (Fraction(1),) * 4)

CASES = {
    "wall set of negative genus": (
        lambda: wall_set(-1, 3), DomainError, "need g >= 0 and n >= 1"),
    "one sign for four walls": (
        lambda: ChamberSignature(wall_set(1, 3), (True,)), ValueError,
        "sign count does not match wall count"),
    "unknown relation": (
        lambda: OrderResult("Bigger", None), ValueError,
        "unknown relation 'Bigger'"),
    "Equal without a witness": (
        lambda: OrderResult("Equal", None), ValueError,
        "witness must be present exactly for Equal/Less/Greater results"),
    "repeated index is no permutation": (
        lambda: apply_permutation((1, 1, 2), CLASSICAL3), ValueError,
        "not a permutation of 1..3: (1, 1, 2)"),
    "signatures on two wall sets": (
        lambda: compare_signatures(signature(CLASSICAL3),
                                   signature(CLASSICAL4)), DomainError,
        "signatures live on different wall sets"),
    "minimal weights in genus 0": (
        lambda: make_minimal(0, 3), DomainError,
        "minimal weights require g >= 1"),
    "floor weights in genus 0": (
        lambda: make_floor(0, 3, 2), DomainError,
        "floor weights require g >= 1"),
    "floor level 1": (
        lambda: make_floor(1, 3, 1), DomainError,
        "floor level must satisfy 2 <= l <= n"),
    "more heavy weights than markings": (
        lambda: make_heavy_light(1, 3, 4), DomainError, "need 0 <= m <= n"),
    "one heavy weight in genus 0": (
        lambda: make_heavy_light(0, 3, 1), DomainError,
        "genus 0 heavy/light weights require m >= 2"),
    "unknown complex kind": (
        lambda: degree_range(1, 3, "bogus"), ValueError,
        "unknown complex kind 'bogus'"),
    "empty weight chain": (
        lambda: filtration_levels(1, [], 0), DomainError,
        "empty weight chain"),
    "negative matrix dimension": (
        lambda: RationalMatrix(-1, 0), ValueError,
        "negative matrix dimensions"),
    "product of mismatched shapes": (
        lambda: RationalMatrix(2, 3).matmul(RationalMatrix(2, 3)),
        ValueError, "shape mismatch in matrix product"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_error(name):
    call, exception, message = CASES[name]
    with pytest.raises(ValueError) as info:
        call()
    # DomainError is a ValueError; each call raises exactly its own type
    assert type(info.value) is exception
    assert str(info.value) == message
