"""The argument checks shared by the loader, the CLI and the library."""

import math

import numpy as np
import pytest

from secrecylab.errors import (
    InvalidInputError,
    _check_count,
    _check_nonnegative,
    _check_positive,
    _check_seed,
)

CHECKS = (_check_positive, _check_nonnegative, _check_count, _check_seed)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_rejected_everywhere(check, value):
    with pytest.raises(InvalidInputError, match=r"^x: expected "):
        check("x", value)


@pytest.mark.parametrize("value", ["1.0", None, [1.0], math.inf, -math.inf, math.nan, 10 ** 400])
def test_non_finite_and_non_numbers_are_not_numbers(value):
    for check in (_check_positive, _check_nonnegative):
        with pytest.raises(InvalidInputError, match=r"^x: expected a finite number, got "):
            check("x", value)


def test_positive_returns_a_float_and_rejects_zero():
    assert _check_positive("x", 3) == 3.0 and type(_check_positive("x", 3)) is float
    assert _check_positive("x", 5e-324) == 5e-324
    for value in (0, 0.0, -1e-300):
        with pytest.raises(InvalidInputError, match=r"^x: expected a positive value, got "):
            _check_positive("x", value)


def test_nonnegative_accepts_zero():
    _check_nonnegative("x", 0)
    _check_nonnegative("x", 0.0)
    with pytest.raises(InvalidInputError, match=r"^x: expected a non-negative value, got -1"):
        _check_nonnegative("x", -1)


def test_count_accepts_numpy_integers_only_from_one():
    for value in (1, 7, np.int64(3), np.uint8(1)):
        _check_count("n", value)
    for value in (0, -2, 1.0, np.float64(2.0), np.bool_(True), "3"):
        with pytest.raises(InvalidInputError, match=r"^n: expected a positive integer, got "):
            _check_count("n", value)


def test_seed_is_a_64_bit_unsigned_integer():
    for value in (0, 1, 2 ** 64 - 1):
        assert _check_seed("seed", value) == value
    for value in (-1, 2 ** 64, 1.0, "5", None):
        with pytest.raises(InvalidInputError,
                           match=r"^seed: expected a 64-bit unsigned integer, got "):
            _check_seed("seed", value)
