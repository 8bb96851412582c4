from fractions import Fraction

import pytest

import hypertoric.model as model_module
from hypertoric import (
    TorsionElement,
    WeightMatrix,
    direct_model,
    hypertoric_model,
    lawrence_model,
)


@pytest.fixture(autouse=True)
def _no_memoized_models():
    # each test starts with an empty model memo, so no test depends on
    # which models, and so which analyses, an earlier one built
    model_module._lawrence_pair.cache_clear()


@pytest.fixture
def a12():
    return WeightMatrix.from_rows([[1, 2]])


@pytest.fixture
def a11():
    return WeightMatrix.from_rows([[1, 1]])


@pytest.fixture
def a_2x3():
    # columns (1,0), (0,1), (1,1)
    return WeightMatrix.from_rows([[1, 0, 1], [0, 1, 1]])


@pytest.fixture
def tp12_lawrence(a12):
    return lawrence_model(a12, [1])


@pytest.fixture
def tp12_hypertoric(a12):
    return hypertoric_model(a12, [1])


@pytest.fixture
def mu3_model():
    # weights (0,1,2,3) with the last coordinate inverted: a cyclic-quotient
    # presentation of affine 3-space by an order-3 group
    return direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])


@pytest.fixture
def omega():
    return TorsionElement.from_fractions([Fraction(1, 3)])


@pytest.fixture
def omega2():
    return TorsionElement.from_fractions([Fraction(2, 3)])


@pytest.fixture
def half():
    return TorsionElement.from_fractions([Fraction(1, 2)])
