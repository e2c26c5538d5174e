import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ulsim.units import db_to_linear


def test_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-10.0) == 0.1
    assert np.isclose(db_to_linear(3.0), 1.9952623149688795, rtol=0, atol=1e-15)


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_db_round_trip(x):
    assert abs(10.0 * np.log10(db_to_linear(x)) - x) < 1e-12 * max(1.0, abs(x))


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_db_addition_is_linear_multiplication(a, b):
    assert np.isclose(db_to_linear(a + b), db_to_linear(a) * db_to_linear(b),
                      rtol=1e-12)


def test_vectorized():
    x = np.array([-10.0, 0.0, 10.0])
    assert np.allclose(db_to_linear(x), [0.1, 1.0, 10.0])
