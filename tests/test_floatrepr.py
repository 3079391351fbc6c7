"""``floatrepr.repr_bytes`` against Python's ``repr``, value by value."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prepaid_ems.floatrepr import repr_bytes


def assert_reprs(values):
    values = np.asarray(values, dtype=float)
    texts = repr_bytes(values)
    lines = np.concatenate([texts, np.full((len(values), 1), ord("\n"), np.uint8)], 1)
    got = lines[lines != 0].tobytes().decode().split("\n")[:-1]
    expected = list(map(repr, values.tolist()))
    if got != expected:
        bad = [(e, g) for e, g in zip(expected, got) if e != g]
        raise AssertionError(f"{len(bad)} texts differ, e.g. {bad[:5]}")


def neighbours(values):
    """Each value and the floats next to it, both signs."""
    values = np.asarray(values, dtype=float)
    near = [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    return np.concatenate(near + [-v for v in near])


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_any_floats(values):
    assert_reprs(values)


def test_powers_of_two_where_the_gap_below_is_half():
    assert_reprs(neighbours(2.0 ** np.arange(-14, 54)))


def test_decade_edges_and_the_fixed_range():
    # repr prints ±[1e-4, 1e16) without an exponent.
    decades = np.array([float(f"1e{d}") for d in range(-6, 19)])
    steps = [decades]
    for _ in range(3):
        steps.append(np.nextafter(steps[-1], np.inf))
    down = decades
    for _ in range(3):
        down = np.nextafter(down, 0)
        steps.append(down)
    assert_reprs(neighbours(np.concatenate(steps)))


def test_signed_zeros_and_subnormals():
    rng = np.random.default_rng(5)
    tiny = np.array([0.0, 5e-324, 1e-320, 2.2250738585072014e-308])
    subnormals = rng.integers(1, 2**52, 2000).view(np.float64)
    assert_reprs(neighbours(np.concatenate([tiny, subnormals])))


def test_values_rounded_to_0_to_15_decimals():
    rng = np.random.default_rng(6)
    size = 10.0 ** rng.uniform(-4, 16, 640_000)
    values = np.where(rng.random(size.shape) < 0.5, -size, size)
    decimals = np.arange(len(values)) % 16
    for d in range(16):
        values[decimals == d] = np.round(values[decimals == d], d)
    assert_reprs(values)


def test_balances_and_random_bit_patterns():
    # Negative and positive balances as a wallet trace makes them, and
    # every kind of float.
    rng = np.random.default_rng(7)
    start = rng.uniform(0.0, 50.0, 400)
    costs = rng.uniform(0.0, 0.05, (400, 800))
    balances = (start[:, None] - np.cumsum(costs, axis=1)).ravel()
    bits = rng.integers(-(2**63), 2**63 - 1, 50_000, dtype=np.int64, endpoint=True)
    assert_reprs(np.concatenate([balances, bits.view(np.float64)]))
