"""The knapsack pieces that the DFM and OBM searches share."""

import numpy as np
import pytest

from prepaid_ems.mck import chunked_runs, runs

#: Owners with empty runs first, inside and last; 14 indices in all.
OWNER = np.array([0, 1, 2, 3, 4, 5, 6])
START = np.array([3, 0, 5, 0, 2, 1, 4])
WIDTH = np.array([0, 2, 7, 0, 1, 4, 0])


def test_runs_pair_each_owner_with_its_indices():
    owner, index = runs(OWNER, START, WIDTH)
    assert owner.tolist() == [1, 1, 2, 2, 2, 2, 2, 2, 2, 4, 5, 5, 5, 5]
    assert index.tolist() == [0, 1, 5, 6, 7, 8, 9, 10, 11, 2, 1, 2, 3, 4]


@pytest.mark.parametrize("size", [1, 4, 100])
def test_chunks_concatenate_to_the_runs(size):
    """Every pair once, in owner order: a size of 1, one that falls
    inside owner 2's run, and one past the total."""
    parts = list(chunked_runs(OWNER, START, WIDTH, size))
    assert (len(parts) > 1) == (size < WIDTH.sum())
    assert all(len(got) for got, _ in parts)
    for got, want in zip(zip(*parts), runs(OWNER, START, WIDTH)):
        assert np.concatenate(got).tolist() == want.tolist()


@pytest.mark.parametrize(
    "width",
    [
        np.full(3, 1000),
        # Empty runs first, between and last.
        np.array([0, 0, 300, 0, 300, 0]),
    ],
)
def test_runs_wider_than_a_chunk_make_one_chunk_each(width):
    owner, start = np.arange(len(width)), np.arange(len(width))
    parts = list(chunked_runs(owner, start, width, 256))
    assert [len(got) for got, _ in parts] == width[width > 0].tolist()
    for got, want in zip(zip(*parts), runs(owner, start, width)):
        assert np.concatenate(got).tolist() == want.tolist()
