"""The ``Space.pairwise_entries`` declaration against the distances.

A geometry that declares it promises that each distance depends on its own
pair alone, so refinement may measure a block of proposals in one call.
On every geometry that declares it, on the compiled kernels and on their
numpy bodies, a sub-call (a subset of the rows, a subset of the columns,
one row) gives the bits of the same sub-matrix of the full call. spd:k for
k != 2 whitens by BLAS products over the whole call and declares nothing;
a product declares what every component declares.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import _native
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3

from conftest import numpy_kernels, random_points

DECLARED = [
    Euclidean(1),
    Euclidean(3),
    Sphere(2),
    SPD(2),
    Spider3(),
    Product((SPD(2), Sphere(2))),
    Product((Spider3(), Euclidean(2))),
]


def test_declarations():
    assert all(space.pairwise_entries for space in DECLARED)
    for space in (SPD(1), SPD(3), SPD(10), Product((SPD(2), SPD(3))),
                  Product((SPD(3), Sphere(2)))):
        assert not space.pairwise_entries


def kernel_conditions():
    """The compiled kernels, where they load, and the numpy bodies."""
    return ([nullcontext] if _native.library() is not None else []) + [numpy_kernels]


@settings(max_examples=30, deadline=None)
@given(space=st.sampled_from(DECLARED), seed=st.integers(0, 2**32 - 1),
       n_rows=st.integers(1, 40), n_cols=st.sampled_from([1, 2, 9, 300, 1500]),
       data=st.data())
def test_a_sub_call_equals_the_same_sub_matrix(space, seed, n_rows, n_cols, data):
    # At 1500 columns a call of more than 21 rows crosses the 2**15-pair
    # row chunks of the sphere and spd:2 distances.
    rng = np.random.default_rng(seed)
    xs, ys = random_points(space, n_rows, rng), random_points(space, n_cols, rng)
    # Repeated points, whose distances are exact zeros.
    xs[-1] = ys[0]
    rows = sorted(data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1)))
    cols = sorted(data.draw(st.sets(st.integers(0, n_cols - 1), min_size=1, max_size=50)))
    one = data.draw(st.integers(0, n_rows - 1))
    for condition in kernel_conditions():
        with condition():
            full = space.distance_matrix(xs, ys)
            sub_rows = space.distance_matrix([xs[i] for i in rows], ys)
            sub_cols = space.distance_matrix(xs, [ys[j] for j in cols])
            one_row = space.distance_matrix([xs[one]], ys)
        assert np.array_equal(sub_rows, full[rows])
        assert np.array_equal(sub_cols, full[:, cols])
        assert np.array_equal(one_row, full[one:one + 1])


@pytest.mark.parametrize("space", DECLARED, ids=lambda s: s.spec_string)
def test_stacked_operands_give_the_same_sub_matrix(space):
    # Refinement passes a block of proposals as a list and its targets as
    # one stack (Space.stack); a one-row call reads a list of one.
    rng = np.random.default_rng(3)
    xs, ys = random_points(space, 8, rng), space.stack(random_points(space, 50, rng))
    for condition in kernel_conditions():
        with condition():
            full = space.distance_matrix(xs, ys)
            rows = [space.distance_matrix([x], ys)[0] for x in xs]
        assert all(np.array_equal(row, full[i]) for i, row in enumerate(rows))
