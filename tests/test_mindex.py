"""Multi-index combinatorics and basis enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepblocks import (
    Partition,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    enumerate_multiindices,
    kappa_of,
    split_alpha,
)
from toepblocks.mindex import block_dims, block_split, compositions, grlex_key


def test_partition_fields():
    p = Partition((1, 2))
    assert (p.n, p.m, p.h) == (3, 2, 1)
    p = Partition((2, 2))
    assert (p.n, p.m, p.h) == (4, 2, 0)
    p = Partition((1, 1, 2))
    assert (p.n, p.m, p.h) == (4, 3, 2)


def test_partition_rejects_bad_entries():
    with pytest.raises(ValueError):
        Partition((0, 2))
    with pytest.raises(ValueError):
        Partition(())


@pytest.mark.parametrize("k", [(2.4, 2), (True, 2)])
def test_partition_rejects_float_and_bool_entries(k):
    # int() would read (2.4, 2) as (2, 2)
    with pytest.raises(ValueError, match="partition entry must be an integer"):
        Partition(k)


@pytest.mark.parametrize("alpha,k,expected", [
    ((2, 0, 1), (1, 2), (2, 1)),
    ((0, 0, 0), (1, 2), (0, 0)),
    ((1, 1, 0, 3), (2, 2), (2, 3)),
])
def test_kappa_of(alpha, k, expected):
    assert kappa_of(alpha, Partition(k)) == expected


def test_kappa_of_length_mismatch():
    with pytest.raises(ValueError):
        kappa_of((1, 2), Partition((1, 2)))


@pytest.mark.parametrize("k,kappa,expected", [
    ((1, 2), (2, 1), 2),
    ((1, 2), (0, 0), 1),
    ((2, 2), (1, 2), 6),
])
def test_dim_P_examples(k, kappa, expected):
    assert dim_P(Partition(k), kappa) == expected


@pytest.mark.parametrize("k,kappa", [((1, 2), (2, 1)), ((2, 2), (1, 2)),
                                     ((3, 1, 2), (2, 0, 3))])
def test_block_dims_are_the_kronecker_factors(k, kappa):
    # basis entry (i_1, ..., i_m) in row-major order over block_dims holds
    # the i_j-th composition of kappa_j on every block j
    p = Partition(k)
    dims = block_dims(p, kappa)
    bases = [list(compositions(c, kj)) for kj, c in zip(k, kappa)]
    assert dims == tuple(map(len, bases))
    assert math.prod(dims) == dim_P(p, kappa)
    alphas = enumerate_basis(p, kappa).alphas
    for flat, idx in enumerate(itertools.product(*map(range, dims))):
        pieces = block_split(alphas[flat], p)
        assert pieces == tuple(b[i] for b, i in zip(bases, idx))


@pytest.mark.parametrize("kappa", [(1,), (1, -1)])
def test_block_dims_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        block_dims(Partition((1, 2)), kappa)


@pytest.mark.parametrize("k,kappa,expected", [
    ((1, 2), (1, 1), ((1, 1, 0), (1, 0, 1))),
    ((1, 1), (0, 0), ((0, 0),)),
    ((2,), (2,), ((2, 0), (1, 1), (0, 2))),
])
def test_enumerate_basis_examples(k, kappa, expected):
    assert enumerate_basis(Partition(k), kappa).alphas == expected


def test_enumerate_kappas_examples():
    assert enumerate_kappas(Partition((2,)), 2) == [(0,), (1,), (2,)]
    assert enumerate_kappas(Partition((1, 2)), 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(enumerate_kappas(Partition((1, 2)), 2)) == 6


@pytest.mark.parametrize("alpha,k,j,expected", [
    ((2, 0, 1), (1, 2), 2, ((0, 1), (2,))),
    ((1, 1, 0, 3), (2, 2), 1, ((1, 1), (0, 3))),
    ((0, 0, 0), (1, 2), 1, ((0,), (0, 0))),
])
def test_split_alpha(alpha, k, j, expected):
    assert split_alpha(alpha, Partition(k), j) == expected


def test_split_alpha_out_of_range():
    with pytest.raises(ValueError):
        split_alpha((1, 0, 0), Partition((1, 2)), 3)


def test_basis_is_graded_lex_sorted():
    p = Partition((2, 2))
    for kappa in enumerate_kappas(p, 4):
        alphas = enumerate_basis(p, kappa).alphas
        assert list(alphas) == sorted(alphas, key=grlex_key)
        assert len(set(alphas)) == len(alphas)


@settings(max_examples=60, deadline=None)
@given(
    k=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    kappa_seed=st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
def test_dim_matches_enumeration(k, kappa_seed):
    p = Partition(k)
    kappa = tuple(kappa_seed[: p.m])
    assert len(enumerate_basis(p, kappa)) == dim_P(p, kappa)


@settings(max_examples=40, deadline=None)
@given(
    k=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    deg=st.integers(0, 4),
)
def test_kappa_slices_partition_the_degree(k, deg):
    p = Partition(k)
    from_slices = set()
    for kappa in compositions(deg, p.m):
        for alpha in enumerate_basis(p, kappa):
            assert kappa_of(alpha, p) == tuple(kappa)
            from_slices.add(alpha)
    direct = {a for a in enumerate_multiindices(p.n, deg) if sum(a) == deg}
    assert from_slices == direct


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_then_rejoin_is_identity(data):
    k = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3).map(tuple))
    p = Partition(k)
    alpha = tuple(data.draw(st.integers(0, 3)) for _ in range(p.n))
    parts = block_split(alpha, p)
    assert sum(parts, ()) == alpha
    for j in range(1, p.m + 1):
        blk, hat = split_alpha(alpha, p, j)
        assert blk == parts[j - 1]
        assert len(hat) == p.n - p.k[j - 1]
        assert kappa_of(alpha, p)[j - 1] == sum(blk)


def test_enumerate_multiindices_counts():
    import math

    out = enumerate_multiindices(4, 4)
    assert len(out) == math.comb(8, 4)
    assert out == sorted(out, key=grlex_key)
