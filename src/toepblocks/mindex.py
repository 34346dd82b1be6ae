"""Partitions of n, multi-index combinatorics and bases of the isotypic slices.

A partition k = (k_1, ..., k_m) of n splits z in C^n into blocks
z = (z_(1), ..., z_(m)) with z_(j) in C^{k_j}.  The slice P_kappa is the span
of the monomials z^alpha whose per-block degrees |alpha_(j)| equal kappa_j.
Blocks are numbered 1..m throughout.

All orderings are graded lexicographic: ascending total degree, then
descending lexicographic within a degree (so z1^2 precedes z1*z2 precedes
z2^2).  This fixes deterministic matrix layouts across runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product


def as_int(value, what: str) -> int:
    """An integer argument as an int; ValueError names ``what`` for a float
    or a boolean, which ``int()`` would silently truncate or accept."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Partition:
    """Block sizes k = (k_1, ..., k_m); each k_j >= 1."""

    k: tuple[int, ...]

    def __post_init__(self):
        k = tuple(as_int(v, "partition entry") for v in self.k)
        if len(k) == 0 or any(v < 1 for v in k):
            raise ValueError(f"partition entries must be positive, got {self.k!r}")
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return sum(self.k)

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def h(self) -> int:
        """Number of size-one blocks (whose unitary factor is a circle)."""
        return sum(1 for v in self.k if v == 1)

    def block_slices(self) -> tuple[slice, ...]:
        """Index ranges of the blocks inside a length-n vector."""
        return _block_slices(self.k)

    def block_slice(self, j: int) -> slice:
        """Index range of block j (1-based)."""
        if not 1 <= j <= self.m:
            raise ValueError(f"block index {j} out of range 1..{self.m}")
        return _block_slices(self.k)[j - 1]


@lru_cache(maxsize=None)
def _block_slices(k: tuple[int, ...]) -> tuple[slice, ...]:
    out, start = [], 0
    for kj in k:
        out.append(slice(start, start + kj))
        start += kj
    return tuple(out)


def grlex_key(alpha):
    """Sort key for graded-lex order (degree ascending, lex descending)."""
    return (sum(alpha), tuple(-a for a in alpha))


def compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total.

    Yielded in descending lexicographic order, e.g. (2,0), (1,1), (0,2).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def kappa_of(alpha, p: Partition) -> tuple[int, ...]:
    """Per-block degree vector (|alpha_(1)|, ..., |alpha_(m)|)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != p.n:
        raise ValueError(f"multi-index length {len(alpha)} != n = {p.n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be >= 0, got {alpha}")
    return tuple(sum(alpha[sl]) for sl in p.block_slices())


def block_split(alpha, p: Partition) -> tuple[tuple[int, ...], ...]:
    """Split alpha into its per-block pieces (alpha_(1), ..., alpha_(m))."""
    alpha = tuple(alpha)
    if len(alpha) != p.n:
        raise ValueError(f"multi-index length {len(alpha)} != n = {p.n}")
    return tuple(alpha[sl] for sl in p.block_slices())


def split_alpha(alpha, p: Partition, j: int):
    """Return (alpha_(j), alpha with block j removed), j 1-based."""
    if not 1 <= j <= p.m:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    parts = block_split(alpha, p)
    hat: tuple[int, ...] = ()
    for l, piece in enumerate(parts, start=1):
        if l != j:
            hat += piece
    return parts[j - 1], hat


def alpha_factorial(alpha) -> int:
    """alpha! as an exact integer."""
    out = 1
    for a in alpha:
        out *= math.factorial(int(a))
    return out


def block_dims(p: Partition, kappa) -> tuple[int, ...]:
    """Sizes C(k_j + kappa_j - 1, kappa_j) of the tensor factors of P_kappa.

    ``enumerate_basis`` is the Kronecker product of the per-block bases,
    block 1 outermost, so a P_kappa matrix reshapes to dims + dims axes.
    """
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    if len(kappa) != p.m:
        raise ValueError(f"kappa length {len(kappa)} != m = {p.m}")
    if any(v < 0 for v in kappa):
        raise ValueError(f"kappa entries must be >= 0, got {kappa}")
    return tuple(math.comb(kj + cj - 1, cj) for kj, cj in zip(p.k, kappa))


def dim_P(p: Partition, kappa) -> int:
    """Dimension of the slice P_kappa: the product of its ``block_dims``."""
    return math.prod(block_dims(p, kappa))


@dataclass(frozen=True)
class BasisP:
    """Ordered monomial basis of a slice P_kappa."""

    partition: Partition
    kappa: tuple[int, ...]
    alphas: tuple[tuple[int, ...], ...]
    _index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(self.alphas)}
        )

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)

    def __getitem__(self, i):
        return self.alphas[i]

    def index(self, alpha) -> int:
        return self._index[tuple(alpha)]


@lru_cache(maxsize=None)
def _basis_alphas(k: tuple[int, ...], kappa: tuple[int, ...]):
    per_block = [list(compositions(c, kj)) for kj, c in zip(k, kappa)]
    return tuple(
        tuple(x for piece in combo for x in piece) for combo in product(*per_block)
    )


def enumerate_basis(p: Partition, kappa) -> BasisP:
    """All alpha with per-block degrees kappa, graded-lex ordered.

    The ordering is the product of the per-block descending-lex orders with
    block 1 outermost, which coincides with graded-lex on the full alpha.
    """
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    block_dims(p, kappa)  # validates kappa
    return BasisP(p, kappa, _basis_alphas(p.k, kappa))


def _graded(parts: int, max_degree: int):
    """All vectors in N^parts with sum <= max_degree, graded-lex ordered."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    for deg in range(max_degree + 1):
        yield from compositions(deg, parts)


def enumerate_kappas(p: Partition, max_degree: int) -> list[tuple[int, ...]]:
    """All kappa in N^m with |kappa| <= max_degree, graded-lex ordered."""
    return list(_graded(p.m, max_degree))


def enumerate_multiindices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All alpha in N^n with |alpha| <= max_degree, graded-lex ordered."""
    return list(_graded(n, max_degree))
