"""Bounded symbols on the ball, tagged with a declared invariance class.

A symbol is a pointwise evaluator plus metadata: the partition it refers to,
a sup-norm bound, the invariance class it claims, and optional separable
payloads that unlock deterministic quadrature paths:

* ``radial_profile(r)``         -- function of the block radii only,
* ``f_payload(r, xi)``          -- radii plus the direction of one block,
  invariant under a common phase on xi,
* ``g_payload(r, s, t)``        -- radii plus the modulus/phase split of one
  block's direction, invariant under a common phase on t.

Invariance is always validated statistically by sampling, never symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mindex import Partition, as_int
from .quad import (
    block_direction,
    block_radii,
    phase_split,
    sample_ball,
    sample_group,
    substream,
)

_VALIDATION_TOL = 1e-9
_VALIDATION_SAMPLES = 128
_BOUND_CAP = 1e8  # a "bounded" symbol exceeding this on samples is rejected


@dataclass(frozen=True)
class InvarianceClass:
    """Label for the subgroup under which a symbol is declared invariant.

    ``kind`` is one of "general", "tm", "sep_radial", "kj", "quasi_radial",
    "radial"; ``j`` is the 1-based block index for kind "kj".  A class with
    a bigger group implies every class with a smaller one.
    """

    kind: str
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("general", "tm", "sep_radial", "kj", "quasi_radial", "radial"):
            raise ValueError(f"unknown invariance kind {self.kind!r}")
        if (self.kind == "kj") != (self.j is not None):
            raise ValueError("block index j is required exactly for kind 'kj'")

    def implies(self, other: "InvarianceClass") -> bool:
        """True when invariance of this class forces invariance of `other`."""
        if other.kind == "general" or self == other:
            return True
        if self.kind == "radial":
            return True
        if self.kind == "quasi_radial":
            # U(k) contains T^n, T^m and every circle-times-blocks group
            return other.kind != "radial"
        if self.kind in ("sep_radial", "kj"):
            return other.kind == "tm"
        return False

    def intersect(self, other: "InvarianceClass") -> "InvarianceClass":
        """Largest shipped class implied by both (for products of symbols)."""
        if self.implies(other):
            return other
        if other.implies(self):
            return self
        if self.implies(TM_INVARIANT) and other.implies(TM_INVARIANT):
            return TM_INVARIANT
        return GENERAL


GENERAL = InvarianceClass("general")
TM_INVARIANT = InvarianceClass("tm")
SEPARATELY_RADIAL = InvarianceClass("sep_radial")
QUASI_RADIAL = InvarianceClass("quasi_radial")
RADIAL = InvarianceClass("radial")


def kj_quasi_homogeneous(j: int) -> InvarianceClass:
    return InvarianceClass("kj", j)


@dataclass(frozen=True)
class Symbol:
    """Evaluable bounded function on the ball with declared invariance."""

    partition: Partition
    evaluator: object  # callable (N, n) complex -> (N,) complex
    klass: InvarianceClass
    bound: float
    name: str = ""
    radial_profile: object | None = None
    f_payload: object | None = None
    g_payload: object | None = None
    j: int | None = None

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        single = Z.ndim == 1
        vals = np.asarray(self.evaluator(np.atleast_2d(Z)), dtype=complex)
        return vals[0] if single else vals


def _validation_points(p: Partition, count: int, rng) -> np.ndarray:
    return sample_ball(p.n, 0.0, count, rng)


def _checked_bound(vals, bound: float | None, what: str) -> float:
    """The sup-norm bound of a symbol sampled as ``vals``: ``bound`` when
    declared, else the largest |value|.  ValueError, naming ``what``, when a
    value is non-finite or exceeds the declared bound."""
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} is non-finite on samples")
    observed = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if bound is not None and observed > bound * (1 + 1e-12):
        raise ValueError(
            f"{what} exceeds its declared bound: {observed} > {bound}")
    return bound if bound is not None else observed


def from_evaluator(p: Partition, evaluator, klass: InvarianceClass = GENERAL,
                   *, bound: float | None = None, name: str = "",
                   rng=None) -> Symbol:
    """Wrap a raw vectorized evaluator; the bound is checked on samples."""
    rng = rng or substream(0, "symbol-validate", name)
    Z = _validation_points(p, _VALIDATION_SAMPLES, rng)
    vals = np.asarray(evaluator(Z), dtype=complex)
    return Symbol(p, evaluator, klass,
                  _checked_bound(vals, bound, f"symbol {name!r}"), name=name)


def from_radial_profile(p: Partition, profile, *, bound: float | None = None,
                        name: str = "quasi-radial") -> Symbol:
    """Symbol a(z) = profile(|z_(1)|, ..., |z_(m)|); invariance class U(k)."""

    def evaluator(Z):
        return np.asarray(profile(block_radii(Z, p)), dtype=complex)

    rng = substream(0, "symbol-validate", name)
    Z = _validation_points(p, _VALIDATION_SAMPLES, rng)
    grid = [block_radii(Z, p)]
    # corner rows probing the coordinate axes and the singular origin
    for tiny in (1e-9, 1e-3):
        corners = np.full((p.m + 1, p.m), tiny)
        for j in range(p.m):
            corners[j, j] = 0.9 / math.sqrt(p.m)
        grid.append(corners)
    vals = np.concatenate([np.asarray(profile(g), dtype=complex) for g in grid])
    if np.max(np.abs(vals)) > _BOUND_CAP:  # False for NaN: caught below
        raise ValueError(f"profile of {name!r} is unbounded on the sample grid")
    return Symbol(p, evaluator, QUASI_RADIAL,
                  _checked_bound(vals, bound, f"profile of {name!r}"),
                  name=name, radial_profile=profile)


#: form -> (payload field, chart: the block's directions xi -> arguments)
_PAYLOAD_CHARTS = {"f": ("f_payload", lambda xi: (xi,)),
                  "g": ("g_payload", phase_split)}


def _from_payload(p: Partition, j: int, payload, form: str, rng,
                  bound: float | None, name: str) -> Symbol:
    """Symbol a(z) = payload(r, *coords(xi_(j))) for ``from_f``/``from_g``.

    ``form`` ("f" or "g") keys ``_PAYLOAD_CHARTS``; the common phase acts on
    the last payload argument (xi for f, t for g).
    """
    if not 1 <= j <= p.m:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    field, coords = _PAYLOAD_CHARTS[form]
    labels, on = {"f": (("xi",), ""), "g": (("s", "t"), " on t")}[form]
    Z = _validation_points(p, _VALIDATION_SAMPLES, rng)
    r = block_radii(Z, p)
    args = coords(block_direction(Z, p, j))
    eta = np.exp(2j * math.pi * rng.random(Z.shape[0]))
    base = np.asarray(payload(r, *args), dtype=complex)
    rotated = np.asarray(payload(r, *args[:-1], eta[:, None] * args[-1]),
                         dtype=complex)
    dev = np.abs(rotated - base)
    bound = _checked_bound(base, bound, f"{form} payload of {name!r}")
    if np.max(dev) > _VALIDATION_TOL:
        i = int(np.argmax(dev))
        at = ", ".join(f"{lb}={x[i]}" for lb, x in zip(labels, args))
        raise ValueError(
            f"{form} payload of {name!r} is not phase invariant{on}: deviation "
            f"{dev[i]:.3e} at r={r[i]}, {at}, eta={eta[i]}"
        )

    def evaluator(Z):
        # chart first, radii second: keeps the radii out of the chart's peak
        args = coords(block_direction(Z, p, j))
        return np.asarray(payload(block_radii(Z, p), *args), dtype=complex)

    klass = kj_quasi_homogeneous(j)
    profile = None
    if p.k[j - 1] == 1:
        # the circle factor equals the full U(1) factor, so this is quasi-radial
        klass = QUASI_RADIAL
        profile = lambda r: payload(r, *coords(
            np.ones((np.atleast_2d(r).shape[0], 1), dtype=complex)))
    return Symbol(p, evaluator, klass, bound,
                  name=name, radial_profile=profile, j=j,
                  **{field: payload})


def from_f(p: Partition, j: int, f, *, bound: float | None = None,
           name: str = "f-form") -> Symbol:
    """Symbol a(z) = f(r, xi_(j)) with f invariant under a common phase on xi.

    Phase invariance is validated by sampling; a violation raises with the
    witness point.  For k_j = 1 the common-phase invariance makes the symbol
    quasi-radial and the class label is normalized accordingly.
    """
    return _from_payload(p, j, f, "f",
                         substream(0, "symbol-validate", name, j), bound, name)


def from_g(p: Partition, j: int, g, *, bound: float | None = None,
           name: str = "g-form") -> Symbol:
    """Symbol a(z) = g(r, s_(j), t_(j)), g invariant under a common phase on t."""
    return _from_payload(p, j, g, "g",
                         substream(0, "symbol-validate", name, j, "g"), bound,
                         name)


def _is_block_diagonal(A: np.ndarray, p: Partition, tol: float = 1e-12) -> bool:
    mask = np.ones((p.n, p.n), dtype=bool)
    for sl in p.block_slices():
        mask[sl, sl] = False
    return float(np.max(np.abs(A[mask]))) <= tol if mask.any() else True


def act(A: np.ndarray, a: Symbol) -> Symbol:
    """Transformed symbol z -> a(A^{-1} z) for a unitary A.

    The class is downgraded to the largest label provably preserved: any
    block-diagonal unitary normalizes the block torus, the block unitary
    group and the circle-times-blocks groups, so those labels survive;
    separately-radial survives only diagonal A; everything else drops to
    the unconstrained class.  Radial symbols keep their values and class.
    """
    A = np.asarray(A, dtype=complex)
    p = a.partition
    if A.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {A.shape} does not match n = {p.n}")
    if np.max(np.abs(A.conj().T @ A - np.eye(p.n))) > 1e-10:
        raise ValueError("matrix is not unitary to tolerance 1e-10")

    Ainv_T = np.conj(A)  # (A^{-1})^T for unitary A

    def evaluator(Z):
        return a.evaluator(np.atleast_2d(Z) @ Ainv_T)

    if a.klass == RADIAL:
        return replace(a, evaluator=evaluator, name=f"rot({a.name})")

    block_diag = _is_block_diagonal(A, p)
    klass = GENERAL
    profile = None
    fpay = None
    if block_diag:
        if a.klass.kind in ("quasi_radial", "kj", "tm"):
            klass = a.klass
        elif a.klass == SEPARATELY_RADIAL:
            diag = np.max(np.abs(A - np.diag(np.diagonal(A)))) <= 1e-12
            klass = SEPARATELY_RADIAL if diag else TM_INVARIANT
        if a.klass.implies(QUASI_RADIAL):
            profile = a.radial_profile  # block radii are unchanged
        if a.f_payload is not None and a.j is not None:
            Bj = A[p.block_slice(a.j)][:, p.block_slice(a.j)].conj().T
            f = a.f_payload
            fpay = lambda r, xi: f(r, xi @ Bj.T)
    return Symbol(p, evaluator, klass, a.bound, name=f"rot({a.name})",
                  radial_profile=profile, f_payload=fpay, j=a.j)


@dataclass(frozen=True)
class InvarianceReport:
    group: str
    j: int | None
    n_samples: int
    tol: float
    max_deviation: float
    passed: bool


def check_invariance(a: Symbol, group: str, n_samples: int = 256,
                     tol: float = 1e-9, rng=None, j: int | None = None
                     ) -> InvarianceReport:
    """Max of |a(Az) - a(z)| over random z and random A in the group."""
    p = a.partition
    rng = rng or substream(0, "check-invariance", a.name, group, j or 0)
    n_mats = max(8, min(n_samples, 64))
    pts_per = max(1, n_samples // n_mats)
    worst = 0.0
    for _ in range(n_mats):
        A = sample_group(p, group, rng, j=j)
        Z = _validation_points(p, pts_per, rng)
        dev = np.abs(a(Z @ A.T) - a(Z))
        worst = max(worst, float(np.max(dev)))
    return InvarianceReport(group, j, n_mats * pts_per, tol, worst, worst <= tol)


def multiply(a: Symbol, b: Symbol, name: str | None = None) -> Symbol:
    """Pointwise product; the class is the intersection of the factors'."""
    if a.partition != b.partition:
        raise ValueError("symbols live on different partitions")

    def evaluator(Z):
        return a.evaluator(Z) * b.evaluator(Z)

    return Symbol(a.partition, evaluator, a.klass.intersect(b.klass),
                  a.bound * b.bound,
                  name=name or f"{a.name}*{b.name}")


# ---------------------------------------------------------------------------
# shipped parametric families
# ---------------------------------------------------------------------------


def constant_symbol(p: Partition, value: complex = 1.0) -> Symbol:
    """The constant symbol (radial, bound |value|)."""

    def evaluator(Z):
        return np.full(np.atleast_2d(Z).shape[0], complex(value))

    return Symbol(p, evaluator, RADIAL, abs(value), name=f"const({value})",
                  radial_profile=lambda r: np.full(np.atleast_2d(r).shape[0],
                                                   complex(value)))


def _radial_terms_profile(terms, m: int):
    """Profile r -> sum coeff * prod_j (r_j^2)^powers_j over (coeff, powers).

    Each powers vector must lie in N^m: a negative power makes the profile
    unbounded at r_j = 0.
    """
    terms = [(complex(c), tuple(pw)) for c, pw in terms]
    for _, pw in terms:
        if len(pw) != m:
            raise ValueError(f"power vector length must equal m = {m}")
        if any(e < 0 or e != int(e) for e in pw):
            raise ValueError("radial powers must be nonnegative integers")
    terms = [(c, tuple(int(e) for e in pw)) for c, pw in terms]

    def profile(r):
        r2 = np.atleast_2d(np.asarray(r, dtype=float)) ** 2
        out = np.zeros(r2.shape[0], dtype=complex)
        for c, pw in terms:
            out += c * np.prod(r2 ** np.asarray(pw), axis=1)
        return out

    return profile


def radial_poly(p: Partition, terms, name: str | None = None) -> Symbol:
    """Quasi-radial polynomial in the squared block radii.

    ``terms`` is an iterable of (coeff, powers) with powers in N^m; the
    profile is sum coeff * prod_j (r_j^2)^powers_j.
    """
    return from_radial_profile(p, _radial_terms_profile(terms, p.m),
                               name=name or "radial-poly")


def _monomial(X: np.ndarray, pexp, qexp, coeff=1.0) -> np.ndarray:
    """coeff * X^p * conj(X)^q for row-stacked points X, factor by factor.

    Each factor multiplies ``out`` in place, so at most one row-sized
    temporary is alive beside it.
    """
    out = np.full(X.shape[0], coeff, dtype=complex)
    for i, (pe, qe) in enumerate(zip(pexp, qexp)):
        if pe:
            out *= X[:, i] ** pe
        if qe:
            xq = X[:, i] ** qe
            out *= np.conjugate(xq, out=xq)  # conj(x^q) = conj(x)^q
    return out


def phi_factor(p: Partition, j: int, pexp, qexp, radial_terms=None,
               name: str | None = None) -> Symbol:
    """Single-block quasi-homogeneous factor: profile(r) * xi^p * conj(xi)^q.

    Requires |p| = |q| on the block, which makes the factor invariant under
    the group that replaces block j's unitary factor by its scalar circle.
    """
    kj = p.k[j - 1] if 1 <= j <= p.m else None
    if kj is None:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    pexp = tuple(as_int(v, "exponent") for v in pexp)
    qexp = tuple(as_int(v, "exponent") for v in qexp)
    if len(pexp) != kj or len(qexp) != kj:
        raise ValueError(f"exponent length must equal k_j = {kj}")
    if any(v < 0 for v in pexp) or any(v < 0 for v in qexp):
        raise ValueError("exponents must be nonnegative")
    if sum(pexp) != sum(qexp):
        raise ValueError("|p| must equal |q| for a phase-invariant factor")
    prof = (_radial_terms_profile(radial_terms, p.m)
            if radial_terms is not None else None)

    def f(r, xi):
        out = _monomial(np.atleast_2d(xi), pexp, qexp)
        if prof is not None:
            out = out * prof(r)
        return out

    return from_f(p, j, f, name=name or f"phi[j={j},p={pexp},q={qexp}]")


def pseudo_factor(p: Partition, j: int, s_powers, t_exp, radial_terms=None,
                  name: str | None = None) -> Symbol:
    """Single-block pseudo-homogeneous factor: profile(r) * s^a * t^c, |c| = 0.

    The torus exponent c may have negative entries but must sum to zero so
    the factor is invariant under a common phase on t.
    """
    if not 1 <= j <= p.m:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    kj = p.k[j - 1]
    s_powers = tuple(as_int(v, "s exponent") for v in s_powers)
    t_exp = tuple(as_int(v, "torus exponent") for v in t_exp)
    if len(s_powers) != kj or len(t_exp) != kj:
        raise ValueError(f"exponent length must equal k_j = {kj}")
    if any(v < 0 for v in s_powers):
        raise ValueError("s exponents must be nonnegative")
    if sum(t_exp) != 0:
        raise ValueError("torus exponents must sum to zero")
    prof = (_radial_terms_profile(radial_terms, p.m)
            if radial_terms is not None else None)
    # on |t| = 1, t^c = conj(t)^(-c) for c < 0
    t_p = tuple(max(c, 0) for c in t_exp)
    t_q = tuple(max(-c, 0) for c in t_exp)

    def g(r, s, t):
        s = np.atleast_2d(np.asarray(s, dtype=float))
        t = np.atleast_2d(np.asarray(t, dtype=complex))
        out = _monomial(t, t_p, t_q)
        # s in place: a second _monomial table would be one more complex
        # temporary per payload chunk
        for i, e in enumerate(s_powers):
            if e:
                out *= s[:, i] ** e
        if prof is not None:
            out = out * prof(r)
        return out

    return from_g(p, j, g, name=name or f"pseudo[j={j},s={s_powers},t={t_exp}]")


def xi_monomial(p: Partition, j: int, pexp, qexp, name: str | None = None) -> Symbol:
    """Direction monomial xi_(j)^p * conj(xi_(j))^q with no balance constraint.

    Declared block-torus invariant when |p| = |q| (then it coincides with
    ``phi_factor``) and unconstrained otherwise; the unbalanced case is the
    shipped negative control for the block-diagonality checks.
    """
    if not 1 <= j <= p.m:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    kj = p.k[j - 1]
    pexp = tuple(as_int(v, "exponent") for v in pexp)
    qexp = tuple(as_int(v, "exponent") for v in qexp)
    if len(pexp) != kj or len(qexp) != kj:
        raise ValueError(f"exponent length must equal k_j = {kj}")
    if any(v < 0 for v in pexp + qexp):
        raise ValueError("exponents must be nonnegative")
    if sum(pexp) == sum(qexp):
        return phi_factor(p, j, pexp, qexp, name=name)

    def evaluator(Z):
        return _monomial(block_direction(Z, p, j), pexp, qexp)

    return Symbol(p, evaluator, GENERAL, 1.0,
                  name=name or f"xi[j={j},p={pexp},q={qexp}]")


def block_hermitian(p: Partition, H: np.ndarray, name: str | None = None) -> Symbol:
    """Smooth non-separable symbol a(z) = <H z, z> for block-diagonal H.

    Hermitian block-diagonal H makes the symbol real valued and invariant
    under the per-block scalar phases; it is generally not invariant under
    the full block unitary group, which is what makes it a useful test case.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {H.shape} does not match n = {p.n}")
    if np.max(np.abs(H - H.conj().T)) > 1e-12:
        raise ValueError("matrix must be Hermitian")
    if not _is_block_diagonal(H, p):
        raise ValueError("matrix must be block diagonal for the partition")

    def evaluator(Z):
        Z = np.atleast_2d(Z)
        return np.einsum("il,ni,nl->n", H, np.conj(Z), Z)

    bound = float(np.linalg.norm(H, 2))
    return Symbol(p, evaluator, TM_INVARIANT, bound,
                  name=name or "block-hermitian")


def zpoly(p: Partition, terms, klass: InvarianceClass = GENERAL,
          name: str | None = None) -> Symbol:
    """Polynomial in (z, conj(z)): sum of coeff * z^a * conj(z)^b terms."""
    terms = [(complex(c), tuple(as_int(v, "exponent") for v in za),
              tuple(as_int(v, "exponent") for v in zb)) for c, za, zb in terms]
    for _, za, zb in terms:
        if len(za) != p.n or len(zb) != p.n:
            raise ValueError("exponent vectors must have length n")
        if any(v < 0 for v in za + zb):
            raise ValueError("exponents must be nonnegative")

    def evaluator(Z):
        Z = np.atleast_2d(Z)
        out = np.zeros(Z.shape[0], dtype=complex)
        for c, za, zb in terms:
            out += _monomial(Z, za, zb, c)
        return out

    bound = sum(abs(c) for c, _, _ in terms)
    return Symbol(p, evaluator, klass, bound, name=name or "zpoly")


def noncommuting_pair(p: Partition, j: int = 1) -> tuple[Symbol, Symbol]:
    """Designed block-torus-invariant pair whose Toeplitz operators do not commute.

    Both live on block j (which needs k_j >= 2): a swap-type direction
    quadratic and a population-imbalance quadratic.  Their single-block
    matrices are Pauli-like and fail to commute already on the lowest
    nontrivial slice.
    """
    kj = p.k[j - 1]
    if kj < 2:
        raise ValueError("the designed pair needs a block of size >= 2")
    e = [0] * kj

    def unit(i):
        v = list(e)
        v[i] = 1
        return tuple(v)

    def fa(r, xi):
        xi = np.atleast_2d(xi)
        return xi[:, 0] * np.conj(xi[:, 1]) + xi[:, 1] * np.conj(xi[:, 0])

    def fb(r, xi):
        xi = np.atleast_2d(xi)
        return (np.abs(xi[:, 0]) ** 2 - np.abs(xi[:, 1]) ** 2).astype(complex)

    a = from_f(p, j, fa, name=f"swap[j={j}]")
    b = from_f(p, j, fb, name=f"imbalance[j={j}]")
    return a, b


def cross_block_control(p: Partition, j1: int = 1, j2: int = 2) -> Symbol:
    """Block-torus-invariant symbol that is invariant for no single block.

    Product of direction quadratics on two distinct blocks; used as the
    negative control for the tensor block-constancy check.
    """
    if p.m < 2:
        raise ValueError("needs at least two blocks")
    if p.k[j1 - 1] < 2 or p.k[j2 - 1] < 2:
        raise ValueError("both blocks must have size >= 2")
    a = phi_factor(p, j1, (1, 0) + (0,) * (p.k[j1 - 1] - 2),
                   (0, 1) + (0,) * (p.k[j1 - 1] - 2))
    b = phi_factor(p, j2, (1, 0) + (0,) * (p.k[j2 - 1] - 2),
                   (0, 1) + (0,) * (p.k[j2 - 1] - 2))
    out = multiply(a, b, name=f"cross[{j1},{j2}]")
    return out
