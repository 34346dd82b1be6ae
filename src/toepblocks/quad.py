"""Coordinates, measures, quadrature rules, samplers and Haar-random unitaries.

Every integral in the package reduces to one of:

* radial integrals over tau(B^m) = {r in R_+^m : |r| < 1} against the weight
  (1 - |r|^2)^lam * prod_j r_j^(2 k_j + 2 kappa_j - 1),
* integrals over the unit sphere of C^k with Riemannian surface measure,
  factored through positive-orthant coordinates xi = t * s,
* Monte Carlo expectations over the normalized weighted ball measure, and
* Haar averages over products of unitary groups.

Deterministic rules are spectrally accurate for smooth integrands; Monte
Carlo results always carry a standard error.  The Gauss rules (Gauss-Jacobi
on the radial axes, Gauss-Legendre on the sphere angles) come from one
Golub-Welsch construction on [0, 1] (Golub & Welsch, Math. Comp. 1969):
nodes are the eigenvalues of the Jacobi matrix of the shifted recurrence,
weights the Christoffel numbers.  A radial axis with weight
x^e_x (1 - x)^e_1mx is built only while 2^(e_x + e_1mx + 1) B(e_x + 1,
e_1mx + 1), the mass of the classical rule on [-1, 1], is finite in
double precision (lam below about 1000); past that ``radial_rule`` raises
``RadialRuleError``.  Randomness is counter-based (Philox) with substreams
keyed on (seed, task labels) so parallel runs are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .mindex import Partition, as_int

#: default absolute tolerance for deterministic quadrature comparisons
DETERMINISTIC_TOL = 1e-8

#: Monte Carlo acceptance band, in units of the propagated standard error
SIGMA_BAND = 5.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts, sample counts and the seed: the reproducibility contract.

    ``radial_nodes`` is the Gauss-Jacobi node count per radial dimension,
    ``torus_nodes`` the equispaced nodes per torus angle and ``sphere_nodes``
    the Gauss-Legendre nodes per positive-sphere angle.  The single-block
    kernel behind the f-form and g-form, and ``quasi_radialize``, use k_j - 1
    torus angles per block (the first is fixed by phase invariance), so a
    block of size k_j costs sphere_nodes^(k_j-1) * torus_nodes^(k_j-1)
    sphere nodes.  ``ball_samples`` sets the Monte Carlo effort of the
    sampling oracle, ``haar_samples`` that of the Haar traces of oracle-path
    symbols (the other traces and ``quasi_radialize`` draw nothing), and
    ``seed`` keys every random substream.
    The weight exponent is not part of the spec: every operation takes it
    as an explicit ``lam`` argument.
    """

    radial_nodes: int = 24
    torus_nodes: int = 16
    sphere_nodes: int = 24
    ball_samples: int = 200_000
    haar_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("radial_nodes", "torus_nodes", "sphere_nodes",
                     "ball_samples", "haar_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _complex_rows(Z: np.ndarray) -> np.ndarray:
    """Z as a C-contiguous complex (N, n) array, so its real view is valid."""
    return np.ascontiguousarray(np.atleast_2d(Z), dtype=complex)


def _radius(Z: np.ndarray, sl: slice) -> np.ndarray:
    """|z_sl| per row of ``_complex_rows`` output: one sum of squares over
    the real view (re, im interleaved), no complex temporary."""
    X = Z.view(float)[:, 2 * sl.start:2 * sl.stop]
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def block_radii(Z: np.ndarray, p: Partition) -> np.ndarray:
    """Block radii |z_(j)| for row-stacked points Z of shape (N, n)."""
    Z = _complex_rows(Z)
    return np.stack([_radius(Z, sl) for sl in p.block_slices()], axis=1)


def block_direction(Z: np.ndarray, p: Partition, j: int) -> np.ndarray:
    """Unit direction xi_(j) of block j; first basis vector where r_j = 0."""
    Z = _complex_rows(Z)
    sl = p.block_slice(j)
    zj = Z[:, sl]
    r = _radius(Z, sl)
    safe = np.where(r > 0, r, 1.0)
    xi = zj / safe[:, None]
    if np.any(r == 0):
        e1 = np.zeros(zj.shape[1], dtype=complex)
        e1[0] = 1.0
        xi[r == 0] = e1
    return xi


def phase_split(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise split xi = t * s with s = |xi| >= 0 and |t| = 1."""
    s = np.abs(xi)
    t = np.where(s > 0, xi / np.where(s > 0, s, 1.0), 1.0 + 0.0j)
    return s, t


# ---------------------------------------------------------------------------
# reproducible random streams
# ---------------------------------------------------------------------------


def _tag(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    digest = hashlib.blake2s(str(label).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """Counter-based generator for the task identified by the labels.

    Streams with distinct (seed, labels) are statistically independent and
    do not depend on creation order, so per-block work can run in parallel
    without losing bit-reproducibility.
    """
    key = tuple(_tag(l) for l in labels)
    seq = SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return Generator(Philox(seq))


# ---------------------------------------------------------------------------
# normalizing constant and exact sphere moments
# ---------------------------------------------------------------------------


def _lgamma(x: float) -> float:
    """log Gamma(x) for a scalar x > 0; +inf where ``math.lgamma`` overflows."""
    try:
        return math.lgamma(x)
    except OverflowError:  # x past about 2.6e305
        return math.inf


def c_lambda(n: int, lam: float) -> float:
    """Normalizing constant Gamma(n+lam+1) / (pi^n Gamma(lam+1)).

    That is prod_{i=1}^n ((lam+i)/pi), summed in logs: accurate at any lam.
    """
    if not lam > -1:
        raise ValueError(f"lam must be > -1, got {lam}")
    return math.exp(sum(math.log((lam + i + 1) / math.pi) for i in range(n)))


def sphere_monomial_integral(k: int, alpha, beta) -> float:
    """Integral of xi^alpha * conj(xi)^beta over the unit sphere of C^k.

    Equals 2 pi^k alpha! / (k - 1 + |alpha|)! when alpha == beta and zero
    otherwise (surface measure, not normalized).
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(alpha) != k or len(beta) != k:
        raise ValueError("exponent length must equal k")
    if alpha != beta:
        return 0.0
    num = 2 * math.pi**k
    fac = 1
    for a in alpha:
        fac *= math.factorial(a)
    return num * fac / math.factorial(k - 1 + sum(alpha))


# ---------------------------------------------------------------------------
# deterministic rules
# ---------------------------------------------------------------------------


class RadialRuleError(ValueError):
    """A lambda too large for double precision (radial rule, monomial norm)."""


def _gauss_jacobi(nodes: int, p: float, q: float):
    """Gauss rule on [0,1] for the weight x^p (1-x)^q, p, q > -1 (Golub-Welsch).

    The nodes are the eigenvalues of the Jacobi matrix of the monic Jacobi
    recurrence shifted to [0,1], its diagonal written without cancellation.
    Each weight is the Christoffel number B(p+1, q+1) / sum_k P_k(x)^2 over
    the orthonormal polynomials, which keeps small weights accurate to
    relative roundoff (squared eigenvector components do not).
    """
    k = np.arange(1.0, nodes)
    u = p + q
    s = 2.0 * k + u
    diag = np.empty(nodes)
    diag[0] = (p + 1.0) / (u + 2.0)
    diag[1:] = ((2.0 * k * k + 2.0 * k * (u + 1.0) + u * (1.0 + p))
                / (s * (s + 2.0)))
    off = np.sqrt(k * (k + p) * (k + q) * (k + u)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur = np.zeros(nodes), np.ones(nodes)
    total = np.ones(nodes)
    for i in range(nodes - 1):
        prev, cur = cur, ((x - diag[i]) * cur
                          - (off[i - 1] * prev if i else 0.0)) / off[i]
        total += cur * cur
    log_beta = _lgamma(p + 1.0) + _lgamma(q + 1.0) - _lgamma(p + q + 2.0)
    return x, math.exp(log_beta) / total


_LOG_DBL_MAX = math.log(np.finfo(float).max)


@lru_cache(maxsize=64)
def _jacobi_rule_01(nodes: int, exp_x: float, exp_1mx: float):
    """Nodes/weights for integral over [0,1] of x^exp_x (1-x)^exp_1mx f(x).

    Raises RadialRuleError when the rule's mass on [-1, 1],
    2^(exp_x + exp_1mx + 1) B(exp_x + 1, exp_1mx + 1), is not finite in
    double precision (exponents past about 1000, or infinite), or when the
    rule itself is not finite.  Built once per arguments in a process and
    shared: both arrays are read-only.
    """
    exp_x, exp_1mx = float(exp_x), float(exp_1mx)  # inf - inf: NaN, no warning
    log_mass = ((exp_x + exp_1mx + 1.0) * math.log(2.0) + _lgamma(exp_x + 1.0)
                + _lgamma(exp_1mx + 1.0) - _lgamma(exp_x + exp_1mx + 2.0))
    if log_mass <= _LOG_DBL_MAX:  # False for NaN (an infinite exponent)
        x, w = _gauss_jacobi(nodes, exp_x, exp_1mx)
        if np.all(np.isfinite(x)) and np.all(np.isfinite(w)):
            x.flags.writeable = w.flags.writeable = False
            return x, w
    raise RadialRuleError(
        f"the {nodes}-node Gauss-Jacobi rule with exponents "
        f"({exp_x:g}, {exp_1mx:g}) has non-finite nodes or weights: "
        f"lambda is too large for double precision")


def radial_rule(p: Partition, kappa, spec: QuadratureSpec, lam: float):
    """Weighted nodes on tau(B^m) for the radial part of the block integrals.

    Returns (R, w) with R of shape (Q, m) such that sum(w * phi(R)) approximates
    the integral of phi(r) (1-|r|^2)^lam prod_j r_j^(2 k_j + 2 kappa_j - 1)
    over tau(B^m).  Exact to roundoff for phi polynomial in r^2 of degree
    below the node count in each variable.

    The substitution u_j = r_j^2 maps the domain to the simplex; an iterated
    (Duffy-type) factorization then turns the weight into a product of
    classical Jacobi weights, one per dimension.  Raises RadialRuleError when
    one of those factors is not finite in double precision (a large lam).
    """
    if not lam > -1:
        raise ValueError(f"lam must be > -1, got {lam}")
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    if len(kappa) != p.m:
        raise ValueError(f"kappa length {len(kappa)} != m = {p.m}")
    a = [kj + cj for kj, cj in zip(p.k, kappa)]  # u_j exponent is a_j - 1
    m = p.m
    # axis i carries the trailing degree sum sum_{l>i} a_l in its (1-x) exponent
    axes = [
        _jacobi_rule_01(spec.radial_nodes, a[i] - 1.0, lam + sum(a[i + 1:]))
        for i in range(m)
    ]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    X = np.stack([g.reshape(-1) for g in grids], axis=1)  # (Q, m) in [0,1]^m
    W = axes[0][1]
    for i in range(1, m):
        W = np.multiply.outer(W, axes[i][1])
    W = np.asarray(W).reshape(-1)
    # iterated map x -> u on the simplex: u_i = x_i * prod_{l<i} (1 - x_l)
    U = np.empty_like(X)
    rem = np.ones(X.shape[0])
    for i in range(m):
        U[:, i] = X[:, i] * rem
        rem = rem * (1.0 - X[:, i])
    R = np.sqrt(U)
    return R, W / (2.0**m)


def torus_rule(k_j: int, nodes: int):
    """Equispaced product rule on the k_j-torus with total mass (2 pi)^k_j.

    Exact for the characters t^gamma with every |gamma_i| < nodes.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if k_j < 1:
        raise ValueError("k_j must be >= 1")
    angles = 2.0 * math.pi * np.arange(nodes) / nodes
    circle = np.exp(1j * angles)
    grids = np.meshgrid(*([circle] * k_j), indexing="ij")
    T = np.stack([g.reshape(-1) for g in grids], axis=1)
    w = np.full(T.shape[0], (2.0 * math.pi / nodes) ** k_j)
    return T, w


def positive_sphere_rule(k_j: int, nodes: int):
    """Nodes/weights for the positive part of the unit sphere of R^k_j.

    Integrates against the Riemannian surface measure.  For k_j = 1 the
    domain is the single point s = 1.  Otherwise the domain is parameterized
    by k_j - 1 angles in [0, pi/2] with Gauss-Legendre per angle and the
    spherical Jacobian prod_i sin(theta_i)^(k_j - 1 - i).
    """
    if k_j < 1:
        raise ValueError("k_j must be >= 1")
    if k_j == 1:
        return np.ones((1, 1)), np.ones(1)
    x, w = _gauss_jacobi(nodes, 0.0, 0.0)  # Gauss-Legendre on [0, 1]
    theta = 0.5 * math.pi * x
    wt = 0.5 * math.pi * w
    grids = np.meshgrid(*([theta] * (k_j - 1)), indexing="ij")
    Th = np.stack([g.reshape(-1) for g in grids], axis=1)  # (Q, k_j-1)
    wgrids = np.meshgrid(*([wt] * (k_j - 1)), indexing="ij")
    W = np.prod([g.reshape(-1) for g in wgrids], axis=0)
    for i in range(k_j - 1):
        W *= np.sin(Th[:, i]) ** (k_j - 2 - i)
    S = np.empty((Th.shape[0], k_j))
    sin_prod = np.ones(Th.shape[0])
    for i in range(k_j - 1):
        S[:, i] = np.cos(Th[:, i]) * sin_prod
        sin_prod = sin_prod * np.sin(Th[:, i])
    S[:, k_j - 1] = sin_prod
    return S, W


def complex_sphere_rule(k_j: int, spec: QuadratureSpec):
    """Combined rule on the unit sphere of C^k_j via xi = t * s.

    Returns (Xi, w) with Xi complex of shape (Q, k_j); the weights include
    the coordinate-change Jacobian s^(1,...,1), so sum(w * F(Xi))
    approximates the surface integral of F.
    """
    S, ws = positive_sphere_rule(k_j, spec.sphere_nodes)
    T, wt = torus_rule(k_j, spec.torus_nodes)
    Xi = T[None, :, :] * S[:, None, :]
    w = (ws * np.prod(S, axis=1))[:, None] * wt[None, :]
    return Xi.reshape(-1, k_j), w.reshape(-1)


# ---------------------------------------------------------------------------
# Haar-random unitaries and ball sampling
# ---------------------------------------------------------------------------


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Ginibre matrix)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    G = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    return Q * (diag / np.abs(diag))


def haar_unitary_batch(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of independent Haar unitaries, shape (count, d, d)."""
    G = (rng.standard_normal((count, d, d))
         + 1j * rng.standard_normal((count, d, d))) / math.sqrt(2)
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[:, None, :]


def haar_uk_sample(p: Partition, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary with independent Haar blocks of sizes k_j."""
    A = np.zeros((p.n, p.n), dtype=complex)
    for sl, kj in zip(p.block_slices(), p.k):
        A[sl, sl] = haar_unitary(kj, rng)
    return A


def sample_group(p: Partition, group: str, rng: np.random.Generator,
                 j: int | None = None) -> np.ndarray:
    """Random element of one of the named subgroups of U(n).

    ``group`` is one of ``"tm"`` (per-block scalar phases), ``"tn"``
    (diagonal phases), ``"uk"`` (block-diagonal unitaries), ``"ukjt"``
    (block-diagonal with block j replaced by a scalar phase) or ``"un"``.
    """
    n = p.n
    if group == "un":
        return haar_unitary(n, rng)
    if group == "tn":
        return np.diag(np.exp(2j * math.pi * rng.random(n)))
    if group == "tm":
        phases = np.exp(2j * math.pi * rng.random(p.m))
        d = np.concatenate([np.full(kj, ph) for kj, ph in zip(p.k, phases)])
        return np.diag(d)
    if group == "uk":
        return haar_uk_sample(p, rng)
    if group == "ukjt":
        if j is None or not 1 <= j <= p.m:
            raise ValueError("group 'ukjt' needs a block index j in 1..m")
        A = np.zeros((n, n), dtype=complex)
        for l, (sl, kj) in enumerate(zip(p.block_slices(), p.k), start=1):
            if l == j:
                A[sl, sl] = np.exp(2j * math.pi * rng.random()) * np.eye(kj)
            else:
                A[sl, sl] = haar_unitary(kj, rng)
        return A
    raise ValueError(f"unknown group label {group!r}")


def sample_ball(n: int, lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Points of B^n distributed per the normalized weighted measure.

    Under that measure z = sqrt(v) xi with xi uniform on the unit sphere of
    C^n and, independently, v = |z|^2 ~ Beta(n, lam + 1) (the weight
    (1 - |z|^2)^lam times the sphere-area factor v^(n-1)).  One gamma draw
    per point gives both (the gamma-ratio construction of a beta variate):
    for X ~ N(0, I_2n) and G ~ Gamma(lam + 1) independent, |X|^2 / 2 ~
    Gamma(n), so v = |X|^2 / (|X|^2 + 2G) ~ Beta(n, lam + 1); and X / |X| is
    uniform on the sphere and independent of |X|, hence of v.  So
    z = X / sqrt(|X|^2 + 2G), read as n complex coordinates, has the law
    above.
    """
    if not lam > -1:
        raise ValueError(f"lam must be > -1, got {lam}")
    X = rng.standard_normal((size, 2 * n))
    G = rng.standard_gamma(lam + 1.0, size)
    X /= np.sqrt(np.einsum("ij,ij->i", X, X) + 2.0 * G)[:, None]
    return X.view(complex)

