"""Truncated Toeplitz operators in the orthonormal monomial basis.

Operators are stored blockwise: one dense complex matrix per isotypic degree
vector kappa, rows and columns following the graded-lex basis enumeration.
Three assembly methods exist:

* ``oracle_matrix`` / ``toeplitz_block_oracle`` -- brute-force Monte Carlo
  against the weighted ball measure (works for every bounded symbol,
  carries standard errors); an oracle operator draws one sample set and
  estimates every slice block from it,
* ``toeplitz_block_f`` / ``toeplitz_block_g`` -- deterministic quadrature of
  the single-block matrix of a phase-invariant payload, f(r, xi) or its
  modulus/phase chart g(r, s, t) with xi = t * s, on one radial x
  phase-reduced sphere grid, with the off-slice entries exactly zero,
* ``gamma_quasi_radial`` + ``assemble_diagonal`` -- scalar action per block
  for symbols that depend on the block radii only.

``toeplitz_operator`` dispatches on ``assembly_path``.  Every radial rule is
contracted by ``_radial_contract``, in chunks of ``_CHUNK_BUDGET`` numbers.

Phase reduction: a payload on block j is invariant under a common phase on
xi_(j) (``_require_payload`` demands the class ``kj_quasi_homogeneous(j)``,
which ``symbols.from_f``/``from_g`` check on samples), and so is the
single-block integrand payload * xi^alpha * conj(xi)^beta with |alpha| =
|beta| = kappa_j.  The common phases exp(2 pi i l / torus_nodes) map the
equispaced torus grid onto itself, and each of their orbits holds exactly one
node with t_1 = 1, so on such an integrand the full sphere rule's sum equals
torus_nodes times the sum over its t_1 = 1 slice, exactly up to roundoff:
the kernel integrates over that slice only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.special import gammaln

from .mindex import (
    Partition,
    alpha_factorial,
    compositions,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    grlex_key,
)
from .quad import (
    DETERMINISTIC_TOL,
    QuadratureSpec,
    complex_sphere_rule,
    radial_rule,
    sample_ball,
    substream,
)
from .symbols import (
    _PAYLOAD_CHARTS,
    QUASI_RADIAL,
    TM_INVARIANT,
    Symbol,
    _is_block_diagonal,
    kj_quasi_homogeneous,
)


def monomial_norm_sq(n: int, lam: float, alpha) -> float:
    """Squared Bergman norm of z^alpha: alpha! G(n+lam+1) / G(n+lam+|alpha|+1)."""
    if not lam > -1:
        raise ValueError(f"lam must be > -1, got {lam}")
    alpha = tuple(int(a) for a in alpha)
    log = gammaln(n + lam + 1) - gammaln(n + lam + sum(alpha) + 1)
    log += sum(gammaln(a + 1) for a in alpha)
    return float(math.exp(log))


def _monomial_rows(Z: np.ndarray, alphas) -> np.ndarray:
    """Rows z^alpha over the sample points; shape (len(alphas), N)."""
    Z = np.atleast_2d(Z)
    A = np.asarray(list(alphas), dtype=int)
    out = np.ones((A.shape[0], Z.shape[0]), dtype=complex)
    for i in range(Z.shape[1]):
        d = A[:, i]
        mx = int(d.max()) if len(d) else 0
        if mx == 0:
            continue
        pw = np.empty((mx + 1, Z.shape[0]), dtype=complex)
        pw[0] = 1.0
        for e in range(1, mx + 1):
            pw[e] = pw[e - 1] * Z[:, i]
        out *= pw[d]
    return out


def orthonormal_rows(Z: np.ndarray, alphas, n: int, lam: float) -> np.ndarray:
    """Rows e_alpha(z) of the orthonormal monomial basis."""
    E = _monomial_rows(Z, alphas)
    norms = np.array([monomial_norm_sq(n, lam, a) for a in alphas])
    return E / np.sqrt(norms)[:, None]


@dataclass
class BlockOperator:
    """kappa-indexed family of dense matrices representing a truncation.

    ``blocks[kappa]`` is the matrix of the operator restricted to the slice
    P_kappa in the orthonormal basis, entry [row beta, col alpha] equal to
    <T e_alpha, e_beta>.  ``block_errors`` is a scalar error estimate per
    block (max standard error for Monte Carlo blocks, the nominal quadrature
    tolerance otherwise); ``block_stderr`` holds entrywise standard errors
    when the block came from the sampling oracle.
    """

    partition: Partition
    lam: float
    degree: int
    blocks: dict
    provenance: str
    block_errors: dict = field(default_factory=dict)
    block_stderr: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def kappas(self):
        return sorted(self.blocks.keys(), key=grlex_key)

    def block(self, kappa) -> np.ndarray:
        return self.blocks[tuple(kappa)]

    def compatible_with(self, other: "BlockOperator") -> bool:
        return (
            self.partition == other.partition
            and self.lam == other.lam
            and self.degree == other.degree
        )


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

_ORACLE_CHUNK = 400_000  # monomial-row-table entries per sampling chunk


def oracle_matrix(a: Symbol, alphas, betas, lam: float, spec: QuadratureSpec,
                  rng, n_samples: int | None = None, *, sizes=None):
    """Monte Carlo estimate of the Gram-type matrix <a e_alpha, e_beta>.

    Entries are expectations of a(z) e_alpha(z) conj(e_beta(z)) under the
    normalized weighted ball measure.  Returns (mean, stderr) with stderr
    the entrywise standard error of the mean.

    ``sizes`` splits ``alphas`` (which must then equal ``betas``) into
    consecutive slices, and only the square diagonal blocks are estimated:
    the result is a list of (mean, stderr) pairs, one per slice.  Every
    block comes from the same draws; each chunk of ball samples is drawn,
    evaluated by the symbol and turned into monomial rows once for all
    slices.  Each entry is still the mean of the same estimator over N
    samples, so its distribution is unchanged; blocks of different slices
    are correlated.  A chunk holds about ``_ORACLE_CHUNK`` row-table entries.
    """
    p = a.partition
    alphas = [tuple(al) for al in alphas]
    betas = [tuple(be) for be in betas]
    same = alphas == betas
    if sizes is None:
        cuts = [(slice(0, len(betas)), slice(0, len(alphas)))]
    elif same and sum(sizes) == len(alphas):
        ends = np.cumsum(sizes, dtype=int)
        cuts = [(slice(e - d, e),) * 2 for d, e in zip(sizes, ends)]
    else:
        raise ValueError("sizes must split alphas, and betas must equal "
                         "alphas")
    N = int(n_samples if n_samples is not None else spec.ball_samples)
    if N < 1:
        raise ValueError(f"n_samples must be >= 1, got {N}")
    rows = len(alphas) + (0 if same else len(betas))
    chunk = max(1024, min(N, _ORACLE_CHUNK // max(rows, 1)))
    S1 = [np.zeros((rb.stop - rb.start, ca.stop - ca.start), dtype=complex)
          for rb, ca in cuts]
    S2 = [np.zeros(s.shape) for s in S1]
    done = 0
    while done < N:
        c = min(chunk, N - done)
        Z = sample_ball(p.n, lam, c, rng)
        av = a(Z)
        Ea = orthonormal_rows(Z, alphas, p.n, lam)
        Eb = Ea if same else orthonormal_rows(Z, betas, p.n, lam)
        aEa = av * Ea  # (len(alphas), c)
        Pb = np.abs(Eb) ** 2
        Pa = np.abs(av) ** 2 * (Pb if same else np.abs(Ea) ** 2)
        for (rb, ca), s1, s2 in zip(cuts, S1, S2):
            s1 += np.conj(Eb[rb]) @ aEa[ca].T
            s2 += Pb[rb] @ Pa[ca].T
        done += c
    out = []
    for s1, s2 in zip(S1, S2):
        mean = s1 / N
        var = np.maximum(s2 / N - np.abs(mean) ** 2, 0.0)
        out.append((mean, np.sqrt(var / N)))
    return out if sizes is not None else out[0]


def toeplitz_block_oracle(a: Symbol, kappa, lam: float, spec: QuadratureSpec,
                          rng):
    """Monte Carlo estimate of the block of T_a on the slice P_kappa."""
    basis = enumerate_basis(a.partition, kappa)
    return oracle_matrix(a, basis.alphas, basis.alphas, lam, spec, rng)


# ---------------------------------------------------------------------------
# deterministic single-block paths
# ---------------------------------------------------------------------------

_CHUNK_BUDGET = 4_000_000  # numbers per radial or sphere evaluation chunk


def log_slice_prefactor(p: Partition, kappa, lam: float) -> float:
    """log[2^m G(n+lam+|kappa|+1) / (G(lam+1) prod_j G(k_j+kappa_j))].

    The closed-form Gamma prefactor that turns a radial integral against the
    block weight into a quantity on the slice P_kappa.
    """
    log_pref = p.m * math.log(2.0) + gammaln(p.n + lam + sum(kappa) + 1)
    log_pref -= gammaln(lam + 1)
    for kj, cj in zip(p.k, kappa):
        log_pref -= gammaln(kj + cj)
    return log_pref


def _radial_contract(F, R, w, args=()) -> np.ndarray:
    """sum_r w_r F(R_r, *(x_i for x in args)) per direction row i of args.

    With no args, the plain radial sum (one row).  A chunk of radial nodes
    holds at most ``_CHUNK_BUDGET`` radii, tiled args and values of F.
    """
    Qx = args[0].shape[0] if args else 1
    out = np.zeros(Qx, dtype=complex)
    cols = R.shape[1] + sum(x.shape[1] for x in args) + 1
    r_chunk = max(1, _CHUNK_BUDGET // (Qx * cols))
    for start in range(0, R.shape[0], r_chunk):
        Rc, wc = R[start:start + r_chunk], w[start:start + r_chunk]
        vals = F(np.repeat(Rc, Qx, axis=0),
                 *(np.tile(x, (len(Rc), 1)) for x in args))
        out += wc @ np.asarray(vals, complex).reshape(-1, Qx)
    return out


def _embed_single_block(M: np.ndarray, p: Partition, kappa, j: int) -> np.ndarray:
    """Kronecker-embed the block-j matrix M into the full P_kappa layout."""
    mats = []
    for l, (kl, cl) in enumerate(zip(p.k, kappa), start=1):
        if l == j:
            mats.append(M)
        else:
            mats.append(np.eye(math.comb(kl + cl - 1, cl), dtype=complex))
    return reduce(np.kron, mats)


def payload_chart(a: Symbol, path: str):
    """(payload, coords) of a symbol on the ``"f-form"`` or ``"g-form"`` path.

    ``coords(xi)`` is (xi,) for the f-form and ``phase_split(xi)`` = (s, t)
    for the g-form (``symbols._PAYLOAD_CHARTS``), so a(z) = payload(r,
    *coords(xi_(j))).  The payload is None when the symbol carries none.
    """
    field, coords = _PAYLOAD_CHARTS[path.removesuffix("-form")]
    return getattr(a, field), coords


def _require_payload(a: Symbol, j: int, path: str):
    payload, coords = payload_chart(a, path)
    if payload is None or a.j != j:
        raise ValueError(
            f"symbol {a.name!r} has no {path} payload on block {j}")
    if not a.klass.implies(kj_quasi_homogeneous(j)):
        raise ValueError(
            f"symbol {a.name!r} (class {a.klass.kind}) is not declared "
            f"invariant for the circle-times-blocks group of block {j}"
        )
    return payload, coords


def _single_block_matrix(payload, coords, p: Partition, j: int, kappa,
                         lam: float, spec: QuadratureSpec) -> np.ndarray:
    """Single-block matrix of a payload symbol on P_kappa.

    ``coords`` maps the complex sphere nodes Xi of block j to the payload's
    arguments after the radii.  Entry [beta_(j), alpha_(j)] carries the
    quadrature of payload(r, *coords(xi)) xi^alpha_(j) conj(xi)^beta_(j)
    against the radial weight and the sphere surface measure, times the
    closed-form prefactor.

    The payload must be invariant under a common phase on xi (the class
    ``kj_quasi_homogeneous(j)``); one that is not is integrated wrongly.
    The sphere rule is phase-reduced: of ``complex_sphere_rule``'s nodes
    only those with t_1 = 1 are kept, weights times torus_nodes.  The common
    torus phases permute the full rule's nodes, leave the integrand
    unchanged and meet t_1 = 1 once per orbit, so the full and the reduced
    sums agree up to roundoff.
    """
    kappa = tuple(int(v) for v in kappa)
    kj = p.k[j - 1]
    block_basis = list(compositions(kappa[j - 1], kj))
    R, wr = radial_rule(p, kappa, spec, lam)
    Xi, wxi = complex_sphere_rule(kj, spec)
    # per positive-sphere node keep the torus nodes with t_1 = 1 (the first
    # angle varies slowest), each standing for its Q_t-node orbit
    Qt = spec.torus_nodes
    keep = np.arange(Xi.shape[0]) % Qt**kj < Qt**(kj - 1)
    Xi, wxi = Xi[keep], wxi[keep] * Qt
    Wx = _radial_contract(payload, R, wr, coords(Xi)) * wxi
    inner = np.zeros((len(block_basis),) * 2, dtype=complex)  # [alpha, beta]
    # a sphere chunk holds X, X * Wx and conj(X.T)
    x_chunk = max(1, _CHUNK_BUDGET // (3 * len(block_basis)))
    for start in range(0, Xi.shape[0], x_chunk):
        X = _monomial_rows(Xi[start:start + x_chunk], block_basis)
        inner += (X * Wx[start:start + x_chunk]) @ np.conj(X.T)
    # slice prefactor times block j's sphere normalization G(k_j+kappa_j) /
    # (2 pi^k_j), over the monomial norms sqrt(alpha! beta!)
    base = log_slice_prefactor(p, kappa, lam) - math.log(2.0)
    base += gammaln(kj + kappa[j - 1]) - kj * math.log(math.pi)
    half_lg = np.array(
        [0.5 * math.log(alpha_factorial(b)) for b in block_basis]
    )
    return np.exp(base - half_lg[:, None] - half_lg[None, :]) * inner.T


def mblock_f(a: Symbol, j: int, kappa, lam: float, spec: QuadratureSpec
             ) -> np.ndarray:
    """Single-block matrix of T_a on P_kappa from the direction payload."""
    return _single_block_matrix(*_require_payload(a, j, "f-form"),
                                a.partition, j, kappa, lam, spec)


def mblock_g(a: Symbol, j: int, kappa, lam: float, spec: QuadratureSpec
             ) -> np.ndarray:
    """Single-block matrix from the modulus/phase payload g(r, s, t)."""
    return _single_block_matrix(*_require_payload(a, j, "g-form"),
                                a.partition, j, kappa, lam, spec)


def toeplitz_block_f(a: Symbol, j: int, kappa, lam: float,
                     spec: QuadratureSpec) -> np.ndarray:
    """Full P_kappa block for a direction-payload symbol on block j."""
    return _embed_single_block(mblock_f(a, j, kappa, lam, spec), a.partition,
                               kappa, j)


def toeplitz_block_g(a: Symbol, j: int, kappa, lam: float,
                     spec: QuadratureSpec) -> np.ndarray:
    """Full P_kappa block for a modulus/phase-payload symbol on block j."""
    return _embed_single_block(mblock_g(a, j, kappa, lam, spec), a.partition,
                               kappa, j)


def gamma_quasi_radial(profile, kappa, lam: float, p: Partition,
                       spec: QuadratureSpec) -> complex:
    """Scalar by which a block-radial symbol acts on the slice P_kappa.

    Equals the closed-form prefactor (``log_slice_prefactor``) times the
    radial integral of the profile against the block weight.
    """
    kappa = tuple(int(v) for v in kappa)
    radial = _radial_contract(profile, *radial_rule(p, kappa, spec, lam))[0]
    return complex(math.exp(log_slice_prefactor(p, kappa, lam)) * radial)


def assemble_diagonal(gamma, p: Partition, degree: int, lam: float
                      ) -> BlockOperator:
    """Block operator with block kappa equal to gamma(kappa) times identity."""
    blocks, errors = {}, {}
    for kappa in enumerate_kappas(p, degree):
        d = dim_P(p, kappa)
        blocks[kappa] = complex(gamma(kappa)) * np.eye(d, dtype=complex)
        errors[kappa] = 0.0
    return BlockOperator(p, lam, degree, blocks, "diagonal-gamma", errors)


def unitary_action_matrix(A: np.ndarray, p: Partition, kappa) -> np.ndarray:
    """Matrix of the substitution action f -> f(A^{-1} z) on the slice P_kappa.

    A must be block diagonal for the partition so the slice is preserved.
    Within a fixed-degree slice the orthonormal-basis matrix does not depend
    on the weight exponent: the Gamma factors in the norms cancel.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {A.shape} does not match n = {p.n}")
    if not _is_block_diagonal(A, p):
        raise ValueError("matrix must be block diagonal for the partition")
    if np.max(np.abs(A.conj().T @ A - np.eye(p.n))) > 1e-10:
        raise ValueError("matrix is not unitary to tolerance 1e-10")
    kappa = tuple(int(v) for v in kappa)
    if len(kappa) != p.m:
        raise ValueError(f"kappa length {len(kappa)} != m = {p.m}")
    mats = []
    for j0, (sl, kj) in enumerate(zip(p.block_slices(), p.k)):
        basis = list(compositions(kappa[j0], kj))
        index = {b: i for i, b in enumerate(basis)}
        B = A[sl, sl].conj().T
        d = len(basis)
        Rj = np.zeros((d, d), dtype=complex)
        sq = {b: math.sqrt(alpha_factorial(b)) for b in basis}
        for ai, al in enumerate(basis):
            poly = {(0,) * kj: 1.0 + 0.0j}
            for coord in range(kj):
                row = B[coord]
                for _ in range(al[coord]):
                    poly = _mul_linear(poly, row, kj)
            inv = 1.0 / sq[al]
            for be, c in poly.items():
                Rj[index[be], ai] = c * sq[be] * inv
        mats.append(Rj)
    return reduce(np.kron, mats)


def _mul_linear(poly: dict, row: np.ndarray, k: int) -> dict:
    out: dict = {}
    for mi, c in poly.items():
        for l in range(k):
            cl = row[l]
            if cl == 0:
                continue
            key = mi[:l] + (mi[l] + 1,) + mi[l + 1:]
            out[key] = out.get(key, 0.0 + 0.0j) + c * cl
    return out


def average_operator(T: BlockOperator, p: Partition, n_samples: int, rng
                     ) -> BlockOperator:
    """Haar average of R(A) T R(A)* over block-diagonal unitaries A.

    Traces are preserved per block (similarity invariance); the reported
    per-block error is the Frobenius distance to the nearest scalar matrix,
    which measures how far the finite average still is from the Haar limit.
    """
    if p != T.partition:
        raise ValueError("partition does not match the operator")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    from .quad import haar_uk_sample

    acc = {kappa: np.zeros_like(B) for kappa, B in T.blocks.items()}
    for _ in range(int(n_samples)):
        A = haar_uk_sample(p, rng)
        for kappa, B in T.blocks.items():
            R = unitary_action_matrix(A, p, kappa)
            acc[kappa] += R @ B @ R.conj().T
    blocks = {kappa: M / n_samples for kappa, M in acc.items()}
    errors = {}
    for kappa, B in blocks.items():
        d = B.shape[0]
        scal = np.trace(B) / d
        errors[kappa] = float(np.linalg.norm(B - scal * np.eye(d), "fro"))
    meta = dict(T.meta)
    meta["averaging_samples"] = int(n_samples)
    return BlockOperator(p, T.lam, T.degree, blocks, "averaged", errors,
                         meta=meta)


def assembly_path(a: Symbol) -> str:
    """The path ``toeplitz_operator`` takes for a symbol; also its provenance.

    ``"diagonal-gamma"`` for quasi-radial symbols with a radial profile,
    ``"f-form"`` / ``"g-form"`` for direction / modulus-phase payloads on
    one block, and ``"oracle"`` (the sampling oracle) for everything else.
    """
    if a.klass.implies(QUASI_RADIAL) and a.radial_profile is not None:
        return "diagonal-gamma"
    if a.j is not None and a.f_payload is not None:
        return "f-form"
    if a.j is not None and a.g_payload is not None:
        return "g-form"
    return "oracle"


def _effort(path: str, p: Partition, j, spec: QuadratureSpec) -> dict:
    """Grid nodes or ball samples behind each block of an operator.

    ``radial_nodes`` counts the radial grid (radial_nodes^m nodes),
    ``sphere_nodes`` block j's phase-reduced sphere grid
    ((sphere_nodes * torus_nodes)^(k_j - 1) nodes) and ``ball_samples`` the
    oracle's draws, which all of its blocks share.
    """
    if path == "oracle":
        return {"ball_samples": spec.ball_samples}
    effort = {"radial_nodes": spec.radial_nodes ** p.m}
    if path != "diagonal-gamma":
        grid = spec.sphere_nodes * spec.torus_nodes
        effort["sphere_nodes"] = grid ** (p.k[j - 1] - 1)
    return effort


def toeplitz_operator(a: Symbol, p: Partition, degree: int, lam: float,
                      spec: QuadratureSpec, rng=None) -> BlockOperator:
    """Assemble all blocks with |kappa| <= degree on the symbol's path.

    The path comes from ``assembly_path``.  The oracle path draws one sample
    stream per (symbol, lambda), ``rng`` or the substream (seed, "oracle",
    name, repr(lam)), and estimates all slice blocks from it.  For symbols
    without block-torus invariance the oracle result is the compression to
    total degree <= degree and a warning is recorded.  ``meta["effort"]``
    records the nodes or samples behind the blocks (``_effort``).
    """
    if a.partition != p:
        raise ValueError("symbol partition does not match")
    path = assembly_path(a)
    if path == "diagonal-gamma":
        op = assemble_diagonal(
            lambda kappa: gamma_quasi_radial(a.radial_profile, kappa, lam, p, spec),
            p, degree, lam)
        op.meta.update(symbol=a.name, seed=spec.seed,
                       effort=_effort(path, p, a.j, spec))
        return op
    warnings = []
    blocks, errors, stderrs = {}, {}, {}
    if path != "oracle":
        block = toeplitz_block_f if path == "f-form" else toeplitz_block_g
        for kappa in enumerate_kappas(p, degree):
            blocks[kappa] = block(a, a.j, kappa, lam, spec)
            errors[kappa] = DETERMINISTIC_TOL
    else:
        if not a.klass.implies(TM_INVARIANT):
            warnings.append(
                "symbol is not declared block-torus invariant: the result is "
                "the compression to total degree <= "
                f"{degree}; off-block entries are dropped"
            )
        kappas = enumerate_kappas(p, degree)
        bases = [enumerate_basis(p, kappa).alphas for kappa in kappas]
        rng = rng if rng is not None else substream(
            spec.seed, "oracle", a.name, repr(lam))
        alphas = [al for basis in bases for al in basis]
        estimates = oracle_matrix(a, alphas, alphas, lam, spec, rng,
                                  sizes=[len(basis) for basis in bases])
        for kappa, (G, SE) in zip(kappas, estimates):
            blocks[kappa] = G
            stderrs[kappa] = SE
            errors[kappa] = float(np.max(SE)) if SE.size else 0.0
    return BlockOperator(p, lam, degree, blocks, path, errors, stderrs,
                         meta={"symbol": a.name, "seed": spec.seed,
                               "warnings": warnings,
                               "effort": _effort(path, p, a.j, spec)})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT = "toepblocks.block-operator"
_VERSION = 1


def _matrix_to_pairs(M: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _pairs_to_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def operator_to_json(T: BlockOperator) -> dict:
    blocks = []
    for kappa in T.kappas():
        B = T.blocks[kappa]
        entry = {
            "kappa": list(kappa),
            "dim": B.shape[0],
            "matrix": _matrix_to_pairs(B),
            "error": float(T.block_errors.get(kappa, 0.0)),
        }
        if kappa in T.block_stderr:
            entry["stderr"] = [
                [float(v) for v in row] for row in T.block_stderr[kappa]
            ]
        blocks.append(entry)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "partition": list(T.partition.k),
        "lambda": float(T.lam),
        "degree": int(T.degree),
        "provenance": T.provenance,
        "meta": T.meta,
        "blocks": blocks,
    }


def operator_from_json(doc: dict) -> BlockOperator:
    if doc.get("format") != _FORMAT:
        raise ValueError("not a block-operator document")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    p = Partition(tuple(doc["partition"]))
    blocks, errors, stderrs = {}, {}, {}
    for entry in doc["blocks"]:
        kappa = tuple(int(v) for v in entry["kappa"])
        blocks[kappa] = _pairs_to_matrix(entry["matrix"])
        errors[kappa] = float(entry.get("error", 0.0))
        if "stderr" in entry:
            stderrs[kappa] = np.array(entry["stderr"])
    return BlockOperator(p, float(doc["lambda"]), int(doc["degree"]), blocks,
                         doc["provenance"], errors, stderrs,
                         meta=doc.get("meta", {}))


def save_operator(T: BlockOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_json(T), fh, indent=1)


def load_operator(path) -> BlockOperator:
    with open(path) as fh:
        return operator_from_json(json.load(fh))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def block_to_csv(T: BlockOperator, kappa, fh) -> None:
    """One CSV per block: beta labels across, alpha labels down."""
    kappa = tuple(int(v) for v in kappa)
    basis = enumerate_basis(T.partition, kappa)
    B = T.blocks[kappa]
    writer = csv.writer(fh)
    labels = [";".join(str(v) for v in al) for al in basis]
    writer.writerow(["alpha\\beta"] + labels)
    for col, al in enumerate(labels):
        writer.writerow([al] + [_fmt_complex(B[row, col]) for row in range(len(basis))])
