"""Truncated Toeplitz operators in the orthonormal monomial basis.

Operators are stored blockwise: one dense complex matrix per isotypic degree
vector kappa, rows and columns following the graded-lex basis enumeration.
Three assembly methods exist:

* ``oracle_matrix`` / ``toeplitz_block_oracle`` / ``oracle_operators`` --
  brute-force Monte Carlo against the weighted ball measure (works for every
  bounded symbol, carries standard errors); one sample set serves every
  slice block of every symbol in a list, and ``oracle_operators`` builds the
  oracle operators of one lambda from one such set,
* ``toeplitz_block_f`` / ``toeplitz_block_g`` -- deterministic quadrature of
  the single-block matrix of a phase-invariant payload, f(r, xi) or its
  modulus/phase chart g(r, s, t) with xi = t * s, on one radial x
  phase-reduced sphere grid, with the off-slice entries exactly zero,
* ``gamma_quasi_radial`` + ``assemble_diagonal`` -- scalar action per block
  for symbols that depend on the block radii only.

``toeplitz_operator`` dispatches on ``assembly_path``.  Radial sums go through
``_radial_contract`` and monomial Gram sums (sphere and torus rules) through
``_monomial_gram``, in chunks of ``_CHUNK_BUDGET`` numbers.

Phase reduction: a payload on block j is invariant under a common phase on
xi_(j) (``_require_payload`` demands the class ``kj_quasi_homogeneous(j)``,
which ``symbols.from_f``/``from_g`` check on samples), and so is the
single-block integrand payload * xi^alpha * conj(xi)^beta with |alpha| =
|beta| = kappa_j.  The common phases exp(2 pi i l / torus_nodes) map the
equispaced torus grid onto itself, and each of their orbits holds exactly one
node with t_1 = 1, so on such an integrand the full sphere rule's sum equals
torus_nodes times the sum over its t_1 = 1 slice, exactly up to roundoff:
the kernel integrates over that slice only (``_reduced_sphere_rule``), and
so does ``quasi_radialize`` on a block-torus invariant symbol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .mindex import (
    Partition,
    alpha_factorial,
    as_int,
    block_dims,
    compositions,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    grlex_key,
)
from .quad import (
    DETERMINISTIC_TOL,
    QuadratureSpec,
    RadialRuleError,
    _lgamma,
    block_radii,
    positive_sphere_rule,
    radial_rule,
    sample_ball,
    substream,
    torus_rule,
)
from .symbols import (
    _PAYLOAD_CHARTS,
    QUASI_RADIAL,
    TM_INVARIANT,
    Symbol,
    _is_block_diagonal,
    kj_quasi_homogeneous,
)


def log_monomial_norm_sq(n: int, lam: float, alpha) -> float:
    """log alpha! - sum_{i<=|alpha|} log(n+lam+i): ``monomial_norm_sq`` in logs.

    Accurate at any lam, and finite where the norm itself underflows.
    """
    if not lam > -1:
        raise ValueError(f"lam must be > -1, got {lam}")
    alpha = tuple(as_int(a, "exponent") for a in alpha)
    log = sum(_lgamma(a + 1) for a in alpha)
    return log - sum(math.log(n + lam + i) for i in range(1, sum(alpha) + 1))


def monomial_norm_sq(n: int, lam: float, alpha) -> float:
    """Squared Bergman norm of z^alpha: alpha! / prod_{i<=|alpha|} (n+lam+i).

    Accurate at any lam; raises RadialRuleError where it underflows to zero.
    """
    norm = math.exp(log_monomial_norm_sq(n, lam, alpha))
    if norm == 0.0:
        alpha = tuple(int(a) for a in alpha)
        raise RadialRuleError(f"the norm of z^{alpha} underflows to 0: "
                              f"lambda is too large for double precision")
    return norm


def _parent(alpha: tuple) -> tuple[tuple, int]:
    """(alpha minus one unit in its last nonzero coordinate i, i)."""
    i = len(alpha) - 1
    while not alpha[i]:
        i -= 1
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], i


def _row_plan(alphas) -> tuple:
    """How ``_rows_from_plan`` builds the rows z^alpha of ``alphas``:
    (number of rows asked for, number of rows built, steps).  Parents not
    asked for (``_parent``) get extra rows after the asked-for ones.  Steps
    run in order of total degree; a step (r, src, i) sets row r to 1 when
    src is None, to a copy of row src (a repeated alpha) when i is None,
    and to row src times z_i otherwise."""
    keys = [tuple(int(v) for v in al) for al in alphas]
    n_out = len(keys)
    known = set(keys)
    for al in keys[:n_out]:
        while any(al):
            al = _parent(al)[0]
            if al in known:
                break
            known.add(al)
            keys.append(al)
    built, steps = {}, []
    for r in sorted(range(len(keys)), key=lambda r: sum(keys[r])):
        al = keys[r]
        if al in built:
            steps.append((r, built[al], None))
        elif not any(al):
            steps.append((r, None, None))
        else:
            parent, i = _parent(al)
            steps.append((r, built[parent], i))
        built.setdefault(al, r)
    return n_out, len(keys), steps


def _rows_from_plan(Z: np.ndarray, plan) -> np.ndarray:
    """Rows z^alpha over the sample points, built by a ``_row_plan``; shape
    (number of alphas, N)."""
    n_out, n_rows, steps = plan
    Zt = np.atleast_2d(Z).T
    out = np.empty((n_out, Zt.shape[1]), dtype=complex)
    # the extra rows live in their own array, freed on return
    rows = [*out, *np.empty((n_rows - n_out, Zt.shape[1]), dtype=complex)]
    for r, src, i in steps:
        if src is None:
            rows[r].fill(1.0)
        elif i is None:
            rows[r][:] = rows[src]
        else:
            np.multiply(rows[src], Zt[i], out=rows[r])
    return out


def _monomial_rows(Z: np.ndarray, alphas) -> np.ndarray:
    """Rows z^alpha over the sample points; shape (len(alphas), N).

    Row alpha is its parent's row (``_parent``) times z_i, one multiply per
    row in order of total degree; parents not asked for are built in extra
    rows that are dropped on return.
    """
    return _rows_from_plan(Z, _row_plan(alphas))


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

_ORACLE_CHUNK = 1 << 16  # numbers per chunk: a 1 MiB complex array fits L2


def _oracle_chunk(width: int, n: int, N: int) -> int:
    """Ball samples per chunk of ``oracle_matrix``'s sample loop out of N:
    about ``_ORACLE_CHUNK`` numbers, ``width`` per-sample rows (the
    monomial rows, or the slice kernels when there are none) plus the n
    point coordinates, clipped to [1024, N].  The working set of a chunk is
    then cache-sized whatever N is, and it depends on ``width`` and n, not
    on the number of symbols."""
    return max(1024, min(N, _ORACLE_CHUNK // (width + n)))


def _shared_partition(symbols) -> Partition:
    """The partition of a non-empty list of symbols; all must share it."""
    p = symbols[0].partition
    if any(a.partition != p for a in symbols):
        raise ValueError("the symbols do not share one partition")
    return p


def _checked_slices(p: Partition, kappas) -> tuple[list, list]:
    """(kappas as tuples of ints, their dimensions dim P_kappa); a ValueError
    that names the first malformed slice (a float or negative entry, or a
    length other than m)."""
    out, dims = [], []
    for kappa in kappas:
        try:
            out.append(tuple(as_int(v, "kappa entry") for v in kappa))
            dims.append(dim_P(p, out[-1]))
        except (TypeError, ValueError) as err:
            raise ValueError(f"kappa {kappa!r} is not a slice of the "
                             f"partition {p.k}: {err}") from None
    return out, dims


def _sample_mean(s1, s2, N: int):
    """(mean, standard error of the mean) from the sums of N per-sample
    values and of their squared moduli."""
    mean = s1 / N
    return mean, np.sqrt(np.maximum(s2 / N - np.abs(mean) ** 2, 0.0) / N)


def _unit_scale(values) -> float:
    """A power of two near max |values|, or 1.0 when that is 0 or not
    finite.  Dividing by it is exact, and it keeps the squared moduli of
    tiny (or huge) values from underflowing (or overflowing)."""
    top = float(np.max(np.abs(values), initial=0.0))
    if not 0.0 < top < math.inf:
        return 1.0
    return math.ldexp(1.0, min(math.frexp(top)[1], 1023))


def oracle_matrix(symbols, alphas, sizes, lam: float, spec: QuadratureSpec,
                  rng, trace_kappas=None):
    """Monte Carlo estimates of the Gram-type blocks <a e_alpha, e_beta>,
    for every symbol a of ``symbols``, and of its slice traces.

    ``sizes`` splits ``alphas`` into consecutive slices, and only the square
    diagonal blocks are estimated: the result holds one list per symbol, in
    order, of (mean, stderr) pairs, one per slice, with stderr the entrywise
    standard error of the mean.  Entries are expectations of a(z) e_alpha(z)
    conj(e_beta(z)) under the normalized weighted ball measure, over
    ``spec.ball_samples`` draws.  Every block of every symbol comes from the
    same draws: each chunk of ball samples is drawn once, evaluated by every
    symbol, and then turned into monomial rows once for all symbols and
    slices.  Each entry is still the mean of the same estimator over N
    samples, so its distribution is unchanged; blocks of different slices,
    and of different symbols, are correlated (common random numbers).
    Chunks follow the oracle's one rule, ``_oracle_chunk(len(alphas) or
    len(trace_kappas), n, N)``: about ``_ORACLE_CHUNK`` per-sample rows and
    point coordinates, whatever the number of symbols or of samples, so a
    symbol's estimates are bit for bit those of a call with it alone.  An
    empty symbol list, or no rows and no trace slices, draws nothing.

    Each chunk's raw rows z^alpha are scaled in place to e_alpha = z^alpha /
    sqrt(monomial_norm_sq(n, lam, alpha)) before any product: at a large
    lam the raw rows are tiny (|z|^2 is about n / lam), and their products
    would underflow at half the degree at which the rows do.  For the same
    reason each symbol's values are divided by a power of two near their
    largest modulus on the first chunk (``_unit_scale``), and its means and
    stderrs multiplied back: exact, and the second moments of |z_1|^2 at
    lam 1e300 no longer underflow to a zero stderr.

    Given ``trace_kappas``, the same pass also estimates each symbol's slice
    traces tr(T_a | P_kappa), the ball mean of a(z) K_kappa(z, z), with the
    kernel diagonal in closed form (``structure``'s module docstring), in
    logs from the block sums of squares u_j = |z_(j)|^2: K_kappa(z, z) =
    exp(kappa . log u - log ``monomial_norm_sq(n, lam, kappa)``), since at
    a large lam that norm is subnormal and its reciprocal overflows.  A
    slice need not lie in ``alphas``.  Each symbol accumulates a(z)
    K_kappa(z, z) and its squared modulus, so a trace's stderr comes from
    those per-sample values, not from the blocks' entrywise stderrs
    (entries of one slice are correlated).  The result is then (blocks,
    traces), with traces one list per symbol of (trace, stderr) pairs, one
    per kappa; the blocks are bit for bit those of a call without
    ``trace_kappas``.  A malformed kappa raises ValueError before any draw.
    """
    if not symbols:
        return ([], []) if trace_kappas is not None else []
    p = _shared_partition(symbols)
    alphas = [tuple(al) for al in alphas]
    kappas = _checked_slices(
        p, [] if trace_kappas is None else trace_kappas)[0]
    ends = np.cumsum(sizes, dtype=int)
    cuts = [slice(e - d, e) for d, e in zip(sizes, ends)]
    N = spec.ball_samples
    chunk = _oracle_chunk(len(alphas) or len(kappas), p.n, N)
    scale = np.array([monomial_norm_sq(p.n, lam, al) for al in alphas]) ** -0.5
    plan = _row_plan(alphas)
    # block_of sums a chunk's squared real coordinates into u_j
    block_of = np.repeat(np.eye(p.m), 2 * np.array(p.k), axis=1)
    powers = np.array(kappas, dtype=float).reshape(len(kappas), p.m)
    log_norms = np.array([log_monomial_norm_sq(p.n, lam, k)
                          for k in kappas])[:, None]
    S1 = [[np.zeros((c.stop - c.start,) * 2, dtype=complex) for c in cuts]
          for _ in symbols]
    S2 = [[np.zeros(s.shape) for s in s1] for s1 in S1]
    T1 = np.zeros((len(symbols), len(kappas)), dtype=complex)
    T2 = np.zeros(T1.shape)
    units = [1.0] * len(symbols)  # set from the first chunk's values
    for done in range(0, N if alphas or kappas else 0, chunk):
        Z = sample_ball(p.n, lam, min(chunk, N - done), rng)
        values = [a(Z) for a in symbols]
        if not done:
            units = [_unit_scale(av) for av in values]
        E = _rows_from_plan(Z, plan)
        E *= scale[:, None]  # the e_alpha rows
        P = np.abs(E) ** 2
        if kappas:  # K_kappa(z, z) per trace slice, (len(kappas), c)
            X = Z.view(float)
            K = np.exp(powers @ np.log(block_of @ (X * X).T) - log_norms)
            K2 = K * K
        for i, (av, u, s1s, s2s) in enumerate(zip(values, units, S1, S2)):
            av = av / u
            a2 = np.abs(av) ** 2
            aE = av * E  # (len(alphas), c)
            np.conjugate(aE, out=aE)  # so S1 sums the conjugate first moment
            aP = a2 * P
            for cut, s1, s2 in zip(cuts, s1s, s2s):
                s1 += E[cut] @ aE[cut].T
                s2 += P[cut] @ aP[cut].T
            if kappas:
                T1[i] += K @ av
                T2[i] += K2 @ a2

    blocks = [[tuple(u * v for v in _sample_mean(np.conj(s1), s2, N))
               for s1, s2 in zip(s1s, s2s)]
              for u, s1s, s2s in zip(units, S1, S2)]
    if trace_kappas is None:
        return blocks
    mean, se = _sample_mean(T1, T2, N)
    return blocks, [[(complex(u * t), float(u * e)) for t, e in zip(m, sd)]
                    for u, m, sd in zip(units, mean, se)]


def toeplitz_block_oracle(symbols, kappa, lam: float, spec: QuadratureSpec,
                          rng):
    """Monte Carlo estimates of the blocks of T_a on the slice P_kappa, one
    (mean, stderr) pair per symbol a of ``symbols``, from shared draws
    (``oracle_matrix``)."""
    if not symbols:
        return []
    alphas = enumerate_basis(_shared_partition(symbols), kappa).alphas
    return [block for [block] in oracle_matrix(symbols, alphas, [len(alphas)],
                                               lam, spec, rng)]


# ---------------------------------------------------------------------------
# deterministic single-block paths
# ---------------------------------------------------------------------------

_CHUNK_BUDGET = 4_000_000  # numbers per radial, sphere or torus chunk


def log_slice_prefactor(p: Partition, kappa, lam: float) -> float:
    """log[2^m G(n+lam+|kappa|+1) / (G(lam+1) prod_j G(k_j+kappa_j))].

    The closed-form Gamma prefactor that turns a radial integral against the
    block weight into a quantity on the slice P_kappa.
    """
    log_pref = p.m * math.log(2.0) + _lgamma(p.n + lam + sum(kappa) + 1)
    log_pref -= _lgamma(lam + 1)
    for kj, cj in zip(p.k, kappa):
        log_pref -= _lgamma(kj + cj)
    return log_pref


def _radial_contract(F, nodes, w, args=()) -> np.ndarray:
    """sum_r w_r F(*(x_r for x in nodes), *(y_i for y in args)) per row i
    of args.

    ``nodes`` is a tuple of arrays whose rows are summed against w: the
    radii, or a sphere rule's nodes in a payload's chart.  With no args, the
    plain sum (one row).  A chunk of nodes holds at most ``_CHUNK_BUDGET``
    repeated nodes, tiled args and values of F.
    """
    Qx = args[0].shape[0] if args else 1
    out = np.zeros(Qx, dtype=complex)
    cols = sum(x.shape[1] for x in (*nodes, *args)) + 1
    chunk = max(1, _CHUNK_BUDGET // (Qx * cols))
    for start in range(0, len(w), chunk):
        part = [x[start:start + chunk] for x in nodes]
        vals = F(*(np.repeat(x, Qx, axis=0) for x in part),
                 *(np.tile(y, (len(part[0]), 1)) for y in args))
        out += w[start:start + chunk] @ np.asarray(vals, complex).reshape(-1, Qx)
    return out


def _embed_single_block(M: np.ndarray, p: Partition, kappa, j: int) -> np.ndarray:
    """Kronecker-embed the block-j matrix M into the full P_kappa layout."""
    mats = [np.eye(d, dtype=complex) for d in block_dims(p, kappa)]
    mats[j - 1] = M
    return reduce(np.kron, mats)


def _monomial_gram(U: np.ndarray, w: np.ndarray, basis, V=None) -> np.ndarray:
    """G[alpha, beta] = sum_t w_t U_t^alpha conj(V_t^beta); V defaults to U."""
    G = np.zeros((len(basis),) * 2, dtype=complex)
    # a chunk of nodes holds X, X * w and conj(Y.T), and Y when V is given
    chunk = max(1, _CHUNK_BUDGET // ((3 if V is None else 4) * len(basis)))
    for start in range(0, U.shape[0], chunk):
        X = _monomial_rows(U[start:start + chunk], basis)
        Y = X if V is None else _monomial_rows(V[start:start + chunk], basis)
        G += (X * w[start:start + chunk]) @ np.conj(Y.T)
    return G


def _require_payload(a: Symbol, j: int, path: str):
    """(payload, coords) of a symbol on the ``"f-form"`` or ``"g-form"`` path.

    ``coords(xi)`` is (xi,) for the f-form and ``phase_split(xi)`` = (s, t)
    for the g-form (``symbols._PAYLOAD_CHARTS``), so a(z) = payload(r,
    *coords(xi_(j))).  ValueError when the symbol carries no such payload on
    block j, or is not declared ``kj_quasi_homogeneous(j)``.
    """
    field, coords = _PAYLOAD_CHARTS[path.removesuffix("-form")]
    payload = getattr(a, field)
    if payload is None or a.j != j:
        raise ValueError(
            f"symbol {a.name!r} has no {path} payload on block {j}")
    if not a.klass.implies(kj_quasi_homogeneous(j)):
        raise ValueError(
            f"symbol {a.name!r} (class {a.klass.kind}) is not declared "
            f"invariant for the circle-times-blocks group of block {j}"
        )
    return payload, coords


def _reduced_sphere_rule(k_j: int, spec: QuadratureSpec):
    """(Xi, w): the phase-reduced mean rule on the unit sphere of C^k_j (see
    the module docstring): sum_i w_i g(Xi_i) is the mean of a phase-invariant
    g over the sphere, and the weights sum to 1.  Built directly as
    ``positive_sphere_rule(k_j)`` times (1, ``torus_rule(k_j - 1)``), with
    the weights times 2 pi (the dropped angle) over the sphere's area 2
    pi^k_j / G(k_j): (sphere_nodes * torus_nodes)^(k_j - 1) nodes, the
    single node 1 for k_j = 1.  Built once per (k_j, sphere_nodes,
    torus_nodes) in a process and shared: both arrays are read-only."""
    return _sphere_mean_rule(k_j, spec.sphere_nodes, spec.torus_nodes)


@lru_cache(maxsize=16)
def _sphere_mean_rule(k_j: int, sphere_nodes: int, torus_nodes: int):
    S, ws = positive_sphere_rule(k_j, sphere_nodes)
    T, wt = (torus_rule(k_j - 1, torus_nodes) if k_j > 1
             else (np.ones((1, 0)), np.ones(1)))
    T = np.hstack([np.ones((len(T), 1), dtype=complex), T])
    Xi = T[None, :, :] * S[:, None, :]
    scale = 2.0 * math.pi * math.gamma(k_j) / (2.0 * math.pi ** k_j)
    w = (ws * np.prod(S, axis=1))[:, None] * (wt * scale)[None, :]
    Xi, w = Xi.reshape(-1, k_j), w.reshape(-1)
    Xi.flags.writeable = w.flags.writeable = False
    return Xi, w


def _single_block_matrix(payload, coords, p: Partition, j: int, kappa,
                         lam: float, spec: QuadratureSpec) -> np.ndarray:
    """Single-block matrix of a payload symbol on P_kappa.

    ``coords`` maps the complex sphere nodes Xi of block j to the payload's
    arguments after the radii.  Entry [beta_(j), alpha_(j)] carries the
    quadrature of payload(r, *coords(xi)) xi^alpha_(j) conj(xi)^beta_(j)
    against the radial rule of P_kappa and block j's sphere mean rule
    (``_reduced_sphere_rule``), times the closed-form prefactor.

    The payload must be invariant under a common phase on xi (the class
    ``kj_quasi_homogeneous(j)``); one that is not is integrated wrongly.
    """
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    kj = p.k[j - 1]
    block_basis = list(compositions(kappa[j - 1], kj))
    R, wr = radial_rule(p, kappa, spec, lam)
    Xi, wxi = _reduced_sphere_rule(kj, spec)
    W = _radial_contract(payload, (R,), wr, coords(Xi)) * wxi
    inner = _monomial_gram(Xi, W, block_basis)  # [alpha, beta]
    # slice prefactor times G(k_j+kappa_j) / G(k_j), turning block j's sphere
    # mean into a slice entry, over the monomial norms sqrt(alpha! beta!)
    base = log_slice_prefactor(p, kappa, lam)
    base += _lgamma(kj + kappa[j - 1]) - _lgamma(kj)
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
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    R, w = radial_rule(p, kappa, spec, lam)
    radial = _radial_contract(profile, (R,), w)[0]
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

    A_jj acts on block j's tensor factor of P_kappa alone, so R(A) is the
    Kronecker product of the block factors (``block_dims``).  Entry [beta,
    alpha] of a factor is sqrt(beta!/alpha!) times the coefficient of t^beta
    in (A_jj^* t)^alpha: the torus mean of (A_jj^* t)^alpha conj(t^beta) on
    ``torus_rule(k_j, kappa_j + 1)``, which is exact for its characters
    t^gamma (every |gamma_i| <= kappa_j).  A fixed block gives I exactly.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {A.shape} does not match n = {p.n}")
    if not _is_block_diagonal(A, p):
        raise ValueError("matrix must be block diagonal for the partition")
    if np.max(np.abs(A.conj().T @ A - np.eye(p.n))) > 1e-10:
        raise ValueError("matrix is not unitary to tolerance 1e-10")
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    mats = []
    for sl, kj, cj, d in zip(p.block_slices(), p.k, kappa,
                             block_dims(p, kappa)):
        if np.array_equal(A[sl, sl], np.eye(kj)):
            mats.append(np.eye(d, dtype=complex))
            continue
        basis = list(compositions(cj, kj))
        T, w = torus_rule(kj, cj + 1)
        G = _monomial_gram(T @ np.conj(A[sl, sl]), w, basis, V=T)
        f = np.sqrt([float(alpha_factorial(b)) for b in basis])
        mats.append(G.T * (f[:, None] / f[None, :] / (2.0 * math.pi) ** kj))
    return reduce(np.kron, mats)


def average_operator(T: BlockOperator) -> BlockOperator:
    """Haar average of R(A) T R(A)* over block-diagonal unitaries A, exactly.

    Each slice P_kappa is irreducible under U(k) (a tensor product of the
    irreducible U(k_j)-modules of degree-kappa_j polynomials; Rudin, 1980),
    so by Schur's lemma the average is (tr(T|P_kappa) / dim P_kappa) I on
    every stored block, and nothing is drawn.  That scalar is the mean of the
    block's diagonal, so ``block_errors`` (an entry bound) carry over from T.
    """
    blocks = {kappa: np.trace(B) / len(B) * np.eye(len(B), dtype=complex)
              for kappa, B in T.blocks.items()}
    meta = {k: v for k, v in T.meta.items() if k != "averaging_samples"}
    return BlockOperator(T.partition, T.lam, T.degree, blocks, "averaged",
                         dict(T.block_errors), meta=meta)


def quasi_radialize(a: Symbol, spec: QuadratureSpec) -> Symbol:
    """The associated U(k)-invariant symbol: the Haar mean of a(A z) over the
    block unitaries A, declared quasi-radial with a's bound; nothing is drawn.

    That mean is the mean of a(r_1 xi_1, ..., r_m xi_m) over the blocks'
    unit spheres, which the phase-reduced rules (``_reduced_sphere_rule``)
    compute for a block-torus invariant a.  A quasi-radial symbol with a
    profile is returned as it is.  A single-block f or g payload is averaged
    over block j's rule: (sphere_nodes * torus_nodes)^(k_j - 1) nodes per
    query radius.  Any other symbol is evaluated on the product of every
    block's rule: (sphere_nodes * torus_nodes)^(n - m) nodes per query
    radius, 147456 on (2, 2) at the default counts.  The profile sums over
    the sphere nodes, each put in the payload's chart once, in
    ``_radial_contract``, the query radii as its rows.
    ValueError when a is not declared block-torus invariant.
    """
    path = assembly_path(a)
    if path == "diagonal-gamma":
        return a
    if not a.klass.implies(TM_INVARIANT):
        raise ValueError(f"symbol {a.name!r} (class {a.klass.kind}) is not "
                         f"declared block-torus invariant")
    p = a.partition
    if path == "oracle":
        blocks, coords = p.k, lambda X: (X,)
        F = lambda X, r: a(X * np.repeat(r, p.k, axis=1))  # z_(j) = r_j xi_j
    else:
        payload, coords = _require_payload(a, a.j, path)
        blocks = (p.k[a.j - 1],)
        F = lambda *x: payload(x[-1], *x[:-1])  # the chart of xi, then r
    rules = [_reduced_sphere_rule(kj, spec) for kj in blocks]
    # the product rule over the blocks, block 1 outermost
    idx = np.indices([len(w) for _, w in rules]).reshape(len(rules), -1)
    Xi = np.concatenate([X[i] for (X, _), i in zip(rules, idx)], axis=1)
    w = np.prod([wj[i] for (_, wj), i in zip(rules, idx)], axis=0)
    nodes = coords(Xi)  # the chart once per sphere node; s stays real

    def profile(r):
        return _radial_contract(F, nodes, w, (np.atleast_2d(r),))

    return Symbol(p, lambda Z: profile(block_radii(Z, p)), QUASI_RADIAL,
                  a.bound, name=f"avg({a.name})", radial_profile=profile)


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


def oracle_operators(symbols, degree: int, lam: float, spec: QuadratureSpec,
                     rng=None) -> list:
    """Oracle operators of every symbol of ``symbols``, in order, from one draw.

    All blocks with |kappa| <= degree of every operator come from one
    ``oracle_matrix`` call on ``rng`` or the substream (seed, "oracle",
    repr(lam)), so the operators of one lambda share their ball samples
    (common random numbers).  The draw's chunks depend on the slices only,
    so an operator is bit for bit the one built for its symbol alone.  For a
    symbol without block-torus invariance the result is the compression to
    total degree <= degree and a warning is recorded.  An empty list draws
    nothing; symbols on different partitions raise ValueError.
    """
    if not symbols:
        return []
    p = _shared_partition(symbols)
    kappas = enumerate_kappas(p, degree)
    bases = [enumerate_basis(p, kappa).alphas for kappa in kappas]
    rng = rng if rng is not None else substream(spec.seed, "oracle",
                                                repr(lam))
    estimates = oracle_matrix(symbols, [al for basis in bases for al in basis],
                              [len(basis) for basis in bases], lam, spec, rng)
    ops = []
    for a, per_slice in zip(symbols, estimates):
        warnings = [] if a.klass.implies(TM_INVARIANT) else [
            "symbol is not declared block-torus invariant: the result is "
            f"the compression to total degree <= {degree}; off-block "
            "entries are dropped"]
        blocks, errors, stderrs = {}, {}, {}
        for kappa, (G, SE) in zip(kappas, per_slice):
            blocks[kappa] = G
            stderrs[kappa] = SE
            errors[kappa] = float(np.max(SE)) if SE.size else 0.0
        ops.append(BlockOperator(
            p, lam, degree, blocks, "oracle", errors, stderrs,
            meta={"symbol": a.name, "seed": spec.seed, "warnings": warnings,
                  "effort": _effort("oracle", p, a.j, spec)}))
    return ops


def toeplitz_operator(a: Symbol, degree: int, lam: float, spec: QuadratureSpec,
                      rng=None) -> BlockOperator:
    """Assemble all blocks with |kappa| <= degree on the symbol's path.

    The path comes from ``assembly_path``; the oracle path is
    ``oracle_operators([a], ...)``, on ``rng`` or the substream (seed,
    "oracle", repr(lam)) that every oracle operator of that lambda shares.
    ``meta["effort"]`` records the nodes or samples behind the blocks
    (``_effort``).
    """
    p = a.partition
    path = assembly_path(a)
    if path == "oracle":
        return oracle_operators([a], degree, lam, spec, rng)[0]
    if path == "diagonal-gamma":
        op = assemble_diagonal(
            lambda kappa: gamma_quasi_radial(a.radial_profile, kappa, lam, p, spec),
            p, degree, lam)
        op.meta.update(symbol=a.name, seed=spec.seed, warnings=[],
                       effort=_effort(path, p, a.j, spec))
        return op
    block = toeplitz_block_f if path == "f-form" else toeplitz_block_g
    blocks, errors = {}, {}
    for kappa in enumerate_kappas(p, degree):
        blocks[kappa] = block(a, a.j, kappa, lam, spec)
        errors[kappa] = DETERMINISTIC_TOL
    return BlockOperator(p, lam, degree, blocks, path, errors,
                         meta={"symbol": a.name, "seed": spec.seed,
                               "warnings": [],
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
    """Inverse of ``operator_to_json``; ValueError names a non-integer
    partition, degree or kappa entry, and a block whose kappa is repeated or
    out of range, or whose matrix, dim or stderr misfits it."""
    if doc.get("format") != _FORMAT:
        raise ValueError("not a block-operator document")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    p = Partition(tuple(doc["partition"]))
    degree = as_int(doc["degree"], "degree")
    slices = set(enumerate_kappas(p, degree))
    blocks, errors, stderrs = {}, {}, {}
    for entry in doc["blocks"]:
        kappa = tuple(as_int(v, "kappa entry") for v in entry["kappa"])
        where = f"block kappa={list(kappa)}"
        if kappa not in slices or kappa in blocks:
            raise ValueError(f"{where} is repeated or not a slice of partition "
                             f"{list(p.k)} with |kappa| <= {degree}")
        d = dim_P(p, kappa)
        M = _pairs_to_matrix(entry["matrix"])
        SE = np.array(entry.get("stderr", M.real))
        if M.shape != (d, d) or SE.shape != (d, d) or entry.get("dim", d) != d:
            raise ValueError(f"{where}: expected {d} x {d}, got matrix "
                             f"{M.shape}, stderr {SE.shape}, "
                             f"dim {entry.get('dim')!r}")
        blocks[kappa] = M
        errors[kappa] = float(entry.get("error", 0.0))
        if "stderr" in entry:
            stderrs[kappa] = SE
    return BlockOperator(p, float(doc["lambda"]), degree, blocks,
                         doc["provenance"], errors, stderrs,
                         meta=doc.get("meta", {}))


def save_operator(T: BlockOperator, path) -> None:
    # json.dumps, not json.dump: only a one-shot dumps uses the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(operator_to_json(T)))


def load_operator(path) -> BlockOperator:
    with open(path) as fh:
        return operator_from_json(json.load(fh))
