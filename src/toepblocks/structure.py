"""Verification analytics for block operators.

Each check measures how far a computed operator is from the structure its
symbol class dictates: exact block-diagonality over the isotypic slices,
constancy of the repeated single-block matrix, commutators, trace
identities against the Haar-averaged symbol, and normalized-trace
sequences.  Deterministic comparisons use an absolute tolerance; anything
involving a Monte Carlo estimate is judged against a 5-sigma band of the
propagated standard error (``sigma_band``).

A slice trace tr(T_a | P_kappa) is the ball expectation of a(z) K_kappa(z, z)
(``oracle_traces``).  By the multinomial theorem per block, the kernel
diagonal sum_{alpha in P_kappa} |e_alpha(z)|^2 depends on the block radii
r_j = |z_(j)| only: K_kappa(z, z) = G(n+lam+|kappa|+1) / G(n+lam+1) *
prod_j r_j^(2 kappa_j) / kappa_j!, that is r^(2 kappa) / ``monomial_norm_sq(n,
lam, kappa)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mindex import (
    Partition,
    dim_P,
    enumerate_basis,
    enumerate_multiindices,
    kappa_of,
    split_alpha,
)
from .quad import (
    DETERMINISTIC_TOL,
    QuadratureSpec,
    SIGMA_BAND,
    block_radii,
    haar_unitary_batch,
    radial_rule,
    sample_ball,
    substream,
)
from .symbols import QUASI_RADIAL, TM_INVARIANT, Symbol, act
from .toeplitz import (
    _ORACLE_CHUNK,
    _radial_contract,
    BlockOperator,
    assembly_path,
    gamma_quasi_radial,
    log_slice_prefactor,
    monomial_norm_sq,
    oracle_matrix,
    payload_chart,
    toeplitz_block_oracle,
    unitary_action_matrix,
)


@dataclass
class StructureReport:
    """Outcome of one structural check."""

    check: str
    passed: bool
    metrics: dict = field(default_factory=dict)
    per_kappa: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    expected_fail: bool = False

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": bool(self.passed),
            "expected_fail": bool(self.expected_fail),
            "metrics": _plain(self.metrics),
            "per_kappa": {",".join(map(str, k)) if isinstance(k, tuple) else str(k):
                          _plain(v) for k, v in self.per_kappa.items()},
            "tolerances": _plain(self.tolerances),
            "provenance": _plain(self.provenance),
        }


def sigma_band(stderr, scale):
    """SIGMA_BAND-sigma band, floored at the deterministic tolerance.

    The floor, relative to ``scale``, keeps a zero-variance estimate (a
    constant or radial integrand) from being judged by a zero-width band.
    Scalars and arrays alike; arrays are banded entrywise.
    """
    return np.maximum(SIGMA_BAND * stderr, DETERMINISTIC_TOL * (1.0 + abs(scale)))


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# block-diagonality
# ---------------------------------------------------------------------------


def offblock_leakage(a: Symbol, p: Partition, degree: int, lam: float,
                     spec: QuadratureSpec, rng=None) -> StructureReport:
    """Oracle estimate of the cross-slice entries <a e_alpha, e_beta>.

    For a block-torus invariant symbol every entry between different slices
    is zero, so the Monte Carlo estimates must sit inside their bands
    (``sigma_band``).  The report records the largest modulus and the
    largest modulus-to-stderr ratio over the off-block pairs.
    """
    rng = rng if rng is not None else substream(
        spec.seed, "offblock", a.name, repr(lam))
    alphas = enumerate_multiindices(p.n, degree)
    G, SE = oracle_matrix(a, alphas, alphas, lam, spec, rng)
    kappas = [kappa_of(al, p) for al in alphas]
    mask = np.array([[kb != ka for ka in kappas] for kb in kappas])
    off = np.abs(G)[mask]
    se = SE[mask]
    ratios = np.divide(off, se, out=np.zeros_like(off), where=se > 0)
    return StructureReport(
        check="offblock-leakage",
        passed=bool(np.all(off <= sigma_band(se, 0.0))),
        metrics={
            "max_abs": float(off.max()) if off.size else 0.0,
            "max_sigma_ratio": float(ratios.max()) if ratios.size else 0.0,
            "pairs": int(off.size),
        },
        tolerances={"sigma_band": SIGMA_BAND},
        provenance={"symbol": a.name, "lambda": lam, "degree": degree,
                    "samples": spec.ball_samples},
    )


# ---------------------------------------------------------------------------
# tensor block structure
# ---------------------------------------------------------------------------


def extract_M(T: BlockOperator, j: int, kappa):
    """Recover the repeated single-block matrix from a P_kappa block.

    The kappa block is partitioned by the multi-index outside block j; for an
    operator commuting with the circle-times-blocks group of block j the
    diagonal sub-blocks are all equal (under the slice identification) and
    the off-diagonal sub-blocks vanish.  Returns (M, residual) where M is
    the average diagonal sub-block and the residual is the maximum deviation
    of any diagonal sub-block from M plus the largest off-slice magnitude.
    """
    kappa = tuple(int(v) for v in kappa)
    if kappa not in T.blocks:
        raise ValueError(f"operator has no block for kappa={kappa}")
    p = T.partition
    basis = enumerate_basis(p, kappa)
    groups: dict = {}
    for idx, alpha in enumerate(basis):
        _, hat = split_alpha(alpha, p, j)
        groups.setdefault(hat, []).append(idx)
    slices = list(groups.values())
    d = len(slices[0])
    B = T.blocks[kappa]
    diag = [B[np.ix_(rows, rows)] for rows in slices]
    M = sum(diag) / len(diag)
    dev = max(float(np.max(np.abs(S - M))) for S in diag)
    off = 0.0
    for i, ri in enumerate(slices):
        for l, rl in enumerate(slices):
            if i != l:
                off = max(off, float(np.max(np.abs(B[np.ix_(ri, rl)]))))
    assert M.shape == (d, d)
    return M, dev + off


# ---------------------------------------------------------------------------
# commutators and traces
# ---------------------------------------------------------------------------


def commutator(Ta: BlockOperator, Tb: BlockOperator) -> dict:
    """Per-kappa Frobenius and spectral norms of [Ta, Tb]."""
    if not Ta.compatible_with(Tb):
        raise ValueError("operators do not share partition, lambda and degree")
    out = {}
    for kappa in Ta.kappas():
        A, B = Ta.blocks[kappa], Tb.blocks[kappa]
        C = A @ B - B @ A
        out[kappa] = {
            "frobenius": float(np.linalg.norm(C, "fro")),
            "spectral": float(np.linalg.norm(C, 2)),
        }
    return out


def block_traces(T: BlockOperator) -> dict:
    """kappa -> (trace, trace / dim) for every stored block."""
    out = {}
    for kappa in T.kappas():
        tr = complex(np.trace(T.blocks[kappa]))
        out[kappa] = (tr, tr / dim_P(T.partition, kappa))
    return out


# ---------------------------------------------------------------------------
# trace identities
# ---------------------------------------------------------------------------


def oracle_traces(a: Symbol, kappas, lam: float, spec: QuadratureSpec, rng):
    """Monte Carlo tr(T_a | P_kappa): one (trace, stderr) pair per kappa.

    Per-sample values are a(z) K_kappa(z, z) (module docstring).  Every
    kappa shares the same ``spec.ball_samples`` draws, so the estimates are
    correlated across slices; a chunk holds about ``_ORACLE_CHUNK`` values.
    """
    p = a.partition
    K = np.array(kappas, dtype=float).reshape(len(kappas), p.m, 1)
    inv_norms = 1.0 / np.array([monomial_norm_sq(p.n, lam, k) for k in kappas])
    N = spec.ball_samples
    chunk = max(1024, _ORACLE_CHUNK // max(len(kappas), 1))
    s1, s2 = np.zeros(len(kappas), dtype=complex), np.zeros(len(kappas))
    for done in range(0, N, chunk):
        Z = sample_ball(p.n, lam, min(chunk, N - done), rng)
        R2 = block_radii(Z, p).T ** 2  # (m, c)
        X = a(Z) * inv_norms[:, None] * np.prod(R2 ** K, axis=1)
        s1 += X.sum(axis=1)
        s2 += np.sum(np.abs(X) ** 2, axis=1)
    mean = s1 / N
    se = np.sqrt(np.maximum(s2 / N - np.abs(mean) ** 2, 0.0) / N)
    return [(complex(t), float(e)) for t, e in zip(mean, se)]


def _haar_trace(a: Symbol, kappa, lam: float, u_vectors, spec: QuadratureSpec,
                rng, n_samples: int):
    """Haar-times-radial estimate of tr(T_a | P_kappa) with its standard error.

    Each sampled block unitary A contributes the radial integral of
    a(r_1 A_1^{-1} u_1, ...), times the slice prefactor and dim P_kappa.
    The symbol is read on its own coordinates, per ``assembly_path``:

    * ``"diagonal-gamma"``: a(r_1 A_1^{-1} u_1, ...) = profile(r) for every
      A, so the result is dim P_kappa * ``gamma_quasi_radial`` with stderr
      0.0, and no unitary is drawn;
    * ``"f-form"`` / ``"g-form"``: the payload at the radial nodes and the
      directions xi_j = A_j^{-1} u_j of its block, through ``payload_chart``;
    * ``"oracle"``: the evaluator at the points r_j A_j^{-1} u_j.

    The last two draw ``n_samples`` unitaries per block, block by block in
    chunks of ``2_000_000 // Qr`` (Qr radial nodes) that ``_radial_contract``
    sums; on one stream a payload gives its evaluator's numbers to roundoff.
    """
    p = a.partition
    d = dim_P(p, kappa)
    path = assembly_path(a)
    if path == "diagonal-gamma":
        return d * gamma_quasi_radial(a.radial_profile, kappa, lam, p, spec), 0.0
    if path == "oracle":
        F = lambda r, *xi: a(np.concatenate(  # the points r_j xi_j in C^n
            [r[:, j0, None] * x for j0, x in enumerate(xi)], axis=1))
    else:
        F, coords = payload_chart(a, path)
    R, w = radial_rule(p, kappa, spec, lam)
    raw = np.empty(n_samples, dtype=complex)
    chunk = max(1, 2_000_000 // max(R.shape[0], 1))
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        # A_j^{-1} u_j per block, shape (c, k_j)
        V = [np.conj(np.swapaxes(haar_unitary_batch(kj, c, rng), -1, -2)) @ u
             for kj, u in zip(p.k, u_vectors)]
        args = V if path == "oracle" else coords(V[a.j - 1])
        raw[done:done + c] = _radial_contract(F, R, w, args)
    vals = d * math.exp(log_slice_prefactor(p, kappa, lam)) * raw
    mean = complex(vals.mean())
    return mean, float(np.sqrt(np.mean(np.abs(vals - mean) ** 2) / n_samples))


def trace_integral(a: Symbol, kappa, lam: float, u_vectors,
                   spec: QuadratureSpec, rng=None, n_samples: int | None = None):
    """Trace of T_a on P_kappa as a Haar-times-radial integral.

    ``u_vectors`` is one unit vector per block; the result does not depend
    on the choice (up to Monte Carlo error).  Returns (value, stderr).
    ``n_samples`` (default ``spec.haar_samples``, at least 1) Haar unitaries
    per block are drawn, except for a quasi-radial symbol with a profile:
    its integral is exact, with stderr 0.0 and no draws (``_haar_trace``).
    """
    p = a.partition
    kappa = tuple(int(v) for v in kappa)
    u_vectors = [np.asarray(u, dtype=complex) for u in u_vectors]
    if len(u_vectors) != p.m:
        raise ValueError("need one unit vector per block")
    for u, kj in zip(u_vectors, p.k):
        if u.shape != (kj,):
            raise ValueError("unit vector has wrong block dimension")
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("block vectors must be unit vectors")
    rng = rng if rng is not None else substream(
        spec.seed, "trace-integral", a.name, repr(lam), repr(kappa))
    N = int(n_samples if n_samples is not None else spec.haar_samples)
    if N < 1:
        raise ValueError(f"n_samples must be >= 1, got {N}")
    return _haar_trace(a, kappa, lam, u_vectors, spec, rng, N)


def trace_identity_check(a: Symbol, kappa, lam: float, spec: QuadratureSpec,
                         rng=None) -> StructureReport:
    """Block trace of T_a versus dim * gamma of the Haar-averaged symbol.

    The left side is the sampling-oracle trace; the right side averages the
    radial scalar over Haar samples of the block unitary group (the same
    construction that defines the averaged symbol; exact for a quasi-radial
    symbol, see ``_haar_trace``).  Agreement is required within a 5-sigma
    band of the combined standard errors.  The provenance records the path
    the right side took (``haar_path``, the symbol's ``assembly_path``) and
    the Haar unitaries it drew per block (``haar_samples``, 0 when exact).
    """
    p = a.partition
    kappa = tuple(int(v) for v in kappa)
    if not a.klass.implies(TM_INVARIANT):
        raise ValueError("trace identity needs a block-torus invariant symbol")
    d = dim_P(p, kappa)  # also rejects a malformed kappa
    rng = rng if rng is not None else substream(
        spec.seed, "trace-identity", a.name, repr(lam), repr(kappa))
    [(lhs, lhs_se)] = oracle_traces(a, [kappa], lam, spec, rng)
    u = [np.eye(kj, dtype=complex)[:, 0] for kj in p.k]
    rhs, rhs_se = _haar_trace(a, kappa, lam, u, spec, rng, spec.haar_samples)
    path = assembly_path(a)
    combined = math.hypot(lhs_se, rhs_se)
    diff = abs(lhs - rhs)
    return StructureReport(
        check="trace-identity",
        passed=diff <= sigma_band(combined, rhs),
        metrics={
            "block_trace": lhs,
            "block_trace_stderr": lhs_se,
            "dim_times_gamma": rhs,
            "gamma_stderr": rhs_se / d,
            "discrepancy": diff,
            "combined_stderr": combined,
            "sigma_ratio": diff / combined if combined > 0 else 0.0,
        },
        per_kappa={kappa: {"dim": d, "gamma_hat": rhs / d}},
        tolerances={"sigma_band": SIGMA_BAND},
        provenance={"symbol": a.name, "lambda": lam,
                    "haar_path": path,
                    "haar_samples": (0 if path == "diagonal-gamma"
                                     else spec.haar_samples),
                    "ball_samples": spec.ball_samples},
    )


# ---------------------------------------------------------------------------
# normalized trace sequences (single-block case)
# ---------------------------------------------------------------------------


@dataclass
class SequenceResult:
    values: np.ndarray
    stderr: np.ndarray
    oscillation: dict  # delta -> max |x_r - x_s| over close index ratios

    def to_dict(self) -> dict:
        return {
            "values": _plain(list(self.values)),
            "stderr": [float(v) for v in self.stderr],
            "oscillation": {str(k): float(v) for k, v in self.oscillation.items()},
        }


def sequence_ST(a: Symbol, lam: float, max_kappa: int, spec: QuadratureSpec,
                rng=None, deltas=(0.2, 0.1, 0.05)) -> SequenceResult:
    """Normalized block traces x_kappa = tr(T_a|P_kappa) / dim for m = 1.

    Also reports a slow-oscillation diagnostic: for each delta, the largest
    |x_r - x_s| over pairs whose shifted index ratio (r+1)/(s+1) lies within
    delta of 1.  Only finite diagnostics are computed; no claim is made
    about the limit behavior.
    """
    p = a.partition
    if p.m != 1:
        raise ValueError("trace sequences require the single-block partition")
    if not a.klass.implies(TM_INVARIANT):
        raise ValueError("trace sequences need a torus-invariant symbol")
    kappas = [(kap,) for kap in range(max_kappa + 1)]
    if a.radial_profile is not None and a.klass.implies(QUASI_RADIAL):
        xs = np.array([gamma_quasi_radial(a.radial_profile, k, lam, p, spec)
                       for k in kappas])
        ses = np.zeros(len(kappas))
    else:
        rng = rng if rng is not None else substream(
            spec.seed, "sequence", a.name, repr(lam))
        d = np.array([dim_P(p, k) for k in kappas])
        tr, se = zip(*oracle_traces(a, kappas, lam, spec, rng))
        xs, ses = np.array(tr) / d, np.array(se) / d
    osc = {}
    for delta in deltas:
        worst = 0.0
        for r in range(max_kappa + 1):
            for s in range(r + 1, max_kappa + 1):
                if (r + 1) / (s + 1) >= 1.0 - delta:
                    worst = max(worst, float(abs(xs[r] - xs[s])))
        osc[delta] = worst
    return SequenceResult(xs, ses, osc)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def equivariance_check(a: Symbol, A: np.ndarray, kappa, lam: float,
                       spec: QuadratureSpec, rng=None) -> StructureReport:
    """Compare R(A) T_a R(A)* against the operator of the rotated symbol.

    Both blocks are built by the sampling oracle with independent streams;
    the Frobenius residual must sit inside a 5-sigma band of the combined
    propagated standard errors.
    """
    p = a.partition
    kappa = tuple(int(v) for v in kappa)
    rng = rng if rng is not None else substream(
        spec.seed, "equivariance", a.name, repr(lam), repr(kappa))
    R = unitary_action_matrix(A, p, kappa)
    Ta, SEa = toeplitz_block_oracle(a, kappa, lam, spec, rng)
    rotated = act(A, a)
    Tb, SEb = toeplitz_block_oracle(rotated, kappa, lam, spec, rng)
    D = R @ Ta @ R.conj().T - Tb
    residual = float(np.linalg.norm(D, "fro"))
    P = np.abs(R) ** 2
    var_rot = P @ (SEa ** 2) @ P.T
    total_var = float(np.sum(var_rot) + np.sum(SEb ** 2))
    band = math.sqrt(total_var)
    return StructureReport(
        check="equivariance",
        passed=residual <= sigma_band(band, np.linalg.norm(Tb, "fro")),
        metrics={"residual": residual, "combined_stderr": band,
                 "sigma_ratio": residual / band if band > 0 else 0.0},
        per_kappa={kappa: {"residual": residual}},
        tolerances={"sigma_band": SIGMA_BAND},
        provenance={"symbol": a.name, "lambda": lam,
                    "samples": spec.ball_samples},
    )
