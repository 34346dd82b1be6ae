"""Verification analytics for block operators.

Each check measures how far a computed operator is from the structure its
symbol class dictates: exact block-diagonality over the isotypic slices,
constancy of the repeated single-block matrix, commutators, trace
identities tr(T_a | P_kappa) = dim P_kappa * gamma_kappa of the associated
U(k)-invariant symbol (one Haar-trace entry point, ``trace_integral``, exact
by ``quasi_radialize`` on every path but the oracle's), equivariance of a
given operator under the block unitary action, and normalized-trace
sequences.  Operator identities use the absolute tolerance
``RESIDUAL_TOL``, Monte Carlo estimates a 5-sigma band of the propagated
standard error (``sigma_band``); ``gate_report`` builds every gating report
from its discrepancy over that tolerance.

A slice trace tr(T_a | P_kappa) is the ball expectation of a(z) K_kappa(z, z),
estimated by ``toeplitz.oracle_matrix``'s one pass (``oracle_traces``, or
offblock's Gram pass with ``trace_kappas``).  By the multinomial theorem per
block, the kernel diagonal sum_{alpha in P_kappa} |e_alpha(z)|^2 depends on
the block radii r_j = |z_(j)| only: K_kappa(z, z) = G(n+lam+|kappa|+1) /
G(n+lam+1) * prod_j r_j^(2 kappa_j) / kappa_j!, that is r^(2 kappa) /
``monomial_norm_sq(n, lam, kappa)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mindex import (as_int, block_dims, dim_P, enumerate_multiindices,
                     kappa_of)
from .quad import (
    DETERMINISTIC_TOL,
    QuadratureSpec,
    SIGMA_BAND,
    haar_unitary_batch,
    radial_rule,
    substream,
)
from .symbols import QUASI_RADIAL, TM_INVARIANT, Symbol, act
from .toeplitz import (
    _checked_slices,
    _radial_contract,
    _shared_partition,
    BlockOperator,
    assembly_path,
    gamma_quasi_radial,
    log_slice_prefactor,
    oracle_matrix,
    quasi_radialize,
    toeplitz_block_oracle,
    unitary_action_matrix,
)

RESIDUAL_TOL = 1e-6  # tensor-constancy residual and commuting-pair norm
WITNESS_NORM = 1e-2  # a larger commutator norm exhibits a non-commuting pair


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


def gate_report(check: str, ratio, metrics: dict, failed_as_expected=None,
                vacuous=False, **fields) -> StructureReport:
    """A gate's report: ``passed`` is ``ratio <= 1``, recorded as
    ``metrics.tolerance_ratio`` (discrepancy over tolerance).  A negative
    control gives ``failed_as_expected``: the report is ``expected_fail``
    and records it as given.  A control whose test is empty, so that it
    cannot fail, also gives ``vacuous``, recorded as ``metrics.vacuous``.
    """
    metrics = {**metrics, "tolerance_ratio": float(ratio)}
    if failed_as_expected is not None:
        metrics["failed_as_expected"] = bool(failed_as_expected)
        if vacuous:
            metrics["vacuous"] = True
    return StructureReport(check, float(ratio) <= 1.0, metrics,
                           expected_fail=failed_as_expected is not None,
                           **fields)


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


def offblock_leakage(symbols, degree: int, lam: float, spec: QuadratureSpec,
                     rng=None, trace_kappas=None):
    """Oracle estimates of the cross-slice entries <a e_alpha, e_beta>, one
    report per symbol a of ``symbols``, in that order.

    For a block-torus invariant symbol every entry between different slices
    is zero, so the Monte Carlo estimates must sit inside their bands
    (``sigma_band``); any other symbol is a control, vacuous at degree 0,
    where there is no off-block pair.  A report records the largest
    modulus and modulus-to-stderr ratio over the off-block pairs.  One
    ``oracle_matrix`` call serves every symbol from one draw, on ``rng`` or
    the substream (seed, "offblock", repr(lam)), so the reports of one
    lambda are correlated: a calibration counts false fails per lambda.

    Given ``trace_kappas``, the same pass also gives every symbol's slice
    traces (``oracle_matrix``'s ``trace_kappas``), and the result is
    (reports, traces): these are the left sides ``trace_identity_check``
    takes as ``lhs``, so that both checks of a lambda read one draw.  The
    reports are bit for bit those of a call without it.
    """
    if not symbols:
        return ([], []) if trace_kappas is not None else []
    p = _shared_partition(symbols)
    rng = rng if rng is not None else substream(spec.seed, "offblock",
                                                repr(lam))
    alphas = enumerate_multiindices(p.n, degree)
    # by keyword: bench/tracer.py counts a seventh positional argument as
    # the oracle's sample count
    estimates = oracle_matrix(symbols, alphas, [len(alphas)], lam, spec, rng,
                              trace_kappas=trace_kappas)
    if trace_kappas is not None:
        estimates, traces = estimates
    kappas = [kappa_of(al, p) for al in alphas]
    mask = np.array([[kb != ka for ka in kappas] for kb in kappas])
    reports = []
    for a, [(G, SE)] in zip(symbols, estimates):
        off = np.abs(G)[mask]
        se = SE[mask]
        ratios = np.divide(off, se, out=np.zeros_like(off), where=se > 0)
        ratio = float(np.max(off / sigma_band(se, 0.0), initial=0.0))
        reports.append(gate_report(
            "offblock-leakage", ratio,
            {"max_abs": float(off.max(initial=0.0)),
             "max_sigma_ratio": float(ratios.max(initial=0.0)),
             "pairs": int(off.size)},
            None if a.klass.implies(TM_INVARIANT) else ratio > 1.0,
            vacuous=off.size == 0, tolerances={"sigma_band": SIGMA_BAND},
            provenance={"symbol": a.name, "lambda": lam, "degree": degree,
                        "samples": spec.ball_samples},
        ))
    return reports if trace_kappas is None else (reports, traces)


# ---------------------------------------------------------------------------
# tensor block structure
# ---------------------------------------------------------------------------


def _stored_slice(kappa, *ops) -> tuple:
    """kappa as a tuple of ints; ValueError when one of ``ops`` lacks it."""
    kappa = tuple(as_int(v, "kappa entry") for v in kappa)
    if any(kappa not in T.blocks for T in ops):
        raise ValueError(f"operator has no block for kappa={kappa}")
    return kappa


def extract_M(T: BlockOperator, j: int, kappa):
    """Recover the repeated single-block matrix from a P_kappa block.

    P_kappa is a Kronecker product (``block_dims``), so the kappa block
    reshapes to d_j x d_j sub-blocks B[i, l], i and l indexing the other
    blocks' bases.  An operator commuting with the circle-times-blocks group
    of block j is M_kappa (x) I there: every B[i, i] is M_kappa, the rest 0.
    Returns (M, residual): M is the mean of the B[i, i], the residual the
    largest deviation of a B[i, i] from M plus the largest entry of any
    B[i, l] with i != l.
    """
    kappa = _stored_slice(kappa, T)
    p = T.partition
    if not 1 <= j <= p.m:
        raise ValueError(f"block index {j} out of range 1..{p.m}")
    dims = block_dims(p, kappa)
    d = dims[j - 1]
    h = dim_P(p, kappa) // d
    B = np.moveaxis(T.blocks[kappa].reshape(dims + dims),
                    (j - 1, p.m + j - 1), (-2, -1)).reshape(h, h, d, d)
    diag = B[np.arange(h), np.arange(h)]
    M = diag.mean(axis=0)
    off = np.abs(B).max(axis=(2, 3))  # largest entry per sub-block
    np.fill_diagonal(off, 0.0)
    return M, float(np.max(np.abs(diag - M))) + float(off.max())


def tensor_constancy_check(T: BlockOperator, a: Symbol,
                           kappas) -> StructureReport:
    """Each P_kappa block of T_a is M_kappa (x) I (``extract_M``).

    A payload symbol is tested on its block j, a quasi-radial one on block
    1 (its blocks are scalar, constant for every j); both must stay within
    ``RESIDUAL_TOL``.  Any other symbol is only torus invariant: a control,
    vacuous when every slice's factors other than block j's have dimension
    1 (m = 1, or degree 0), where the residual is 0 for every operator.
    """
    if a.j is not None and assembly_path(a) != "oracle":
        j, control = a.j, False
    else:
        j, control = 1, not a.klass.implies(QUASI_RADIAL)
    per = {kappa: {"residual": extract_M(T, j, kappa)[1]} for kappa in kappas}
    worst = max(v["residual"] for v in per.values())
    p = T.partition
    return gate_report(
        "tensor-constancy", worst / RESIDUAL_TOL, {"max_residual": worst},
        worst > RESIDUAL_TOL if control else None,
        vacuous=all(dim_P(p, k) == block_dims(p, k)[j - 1] for k in kappas),
        per_kappa=per,
        tolerances={"residual": RESIDUAL_TOL},
        provenance={"symbol": a.name, "lambda": T.lam, "j": j})


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


def commutator_check(Ta: BlockOperator, a: Symbol, Tb: BlockOperator,
                     b: Symbol) -> StructureReport:
    """T_a and T_b commute when a or b is quasi-radial or they live on
    different blocks: every [T_a, T_b] block within ``RESIDUAL_TOL``
    (Frobenius).  Any other pair is a control, which failed as expected
    when some block's norm exceeds ``WITNESS_NORM``.
    """
    should_commute = (a.klass.implies(QUASI_RADIAL)
                      or b.klass.implies(QUASI_RADIAL)
                      or (a.j is not None and b.j is not None and a.j != b.j))
    norms = commutator(Ta, Tb)
    worst = max(v["frobenius"] for v in norms.values())
    return gate_report(
        "commutator", worst / RESIDUAL_TOL,
        {"max_frobenius": worst, "should_commute": should_commute},
        None if should_commute else worst > WITNESS_NORM, per_kappa=norms,
        tolerances={"commuting": RESIDUAL_TOL, "witness": WITNESS_NORM},
        provenance={"a": a.name, "b": b.name, "lambda": Ta.lam})


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


def oracle_traces(symbols, kappas, lam: float, spec: QuadratureSpec, rng):
    """Monte Carlo tr(T_a | P_kappa) for every symbol a of ``symbols``: one
    list per symbol, in order, of (trace, stderr) pairs, one per kappa.

    Per-sample values are a(z) K_kappa(z, z) (module docstring), from
    ``oracle_matrix``'s pass with no monomial rows: every symbol and kappa
    shares the same ``spec.ball_samples`` draws from ``rng``, in chunks of
    ``toeplitz._oracle_chunk(len(kappas), n, N)``, so the estimates are
    correlated across slices and symbols, and a symbol's estimates are bit
    for bit those of a call with it alone.  An empty list of symbols or of
    slices draws nothing; a malformed slice raises ValueError before any
    draw.
    """
    return oracle_matrix(symbols, [], [], lam, spec, rng,
                         trace_kappas=kappas)[1]


def trace_integral(a: Symbol, kappas, lam: float, spec: QuadratureSpec,
                   rng=None) -> list:
    """tr(T_a | P_kappa) for each slice of ``kappas``, in order, as a
    Haar-times-radial integral: one (value, stderr) pair per slice.

    The Haar mean over block unitaries A of a(r_1 A_1^{-1} e_1, ...) is the
    associated U(k)-invariant symbol a~, since A_j^{-1} e_1 is uniform on
    block j's sphere.  On the ``"diagonal-gamma"``, ``"f-form"`` and
    ``"g-form"`` paths a~ is ``quasi_radialize(a, spec)``, formed once, and
    a value is the trace theorem, dim P_kappa * ``gamma_quasi_radial`` of
    a~'s profile, with stderr 0.0.  On the ``"oracle"`` path the evaluator
    is averaged at r_j A_j^{-1} e_1 (the conjugated first row of A_j) over
    ``spec.haar_samples`` draws of A per slice, in chunks of
    ``2_000_000 // Qr`` (Qr radial nodes), from ``rng`` slice after slice or
    from each slice's substream (seed, "trace-integral", name, repr(lam),
    repr(kappa)).  Every slice is validated first.
    """
    p = a.partition
    kappas, dims = _checked_slices(p, kappas)
    if assembly_path(a) != "oracle":
        profile = quasi_radialize(a, spec).radial_profile
        return [(d * gamma_quasi_radial(profile, kappa, lam, p, spec), 0.0)
                for kappa, d in zip(kappas, dims)]
    F = lambda r, *xi: a(np.concatenate(  # the points r_j xi_j in C^n
        [r[:, j0, None] * x for j0, x in enumerate(xi)], axis=1))
    n_samples = spec.haar_samples
    out = []
    for kappa, d in zip(kappas, dims):
        slice_rng = rng if rng is not None else substream(
            spec.seed, "trace-integral", a.name, repr(lam), repr(kappa))
        R, w = radial_rule(p, kappa, spec, lam)
        raw = np.empty(n_samples, dtype=complex)
        chunk = max(1, 2_000_000 // max(R.shape[0], 1))
        for done in range(0, n_samples, chunk):
            c = min(chunk, n_samples - done)
            V = [np.conj(haar_unitary_batch(kj, c, slice_rng)[:, 0, :])
                 for kj in p.k]  # A_j^{-1} e_1 per block, shape (c, k_j)
            raw[done:done + c] = _radial_contract(F, (R,), w, V)
        vals = d * math.exp(log_slice_prefactor(p, kappa, lam)) * raw
        mean = complex(vals.mean())
        out.append((mean, float(np.sqrt(np.mean(np.abs(vals - mean) ** 2)
                                         / n_samples))))
    return out


def trace_identity_check(symbols, kappas, lam: float, spec: QuadratureSpec,
                         rng=None, lhs=None, rhs=None) -> list:
    """Block trace of T_a versus dim * gamma of the Haar-averaged symbol,
    for every symbol a of ``symbols``: one report per (symbol, slice of
    ``kappas``), symbol-major, both in list order.

    The left sides are sampling-oracle traces from one ball draw per
    lambda, so the reports of one lambda share their draws and their errors
    are correlated: a calibration counts false fails per lambda, not per
    slice or symbol.  Called alone, the check draws them with one
    ``oracle_traces`` call on ``rng`` or the substream (seed,
    "trace-identity", repr(lam)).  Given ``lhs`` (one list per symbol of
    (trace, stderr) pairs, one per slice), it draws nothing: these are the
    traces of ``offblock_leakage``'s pass with ``trace_kappas`` on the same
    lambda, so the two checks' reports of a lambda are correlated too.  The
    provenance records which draw it read as ``ball_stream``,
    ``"offblock"`` or ``"trace-identity"``.

    The right side is the Haar average over the block unitary group (the
    construction that defines the averaged symbol), from ``trace_integral``,
    one call per symbol: exact for quasi-radial and payload symbols, sampled
    for oracle-path ones on the symbol's own substream (seed,
    "trace-identity", name, repr(lam)).  ``rhs`` may hold, per symbol, the
    pairs of a ``trace_integral`` call on ``kappas`` that the caller already
    made, or None to make it here.  Agreement is required within a 5-sigma
    band of the combined standard errors (``sigma_band``);
    ``tolerance_ratio`` is the discrepancy over that band, at most 1
    exactly when the report passes.  The provenance records the path the
    right side took (``haar_path``, the symbol's ``assembly_path``) and the
    Haar unitaries it drew per block (``haar_samples``, 0 when exact).
    Every symbol must be block-torus invariant, and every slice well
    formed; both are checked before any draw.
    """
    for a in symbols:
        if not a.klass.implies(TM_INVARIANT):
            raise ValueError(f"trace identity needs a block-torus invariant "
                             f"symbol; {a.name!r} is not one")
    if not symbols:
        return []
    p = _shared_partition(symbols)
    kappas, dims = _checked_slices(p, kappas)
    if not kappas:
        return []
    rhs = rhs if rhs is not None else [None] * len(symbols)
    for given in (lhs, rhs):
        if given is not None and (len(given) != len(symbols) or any(
                v is not None and len(v) != len(kappas) for v in given)):
            raise ValueError("lhs and rhs need one entry per symbol, of one "
                             "pair per slice")
    if lhs is None:
        stream = "trace-identity"
        rng = rng if rng is not None else substream(spec.seed, stream,
                                                    repr(lam))
        lhs = oracle_traces(symbols, kappas, lam, spec, rng)
    else:
        stream = "offblock"
    reports = []
    for a, lhs_all, rhs_all in zip(symbols, lhs, rhs):
        path = assembly_path(a)
        if rhs_all is None:
            rhs_all = trace_integral(a, kappas, lam, spec, substream(
                spec.seed, "trace-identity", a.name, repr(lam)))
        for kappa, d, (lhs_v, lhs_se), (rhs_v, rhs_se) in zip(
                kappas, dims, lhs_all, rhs_all):
            combined = math.hypot(lhs_se, rhs_se)
            diff = abs(lhs_v - rhs_v)
            reports.append(gate_report(
                "trace-identity", diff / float(sigma_band(combined, rhs_v)),
                {"block_trace": lhs_v, "block_trace_stderr": lhs_se,
                 "dim_times_gamma": rhs_v, "gamma_stderr": rhs_se / d,
                 "discrepancy": diff, "combined_stderr": combined,
                 "sigma_ratio": diff / combined if combined > 0 else 0.0},
                per_kappa={kappa: {"dim": d, "gamma_hat": rhs_v / d}},
                tolerances={"sigma_band": SIGMA_BAND},
                provenance={"symbol": a.name, "lambda": lam,
                            "haar_path": path,
                            "haar_samples": (spec.haar_samples
                                             if path == "oracle" else 0),
                            "ball_samples": spec.ball_samples,
                            "ball_stream": stream},
            ))
    return reports


def trace_integral_check(T: BlockOperator, a: Symbol, kappa,
                         spec: QuadratureSpec,
                         integral=None) -> StructureReport:
    """tr(T_a | P_kappa) equals ``trace_integral`` within the band of their
    combined errors; the slice is checked before any draw.  ``integral``
    may hold the slice's (value, stderr) pair from a ``trace_integral``
    call the caller already made; without it the check makes its own.  The
    u2 fields repeat the one integral: ``integral_u2`` its value,
    ``diff_u1_u2`` 0, ``band_u1_u2`` the band of its stderr against itself.
    """
    p, lam, path = T.partition, T.lam, assembly_path(a)
    kappa = _stored_slice(kappa, T)
    [(v, se)] = ([integral] if integral is not None
                 else trace_integral(a, [kappa], lam, spec))
    tr = complex(np.trace(T.blocks[kappa]))
    d = dim_P(p, kappa)
    band = sigma_band(math.hypot(se, d * T.block_errors.get(kappa, 0.0)), tr)
    return gate_report(
        "trace-integral", abs(v - tr) / band,
        {"integral_u1": v, "integral_u2": v, "block_trace": tr,
         "diff_vs_trace": abs(v - tr), "diff_u1_u2": 0.0,
         "band_vs_trace": band,
         "band_u1_u2": sigma_band(math.hypot(se, se), tr)},
        per_kappa={kappa: {"dim": d}},
        tolerances={"sigma_band": SIGMA_BAND},
        provenance={"symbol": a.name, "lambda": lam, "haar_path": path})


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
    if assembly_path(a) == "diagonal-gamma":
        xs = np.array([gamma_quasi_radial(a.radial_profile, k, lam, p, spec)
                       for k in kappas])
        ses = np.zeros(len(kappas))
    else:
        rng = rng if rng is not None else substream(
            spec.seed, "sequence", a.name, repr(lam))
        d = np.array([dim_P(p, k) for k in kappas])
        [rows] = oracle_traces([a], kappas, lam, spec, rng)
        tr, se = zip(*rows)
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


def sequence_report(a: Symbol, lam: float, max_kappa: int,
                    spec: QuadratureSpec) -> StructureReport:
    """``sequence_ST``'s oscillation: a trend-only report that never gates."""
    return StructureReport(
        "sequence", True,
        {"oscillation": sequence_ST(a, lam, max_kappa, spec).oscillation},
        provenance={"symbol": a.name, "lambda": lam, "max_kappa": max_kappa})


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def equivariance_check(ops, symbols, rotations, kappa, spec: QuadratureSpec,
                       rng=None) -> list:
    """Compare R(A) T_a R(A)* against the operator of the rotated symbol,
    for every symbol a of ``symbols`` and every A of its list in
    ``rotations``: one report per (symbol, rotation), symbol-major.

    ``ops`` holds the operator of each symbol, all at one weight, the
    common ``T.lam``: its block on P_kappa, with the entrywise
    ``T.block_stderr`` (zero on the deterministic paths), is conjugated by
    R(A) (``unitary_action_matrix``).  The rotated symbol a o A^{-1}
    (``act``) gives the other side:

    * on the ``"diagonal-gamma"`` path (a quasi-radial a and a block-diagonal
      A) its block is ``gamma_quasi_radial`` times I, exactly and with no
      samples, so the check tests R(A) gamma I R(A)* = gamma I;
    * otherwise the sampling oracle estimates it.  Rotation index i of
      every symbol shares one draw (``toeplitz_block_oracle``), and
      successive indices take successive draws of ``rng`` or the substream
      (seed, "equivariance", repr(lam), repr(kappa)), so rotations of one
      symbol never share samples.

    The Frobenius residual must sit inside a 5-sigma band of the combined
    propagated standard errors (``sigma_band``); ``tolerance_ratio`` is the
    residual over that band, at most 1 exactly when the report passes.  The
    provenance records the path the rotated side took (``rotated_path``)
    and its ball ``samples`` (0 when exact).  The slice, which every
    operator must hold, and every rotation are validated before any draw.
    """
    if not len(ops) == len(symbols) == len(rotations):
        raise ValueError("need one operator and one rotation list per symbol")
    if not symbols:
        return []
    p = _shared_partition(symbols)
    lam = ops[0].lam
    if any(T.lam != lam for T in ops):
        raise ValueError("the operators do not share one lambda")
    kappa = _stored_slice(kappa, *ops)
    R = [[unitary_action_matrix(A, p, kappa) for A in rots]
         for rots in rotations]
    rotated = [[act(A, a) for A in rots] for a, rots in zip(symbols, rotations)]
    rng = rng if rng is not None else substream(
        spec.seed, "equivariance", repr(lam), repr(kappa))
    sampled = {}  # (symbol, rotation) -> oracle block of the rotated symbol
    for i in range(max(map(len, rotated))):
        keys = [(s, i) for s, row in enumerate(rotated)
                if i < len(row) and assembly_path(row[i]) != "diagonal-gamma"]
        if keys:
            sampled.update(zip(keys, toeplitz_block_oracle(
                [rotated[s][i] for s, _ in keys], kappa, lam, spec, rng)))
    reports = []
    for s, (T, a) in enumerate(zip(ops, symbols)):
        Ta = T.blocks[kappa]
        SEa = T.block_stderr.get(kappa, np.zeros(Ta.shape))
        for i, (Ri, b) in enumerate(zip(R[s], rotated[s])):
            if (s, i) in sampled:
                (Tb, SEb), path = sampled[s, i], "oracle"
            else:
                gamma = gamma_quasi_radial(b.radial_profile, kappa, lam, p,
                                           spec)
                Tb, SEb = gamma * np.eye(Ta.shape[0]), np.zeros(Ta.shape)
                path = "diagonal-gamma"
            D = Ri @ Ta @ Ri.conj().T - Tb
            residual = float(np.linalg.norm(D, "fro"))
            P = np.abs(Ri) ** 2
            var_rot = P @ (SEa ** 2) @ P.T
            band = math.sqrt(float(np.sum(var_rot) + np.sum(SEb ** 2)))
            reports.append(gate_report(
                "equivariance",
                residual / float(sigma_band(band, np.linalg.norm(Tb, "fro"))),
                {"residual": residual, "combined_stderr": band,
                 "sigma_ratio": residual / band if band > 0 else 0.0},
                per_kappa={kappa: {"residual": residual}},
                tolerances={"sigma_band": SIGMA_BAND},
                provenance={"symbol": a.name, "lambda": lam,
                            "rotated_path": path,
                            "samples": (0 if path == "diagonal-gamma"
                                        else spec.ball_samples)},
            ))
    return reports
