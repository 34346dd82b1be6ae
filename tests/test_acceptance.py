"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; tolerances
are fixed here and match the package-wide contract (1e-8 absolute for
deterministic paths, 5-sigma bands for anything involving sampling).
"""

import math

import numpy as np
import pytest

from toepblocks import (
    BlockOperator,
    Partition,
    QuadratureSpec,
    average_operator,
    block_traces,
    commutator,
    constant_symbol,
    cross_block_control,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    equivariance_check,
    extract_M,
    from_evaluator,
    gamma_quasi_radial,
    haar_uk_sample,
    noncommuting_pair,
    offblock_leakage,
    phi_factor,
    pseudo_factor,
    radial_poly,
    block_hermitian,
    substream,
    toeplitz_block_f,
    toeplitz_block_g,
    toeplitz_block_oracle,
    toeplitz_operator,
    trace_identity_check,
    trace_integral,
    unitary_action_matrix,
    xi_monomial,
)
from toepblocks.symbols import TM_INVARIANT

SIGMA = 5.0
DET_TOL = 1e-8

SPEC = QuadratureSpec(ball_samples=200_000, haar_samples=10_000)
# the Haar-heavy checks only need the radial rule to beat the MC noise
SPEC_HAAR = QuadratureSpec(ball_samples=200_000, haar_samples=10_000,
                           radial_nodes=12)
# deterministic-only runs: the test integrands are polynomial, so these node
# counts are already exact (torus needs > 2 kappa + exponent range)
SPEC_DET = QuadratureSpec(ball_samples=200_000, haar_samples=10_000,
                          radial_nodes=16, sphere_nodes=12, torus_nodes=12)


def emit(num, desc, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} ({detail})"


def sigma_ok(G, SE, target):
    return bool(np.all(np.abs(G - target) <= SIGMA * np.maximum(SE, 1e-300)))


def test_criterion_01_identity_symbol_all_paths():
    worst_det, worst_sigma = 0.0, 0.0
    for k in [(1, 2), (2, 2)]:
        p = Partition(k)
        oracle_one = from_evaluator(
            p, lambda Z: np.ones(np.atleast_2d(Z).shape[0], dtype=complex),
            TM_INVARIANT, name="one-oracle")
        for lam in (0.0, 2.5):
            diag = toeplitz_operator(constant_symbol(p), 4, lam, SPEC_DET)
            f_one = phi_factor(p, 2, (0,) * p.k[1], (0,) * p.k[1],
                               name="one-f")
            g_one = pseudo_factor(p, 2, (0,) * p.k[1], (0,) * p.k[1],
                                  name="one-g")
            Tf = toeplitz_operator(f_one, 4, lam, SPEC_DET)
            Tg = toeplitz_operator(g_one, 4, lam, SPEC_DET)
            assert Tf.provenance == "f-form" and Tg.provenance == "g-form"
            for kappa in enumerate_kappas(p, 4):
                eye = np.eye(dim_P(p, kappa))
                for T in (diag, Tf, Tg):
                    worst_det = max(worst_det, float(
                        np.max(np.abs(T.blocks[kappa] - eye))))
                rng = substream(SPEC.seed, "acc1", str(k), repr(lam),
                                repr(kappa))
                [(G, SE)] = toeplitz_block_oracle([oracle_one], kappa, lam,
                                                  SPEC, rng)
                worst_sigma = max(worst_sigma, float(np.max(
                    np.abs(G - eye) / np.maximum(SE, 1e-300))))
    emit(1, "identity symbol yields identity blocks on every path",
         worst_det <= DET_TOL and worst_sigma <= SIGMA,
         f"deterministic max err {worst_det:.2e}, oracle max {worst_sigma:.2f} sigma")


def test_criterion_02_gamma_formula_disk():
    p = Partition((1,))
    prof = lambda r: np.atleast_2d(r)[:, 0] ** 2
    worst = 0.0
    for kap in range(11):
        g = gamma_quasi_radial(prof, (kap,), 0.0, p, SPEC)
        worst = max(worst, abs(g - (kap + 1) / (kap + 2)))
    emit(2, "radial profile r^2 on the disk gives (kap+1)/(kap+2)",
         worst <= DET_TOL, f"max err {worst:.2e} over kap <= 10")


def test_criterion_03_dimension_formula():
    ok = True
    checked = 0
    for k in [(1, 2), (2, 2), (1, 1, 2)]:
        p = Partition(k)
        for kappa in enumerate_kappas(p, 8):
            ok &= len(enumerate_basis(p, kappa)) == dim_P(p, kappa)
            checked += 1
    emit(3, "product dimension formula equals exhaustive enumeration",
         ok, f"{checked} kappa values, exact equality")


def test_criterion_04_block_diagonality():
    p = Partition((2, 2))
    symbols = [
        phi_factor(p, 1, (1, 0), (0, 1), radial_terms=[(1.0, (0, 0)),
                                                       (0.5, (1, 0))]),
        pseudo_factor(p, 2, (2, 0), (1, -1)),
        block_hermitian(p, np.diag([1.0, -0.5, 0.25, 0.75]).astype(complex)
                        + _offdiag_hermitian()),
    ]
    worst = 0.0
    for a in symbols:
        [rep] = offblock_leakage([a], 4, 0.0, SPEC)
        worst = max(worst, rep.metrics["max_sigma_ratio"])
    control = xi_monomial(p, 1, (1, 0), (0, 0))
    [ctrl_rep] = offblock_leakage([control], 4, 0.0, SPEC)
    ctrl_ratio = ctrl_rep.metrics["max_sigma_ratio"]
    emit(4, "torus-invariant symbols keep slices; direction monomial leaks",
         worst <= SIGMA and ctrl_ratio > SIGMA,
         f"invariant max {worst:.2f} sigma, control {ctrl_ratio:.0f} sigma")


def _offdiag_hermitian():
    H = np.zeros((4, 4), dtype=complex)
    H[0, 1] = 0.3 + 0.2j
    H[1, 0] = 0.3 - 0.2j
    H[2, 3] = -0.4j
    H[3, 2] = 0.4j
    return H


def test_criterion_05_tensor_block_constancy():
    p = Partition((2, 2))
    worst = 0.0
    for j in (1, 2):
        a = phi_factor(p, j, (1, 0), (0, 1),
                       radial_terms=[(1.0, (0, 0)), (-0.25, (0, 1))])
        T = toeplitz_operator(a, 4, 0.0, SPEC_DET)
        for kappa in enumerate_kappas(p, 4):
            _, res = extract_M(T, j, kappa)
            worst = max(worst, res)
    control = cross_block_control(p)
    Tc = toeplitz_operator(control, 2, 0.0, SPEC)
    _, res_ctrl = extract_M(Tc, 1, (1, 1))
    emit(5, "single-block matrix repeats along the diagonal",
         worst <= 1e-6 and res_ctrl >= 1e-2,
         f"f-form residual {worst:.2e}, control residual {res_ctrl:.2e}")


def test_criterion_06_reduced_formulas_match_oracle():
    p = Partition((2, 2))
    radial = [(1.0, (0, 0)), (0.5, (1, 0))]
    af = phi_factor(p, 1, (1, 0), (0, 1), radial_terms=radial)
    ag = pseudo_factor(p, 1, (1, 1), (1, -1), radial_terms=radial)
    worst_sigma, worst_fg = 0.0, 0.0
    for lam in (0.0, 1.5):
        for kappa in [(1, 1), (2, 1)]:
            Bf = toeplitz_block_f(af, 1, kappa, lam, SPEC)
            Bg = toeplitz_block_g(ag, 1, kappa, lam, SPEC)
            worst_fg = max(worst_fg, float(np.max(np.abs(Bf - Bg))))
            rng = substream(SPEC.seed, "acc6", repr(lam), repr(kappa))
            [(G, SE)] = toeplitz_block_oracle([af], kappa, lam, SPEC, rng)
            worst_sigma = max(worst_sigma, float(np.max(
                np.abs(G - Bf) / np.maximum(SE, 1e-300))))
    emit(6, "reduced direction/phase formulas agree with the oracle",
         worst_sigma <= SIGMA and worst_fg <= DET_TOL,
         f"oracle max {worst_sigma:.2f} sigma, f vs g {worst_fg:.2e}")


def test_criterion_07_trace_identity():
    p = Partition((2, 2))
    symbols = [
        phi_factor(p, 1, (1, 1), (1, 1)),      # nonzero traces
        phi_factor(p, 2, (1, 0), (0, 1),
                   radial_terms=[(1.0, (0, 0))]),  # traceless blocks
    ]
    worst = 0.0
    kappas = enumerate_kappas(p, 4)
    for a in symbols:
        for kappa, rep in zip(kappas, trace_identity_check([a], kappas, 0.0,
                                                           SPEC_HAAR)):
            worst = max(worst, rep.metrics["sigma_ratio"])
            assert rep.passed, (a.name, kappa)
    emit(7, "block traces equal dim times the averaged-symbol scalar",
         worst <= SIGMA, f"max {worst:.2f} sigma over |kappa| <= 4")


def test_criterion_08_trace_integral():
    p = Partition((2, 2))
    a = block_hermitian(p, np.diag([1.0, 0.25, -0.5, 0.5]).astype(complex)
                        + _offdiag_hermitian())
    T = toeplitz_operator(a, 3, 0.0, SPEC)
    traces = block_traces(T)
    kappas = [(1, 1), (2, 1)]
    ok = True
    details = []
    for kappa, (v, se) in zip(kappas, trace_integral(a, kappas, 0.0,
                                                     SPEC_HAAR)):
        tr = traces[kappa][0]
        d = dim_P(p, kappa)
        tr_band = SIGMA * math.hypot(se, d * T.block_errors[kappa]) + DET_TOL
        ok &= abs(v - tr) <= tr_band
        details.append(f"kappa={kappa}: |int-tr|={abs(v - tr):.2e}"
                       f"<= {tr_band:.2e}")
    emit(8, "Haar trace integral matches block traces", ok,
         "; ".join(details))


def _random_f_form(p, j, rng):
    kj = p.k[j - 1]
    total = int(rng.integers(1, 3))
    pe = np.zeros(kj, dtype=int)
    qe = np.zeros(kj, dtype=int)
    for _ in range(total):
        pe[rng.integers(kj)] += 1
        qe[rng.integers(kj)] += 1
    radial = [(float(rng.uniform(0.5, 1.5)), (0, 0)),
              (float(rng.uniform(-0.5, 0.5)),
               tuple(int(v) for v in rng.integers(0, 2, p.m)))]
    return phi_factor(p, j, tuple(pe), tuple(qe), radial_terms=radial,
                      name=f"rand-f[j={j}]")


def test_criterion_09_commutativity():
    p = Partition((2, 2))
    rng = substream(SPEC.seed, "acc9")
    worst_cross, worst_center = 0.0, 0.0
    for _ in range(5):
        a = _random_f_form(p, 1, rng)
        b = _random_f_form(p, 2, rng)
        Ta = toeplitz_operator(a, 4, 0.0, SPEC_DET)
        Tb = toeplitz_operator(b, 4, 0.0, SPEC_DET)
        worst_cross = max(worst_cross, max(
            v["frobenius"] for v in commutator(Ta, Tb).values()))
    qr = radial_poly(p, [(1.0, (1, 0)), (0.5, (0, 1))])
    Tq = toeplitz_operator(qr, 4, 0.0, SPEC_DET)
    for other in (Ta, Tb):
        worst_center = max(worst_center, max(
            v["frobenius"] for v in commutator(Tq, other).values()))
    na, nb = noncommuting_pair(p, 1)
    Tna = toeplitz_operator(na, 4, 0.0, SPEC_DET)
    Tnb = toeplitz_operator(nb, 4, 0.0, SPEC_DET)
    witness = max(v["frobenius"] for v in commutator(Tna, Tnb).values())
    emit(9, "different-block and center pairs commute; designed pair does not",
         worst_cross <= 1e-6 and worst_center <= 1e-6 and witness > 1e-2,
         f"cross {worst_cross:.2e}, center {worst_center:.2e}, "
         f"witness {witness:.2e}")


def test_criterion_10_equivariance():
    p = Partition((2, 2))
    a = phi_factor(p, 1, (1, 0), (0, 1))
    T = toeplitz_operator(a, 2, 0.0, SPEC)
    rng = substream(SPEC.seed, "acc10-rotations")
    rotations = [haar_uk_sample(p, rng) for _ in range(10)]
    worst = 0.0
    # one call: each rotation's rotated side takes its own ball draw
    for rep in equivariance_check([T], [a], [rotations], (1, 1), SPEC):
        worst = max(worst, rep.metrics["sigma_ratio"])
        assert rep.passed
    emit(10, "conjugation by the group action matches the rotated symbol",
         worst <= SIGMA, f"max {worst:.2f} sigma over 10 rotations")


def test_criterion_11_averaging_invariants():
    # Schur's lemma holds for every operator on the irreducible slices, and a
    # generic Hermitian block excites every spin component of U(2), so the
    # Haar reference below has many noise degrees of freedom (the swap
    # symbol's operator has only the three of the adjoint)
    p = Partition((2,))
    rng = np.random.default_rng(SPEC.seed)
    blocks = {}
    for kappa in enumerate_kappas(p, 4):
        d = dim_P(p, kappa)
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[kappa] = X + X.conj().T
    T = BlockOperator(p, 0.0, 4, blocks, "oracle")
    avg = average_operator(T)
    trace_ok = all(
        abs(np.trace(avg.blocks[k]) - np.trace(B))
        <= 1e-12 * (1 + abs(np.trace(B)))
        for k, B in blocks.items())
    # Haar Monte Carlo reference: 1000 draws of R(A) T R(A)*
    n = 1000
    haar = substream(SPEC.seed, "acc11")
    draws = {k: np.empty((n,) + B.shape, dtype=complex)
             for k, B in blocks.items()}
    for i in range(n):
        A = haar_uk_sample(p, haar)
        for k, B in blocks.items():
            R = unitary_action_matrix(A, p, k)
            draws[k][i] = R @ B @ R.conj().T
    worst = 0.0
    for k, D in draws.items():
        diff = D.mean(axis=0) - avg.blocks[k]
        for part in (np.real, np.imag):
            # the floor covers entries that no draw moves (roundoff only)
            se = np.maximum(part(D).std(axis=0) / math.sqrt(n), 1e-12)
            worst = max(worst, np.max(np.abs(part(diff)) / se))

    def rms(size):
        # RMS over the disjoint size-draw subsets of the Frobenius distance
        sq = sum(np.sum(np.abs(D.reshape(n // size, size, *D.shape[1:])
                                .mean(axis=1) - avg.blocks[k]) ** 2,
                        axis=(1, 2)) for k, D in draws.items())
        return math.sqrt(np.mean(sq))

    r1 = rms(100) / rms(1000)
    root10 = math.sqrt(10)
    decay_ok = root10 / 2 <= r1 <= 2 * root10
    emit(11, "averaging preserves traces and contracts like 1/sqrt(N)",
         trace_ok and worst <= SIGMA and decay_ok,
         f"Haar reference within {worst:.2f} sigma; decade ratio {r1:.2f} "
         f"(target {root10:.2f} within x2)")
