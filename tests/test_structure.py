"""Structural checks: block-diagonality, tensor constancy, traces, commutators."""

import dataclasses
import math

import numpy as np
import pytest

from toepblocks import structure, toeplitz
from toepblocks import (
    Partition,
    QuadratureSpec,
    TM_INVARIANT,
    assemble_diagonal,
    average_operator,
    block_hermitian,
    block_traces,
    commutator,
    constant_symbol,
    cross_block_control,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    equivariance_check,
    extract_M,
    gamma_quasi_radial,
    haar_uk_sample,
    mblock_f,
    noncommuting_pair,
    offblock_leakage,
    oracle_matrix,
    phi_factor,
    pseudo_factor,
    quasi_radialize,
    radial_poly,
    sample_ball,
    sequence_ST,
    substream,
    toeplitz_operator,
    trace_identity_check,
    trace_integral,
    xi_monomial,
    zpoly,
)
from toepblocks.quad import haar_unitary_batch, radial_rule
from toepblocks.structure import _haar_trace, oracle_traces
from toepblocks.toeplitz import log_slice_prefactor, orthonormal_rows

P22 = Partition((2, 2))
FAST = QuadratureSpec(ball_samples=40_000, haar_samples=600, radial_nodes=12,
                      sphere_nodes=12, torus_nodes=8)


class TestOffblockLeakage:
    def test_quasi_radial_statistically_zero(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        rep = offblock_leakage(a, P22, 2, 0.0, FAST)
        assert rep.passed

    def test_phi_statistically_zero(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        rep = offblock_leakage(a, P22, 2, 0.0, FAST)
        assert rep.passed

    def test_unbalanced_direction_leaks(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        rep = offblock_leakage(a, P22, 2, 0.0, FAST)
        assert not rep.passed
        assert rep.metrics["max_sigma_ratio"] > 5


class TestExtractM:
    def test_diagonal_operator(self):
        T = assemble_diagonal(lambda kappa: 2.0 - sum(kappa) / 10, P22, 3, 0.0)
        for kappa in [(1, 1), (2, 1)]:
            M, res = extract_M(T, 1, kappa)
            want = (2.0 - sum(kappa) / 10) * np.eye(M.shape[0])
            assert res < 1e-12
            assert np.max(np.abs(M - want)) < 1e-12

    @pytest.mark.parametrize("j", [1, 2])
    def test_f_form_operator_reproduces_mblock(self, j):
        a = phi_factor(P22, j, (1, 0), (0, 1))
        T = toeplitz_operator(a, P22, 3, 0.0, FAST)
        for kappa in [(1, 1), (2, 1), (1, 2)]:
            M, res = extract_M(T, j, kappa)
            assert res < 1e-12
            assert np.max(np.abs(M - mblock_f(a, j, kappa, 0.0, FAST))) < 1e-12

    def test_cross_block_control_fails(self):
        c = cross_block_control(P22)
        T = toeplitz_operator(c, P22, 2, 0.0, FAST)
        _, res = extract_M(T, 1, (1, 1))
        assert res > 1e-2

    def test_missing_block_rejected(self):
        T = assemble_diagonal(lambda kappa: 1.0, P22, 1, 0.0)
        with pytest.raises(ValueError, match="no block"):
            extract_M(T, 1, (3, 3))


class TestCommutator:
    def test_different_blocks_commute(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1), radial_terms=[(1.0, (1, 1))])
        b = pseudo_factor(P22, 2, (2, 0), (1, -1))
        Ta = toeplitz_operator(a, P22, 3, 0.0, FAST)
        Tb = toeplitz_operator(b, P22, 3, 0.0, FAST)
        norms = commutator(Ta, Tb)
        assert max(v["frobenius"] for v in norms.values()) < 1e-10
        assert max(v["spectral"] for v in norms.values()) < 1e-10

    def test_center_commutes_with_everything(self):
        qr = radial_poly(P22, [(1.0, (1, 0)), (0.3, (0, 2))])
        Tq = toeplitz_operator(qr, P22, 3, 0.0, FAST)
        a, _ = noncommuting_pair(P22, 1)
        Ta = toeplitz_operator(a, P22, 3, 0.0, FAST)
        norms = commutator(Tq, Ta)
        assert max(v["frobenius"] for v in norms.values()) < 1e-10

    def test_designed_pair_does_not_commute(self):
        a, b = noncommuting_pair(P22, 1)
        Ta = toeplitz_operator(a, P22, 2, 0.0, FAST)
        Tb = toeplitz_operator(b, P22, 2, 0.0, FAST)
        norms = commutator(Ta, Tb)
        assert max(v["frobenius"] for v in norms.values()) > 1e-2

    def test_metadata_mismatch_rejected(self):
        Ta = assemble_diagonal(lambda kappa: 1.0, P22, 2, 0.0)
        Tb = assemble_diagonal(lambda kappa: 1.0, P22, 2, 0.5)
        with pytest.raises(ValueError):
            commutator(Ta, Tb)


class TestTraces:
    def test_identity_traces(self):
        T = assemble_diagonal(lambda kappa: 1.0, P22, 3, 0.0)
        for kappa, (tr, norm) in block_traces(T).items():
            assert tr == pytest.approx(dim_P(P22, kappa))
            assert norm == pytest.approx(1.0)

    def test_averaged_traces_equal_source(self):
        a, _ = noncommuting_pair(P22, 1)
        T = toeplitz_operator(a, P22, 2, 0.0, FAST)
        avg = average_operator(T, P22, 11, substream(0, "tr-avg"))
        t0, t1 = block_traces(T), block_traces(avg)
        for kappa in T.kappas():
            assert abs(t0[kappa][0] - t1[kappa][0]) < 1e-12


class TestTraceIdentity:
    def test_quasi_radial_tight(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        rep = trace_identity_check(a, (1, 1), 0.0, FAST)
        assert rep.passed

    def test_phi_type(self):
        a = phi_factor(P22, 1, (1, 1), (1, 1))
        rep = trace_identity_check(a, (1, 1), 0.0, FAST)
        assert rep.passed

    def test_constant(self):
        a = constant_symbol(P22)
        rep = trace_identity_check(a, (2, 1), 1.5, FAST)
        assert rep.passed
        d = dim_P(P22, (2, 1))
        assert abs(rep.metrics["block_trace"] - d) <= 5 * max(
            rep.metrics["block_trace_stderr"], 1e-12) + 1e-9

    def test_rejects_non_invariant(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        with pytest.raises(ValueError):
            trace_identity_check(a, (1, 1), 0.0, FAST)

    def test_zero_variance_band(self):
        # both sides are exact up to roundoff and their standard errors are
        # roundoff too: the band must not collapse below the roundoff
        rep = trace_identity_check(constant_symbol(P22), (0, 0), 0.0, FAST)
        assert rep.passed


class TestTraceIntegral:
    def test_constant_gives_dimension(self):
        a = constant_symbol(P22)
        u = [np.array([1, 0], dtype=complex)] * 2
        val, se = trace_integral(a, (1, 2), 0.0, u, FAST)
        assert abs(val - dim_P(P22, (1, 2))) <= 5 * se + 1e-8

    def test_matches_block_trace(self):
        a = block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex))
        T = toeplitz_operator(a, P22, 2, 0.0, FAST)
        u = [np.array([1, 0], dtype=complex)] * 2
        val, se = trace_integral(a, (1, 1), 0.0, u, FAST)
        tr = block_traces(T)[(1, 1)][0]
        band = 5 * math.hypot(se, 4 * T.block_errors[(1, 1)]) + 1e-8
        assert abs(val - tr) <= band

    def test_unit_vector_independence(self):
        a = phi_factor(P22, 1, (1, 1), (1, 1))
        u1 = [np.array([1, 0], dtype=complex)] * 2
        u2 = [np.array([1, 1], dtype=complex) / math.sqrt(2)] * 2
        v1, se1 = trace_integral(a, (1, 1), 0.0, u1, FAST)
        v2, se2 = trace_integral(a, (1, 1), 0.0, u2, FAST,
                                 rng=substream(1, "ti-alt"))
        assert abs(v1 - v2) <= 5 * math.hypot(se1, se2) + 1e-8

    def test_rejects_non_unit_vectors(self):
        a = constant_symbol(P22)
        with pytest.raises(ValueError, match="unit"):
            trace_integral(a, (1, 1), 0.0,
                           [np.array([2, 0], dtype=complex)] * 2, FAST)


def _evaluator_haar_trace(a, kappa, lam, u_vectors, spec, rng, n_samples):
    """Reference Haar trace: the symbol's evaluator at r_j A_j^{-1} u_j.

    Draws the unitaries as ``_haar_trace`` does (chunks of 2_000_000 // Qr,
    blocks in order), so both see the same A's on the same stream.
    """
    p = a.partition
    R, w = radial_rule(p, kappa, spec, lam)
    Qr = R.shape[0]
    chunk = max(1, 2_000_000 // Qr)
    raw = []
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        Z = np.empty((c, Qr, p.n), dtype=complex)
        for j0, (sl, kj) in enumerate(zip(p.block_slices(), p.k)):
            A = haar_unitary_batch(kj, c, rng)
            v = np.conj(np.swapaxes(A, -1, -2)) @ u_vectors[j0]
            Z[:, :, sl] = R[None, :, j0, None] * v[:, None, :]
        raw.append(a(Z.reshape(c * Qr, p.n)).reshape(c, Qr) @ w)
    vals = (dim_P(p, kappa) * math.exp(log_slice_prefactor(p, kappa, lam))
            * np.concatenate(raw))
    return vals.mean(), vals.std() / math.sqrt(n_samples)


def _u_vectors(p):
    return [np.ones(kj, dtype=complex) / math.sqrt(kj) for kj in p.k]


_PAYLOAD_CASES = {
    "phi-22": (lambda: phi_factor(P22, 1, (1, 1), (1, 1), [(1.0, (0, 1))]),
               (1, 1)),
    "pseudo-22": (lambda: pseudo_factor(P22, 2, (2, 0), (1, -1),
                                        [(0.5, (1, 0))]), (1, 2)),
    "phi-3": (lambda: phi_factor(Partition((3,)), 1, (1, 0, 0), (0, 1, 0),
                                 [(1.0, (1,))]), (2,)),
    "pseudo-3": (lambda: pseudo_factor(Partition((3,)), 1, (1, 0, 2),
                                       (1, 0, -1)), (1,)),
}


class TestHaarTrace:
    @pytest.mark.parametrize("case", list(_PAYLOAD_CASES))
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_payload_path_matches_evaluator_on_the_same_draws(self, case,
                                                              lam):
        make, kappa = _PAYLOAD_CASES[case]
        a = make()
        spec = QuadratureSpec(radial_nodes=8)
        u = _u_vectors(a.partition)
        got = _haar_trace(a, kappa, lam, u, spec, substream(0, "ht", case), 400)
        ref = _evaluator_haar_trace(a, kappa, lam, u, spec,
                                    substream(0, "ht", case), 400)
        assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0)
        assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0)

    def test_payload_path_matches_evaluator_over_several_chunks(self):
        # Qr = 24^3 = 13824 radial nodes: chunks of 144, 144 and 12 draws
        p = Partition((2, 1, 1))
        a = phi_factor(p, 1, (2, 0), (1, 1), [(1.0, (0, 1, 1))])
        spec = QuadratureSpec(radial_nodes=24)
        u = _u_vectors(p)
        got = _haar_trace(a, (2, 1, 0), 1.0, u, spec, substream(0, "ht3"), 300)
        ref = _evaluator_haar_trace(a, (2, 1, 0), 1.0, u, spec,
                                    substream(0, "ht3"), 300)
        assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0)
        assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["phi-22", "pseudo-22"])
    def test_payload_calls_stay_within_the_chunk_budget(self, case,
                                                        monkeypatch):
        # Qr = 8^2 = 64 radial nodes and 400 draws: 25 600 (node, draw) rows
        make, kappa = _PAYLOAD_CASES[case]
        a = make()
        spec = QuadratureSpec(radial_nodes=8)
        u = _u_vectors(P22)
        ref = _haar_trace(a, kappa, 0.0, u, spec, substream(0, "hb", case),
                          400)
        field = "f_payload" if a.f_payload is not None else "g_payload"
        payload, numbers = getattr(a, field), []

        def recording(r, *args):
            cols = r.shape[1] + sum(x.shape[1] for x in args) + 1
            numbers.append(r.shape[0] * cols)
            return payload(r, *args)

        monkeypatch.setattr(toeplitz, "_CHUNK_BUDGET", 20_000)
        got = _haar_trace(dataclasses.replace(a, **{field: recording}), kappa,
                          0.0, u, spec, substream(0, "hb", case), 400)
        assert len(numbers) > 1 and max(numbers) <= 20_000
        assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0)
        assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("make", [
        lambda: constant_symbol(P22, 0.5 - 2j),
        lambda: radial_poly(P22, [(1.0, (1, 0)), (-0.5j, (1, 2))]),
    ], ids=["constant", "radial_poly"])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_quasi_radial_is_exact_and_draws_nothing(self, make, lam,
                                                     monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a quasi-radial Haar trace drew a unitary")

        monkeypatch.setattr(structure, "haar_unitary_batch", no_draws)
        a = make()
        val, se = trace_integral(a, (2, 1), lam, _u_vectors(P22), FAST)
        exact = dim_P(P22, (2, 1)) * gamma_quasi_radial(
            a.radial_profile, (2, 1), lam, P22, FAST)
        assert se == 0.0
        assert val == pytest.approx(exact, rel=1e-12, abs=0)

    def test_trace_identity_records_the_haar_effort(self, monkeypatch):
        drawn = []

        def counting(d, count, rng):
            drawn.append(count)
            return haar_unitary_batch(d, count, rng)

        monkeypatch.setattr(structure, "haar_unitary_batch", counting)
        spec = QuadratureSpec(ball_samples=2000, haar_samples=50,
                              radial_nodes=6)
        for a, path, draws in (
                (radial_poly(P22, [(1.0, (1, 0))]), "diagonal-gamma", 0),
                (phi_factor(P22, 1, (1, 0), (0, 1)), "f-form", 50),
                (pseudo_factor(P22, 2, (2, 0), (1, -1)), "g-form", 50),
                (block_hermitian(P22, np.eye(4, dtype=complex)), "oracle",
                 50)):
            drawn.clear()
            rep = trace_identity_check(a, (1, 1), 0.0, spec)
            assert rep.provenance["haar_path"] == path
            assert rep.provenance["haar_samples"] == draws
            assert sum(drawn) == draws * P22.m
            assert (rep.metrics["gamma_stderr"] == 0.0) == (draws == 0)


class TestOracleTraces:
    @pytest.mark.parametrize("k", [(3,), (2, 2), (1, 2)])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_matches_monomial_rows_on_the_same_draws(self, k, lam):
        p = Partition(k)
        n = p.n
        e = [tuple(int(i == l) for i in range(n)) for l in range(n)]
        a = zpoly(p, [(1.0, (0,) * n, (0,) * n), (2.0, e[0], e[0]),
                      (0.5j, e[0], e[-1])])
        kappas = enumerate_kappas(p, 3)
        spec = QuadratureSpec(ball_samples=3000)
        got = oracle_traces(a, kappas, lam, spec, substream(0, "ot-ref"))
        # one chunk holds every sample, so these are the estimator's draws
        Z = sample_ball(n, lam, spec.ball_samples, substream(0, "ot-ref"))
        assert len(got) == len(kappas)
        for kappa, (tr, se) in zip(kappas, got):
            E = orthonormal_rows(Z, enumerate_basis(p, kappa).alphas, n, lam)
            X = a(Z) * np.sum(np.abs(E) ** 2, axis=0)
            assert tr == pytest.approx(X.mean(), rel=1e-12, abs=0)
            assert se == pytest.approx(X.std() / math.sqrt(X.size), rel=1e-12,
                                       abs=0)


class TestSequence:
    def test_constant_sequence_is_one(self):
        p = Partition((3,))
        seq = sequence_ST(constant_symbol(p), 0.0, 6, FAST)
        assert np.allclose(seq.values, 1.0)
        assert all(v < 1e-12 for v in seq.oscillation.values())

    def test_radial_equals_gamma(self):
        p = Partition((2,))
        a = radial_poly(p, [(1.0, (1,))])
        seq = sequence_ST(a, 0.0, 8, FAST)
        for kap in range(9):
            g = gamma_quasi_radial(a.radial_profile, (kap,), 0.0, p, FAST)
            assert seq.values[kap] == pytest.approx(g, abs=1e-10)

    def test_oscillation_decreases_with_delta(self):
        p = Partition((2,))
        a = radial_poly(p, [(1.0, (1,))])
        seq = sequence_ST(a, 0.0, 12, FAST, deltas=(0.4, 0.2, 0.1))
        vals = [seq.oscillation[d] for d in (0.4, 0.2, 0.1)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_requires_single_block(self):
        with pytest.raises(ValueError):
            sequence_ST(constant_symbol(P22), 0.0, 4, FAST)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_oracle_branch_matches_closed_form(self, lam):
        # the U(n) average of |z_1|^2 is |z|^2 / n, which acts on P_kappa by
        # (n + kappa) / (n + lam + kappa + 1)
        p = Partition((3,))
        a = zpoly(p, [(1.0, (1, 0, 0), (1, 0, 0))], TM_INVARIANT)
        seq = sequence_ST(a, lam, 6, FAST)
        for kap in range(7):
            want = (3 + kap) / (3 * (3 + lam + kap + 1))
            assert 0 < seq.stderr[kap]
            assert abs(seq.values[kap] - want) <= 5 * seq.stderr[kap]

    def test_oracle_branch_draws_once(self, monkeypatch):
        drawn = []

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(structure, "sample_ball", counting)
        p = Partition((2,))
        a = zpoly(p, [(1.0, (1, 0), (1, 0))], TM_INVARIANT)
        sequence_ST(a, 0.0, 6, FAST)
        assert sum(drawn) == FAST.ball_samples


class TestEquivariance:
    def test_identity_rotation_zero(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        rep = equivariance_check(a, np.eye(4, dtype=complex), (1, 1), 0.0, FAST)
        assert rep.passed

    def test_random_rotation(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        A = haar_uk_sample(P22, substream(0, "eq-rot"))
        rep = equivariance_check(a, A, (1, 1), 0.0, FAST)
        assert rep.passed

    def test_radial_symbol_any_rotation(self):
        a = radial_poly(P22, [(1.0, (0, 1))])
        A = haar_uk_sample(P22, substream(1, "eq-rad"))
        rep = equivariance_check(a, A, (1, 1), 0.0, FAST)
        assert rep.passed


def test_report_serializes():
    a = phi_factor(P22, 1, (1, 0), (0, 1))
    rep = offblock_leakage(a, P22, 1, 0.0, FAST)
    doc = rep.to_dict()
    import json

    json.dumps(doc)
    assert doc["check"] == "offblock-leakage"


def test_trace_identity_error_scales_with_haar_samples():
    a = phi_factor(P22, 1, (1, 1), (1, 1))
    ses = {}
    for n in (100, 6400):
        spec = QuadratureSpec(ball_samples=20_000, haar_samples=n,
                              radial_nodes=10)
        rep = trace_identity_check(a, (1, 1), 0.0, spec)
        ses[n] = rep.metrics["gamma_stderr"]
        assert rep.passed
    # the averaged-symbol side shrinks like 1/sqrt(N): factor 8 for 64x N
    assert ses[6400] < ses[100] / 4


_P1 = Partition((1,))
_ONE = constant_symbol(_P1)


@pytest.mark.parametrize("call", [
    lambda: oracle_matrix(_ONE, [(0,)], [(0,)], 0.0, FAST,
                          substream(0, "count"), n_samples=0),
    lambda: trace_integral(_ONE, (0,), 0.0, [np.ones(1, dtype=complex)],
                           FAST, n_samples=0),
    lambda: average_operator(toeplitz_operator(_ONE, _P1, 1, 0.0, FAST), _P1,
                             0, substream(0, "count")),
    lambda: quasi_radialize(_ONE, 0),
], ids=["oracle_matrix", "trace_integral", "average_operator",
        "quasi_radialize"])
def test_sample_counts_below_one_are_rejected(call):
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        call()
