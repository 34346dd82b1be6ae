"""Structural checks: block-diagonality, tensor constancy, traces, commutators."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from toepblocks import structure, toeplitz
from toepblocks import (
    BlockOperator,
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
    phi_factor,
    pseudo_factor,
    radial_poly,
    sample_ball,
    sequence_ST,
    split_alpha,
    substream,
    toeplitz_operator,
    trace_identity_check,
    trace_integral,
    xi_monomial,
    zpoly,
)
from toepblocks.quad import haar_unitary_batch, radial_rule
from toepblocks.structure import oracle_traces
from toepblocks.toeplitz import (log_monomial_norm_sq, log_slice_prefactor,
                                 orthonormal_rows, unitary_action_matrix)

P22 = Partition((2, 2))
FAST = QuadratureSpec(ball_samples=40_000, haar_samples=600, radial_nodes=12,
                      sphere_nodes=12, torus_nodes=8)


class TestOffblockLeakage:
    def test_quasi_radial_statistically_zero(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        [rep] = offblock_leakage([a], 2, 0.0, FAST)
        assert rep.passed

    def test_phi_statistically_zero(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        [rep] = offblock_leakage([a], 2, 0.0, FAST)
        assert rep.passed

    def test_unbalanced_direction_leaks(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        [rep] = offblock_leakage([a], 2, 0.0, FAST)
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
        T = toeplitz_operator(a, 3, 0.0, FAST)
        for kappa in [(1, 1), (2, 1), (1, 2)]:
            M, res = extract_M(T, j, kappa)
            assert res < 1e-12
            assert np.max(np.abs(M - mblock_f(a, j, kappa, 0.0, FAST))) < 1e-12

    def test_cross_block_control_fails(self):
        c = cross_block_control(P22)
        T = toeplitz_operator(c, 2, 0.0, FAST)
        _, res = extract_M(T, 1, (1, 1))
        assert res > 1e-2

    def test_missing_block_rejected(self):
        T = assemble_diagonal(lambda kappa: 1.0, P22, 1, 0.0)
        with pytest.raises(ValueError, match="no block"):
            extract_M(T, 1, (3, 3))

    @pytest.mark.parametrize("k", [(2, 2), (1, 3), (2, 1, 1), (3, 2)],
                             ids=lambda k: "-".join(map(str, k)))
    def test_matches_grouping_by_outer_multi_index(self, k):
        p = Partition(k)
        rng = substream(0, "extract", repr(k))
        blocks = {}
        for kappa in enumerate_kappas(p, 4):
            d = dim_P(p, kappa)
            blocks[kappa] = (rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))
        T = BlockOperator(p, 0.0, 4, blocks, "random")
        for kappa in blocks:
            for j in range(1, p.m + 1):
                M, res = extract_M(T, j, kappa)
                M_ref, res_ref = _grouped_extract_M(T, j, kappa)
                assert np.max(np.abs(M - M_ref)) < 1e-14
                assert abs(res - res_ref) < 1e-14

    def test_block_index_out_of_range(self):
        T = assemble_diagonal(lambda kappa: 1.0, P22, 1, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            extract_M(T, 3, (1, 0))


def _grouped_extract_M(T, j, kappa):
    """extract_M by grouping the basis on the multi-index outside block j."""
    p = T.partition
    groups = {}
    for idx, alpha in enumerate(enumerate_basis(p, kappa)):
        groups.setdefault(split_alpha(alpha, p, j)[1], []).append(idx)
    slices = list(groups.values())
    B = T.blocks[kappa]
    diag = [B[np.ix_(rows, rows)] for rows in slices]
    M = sum(diag) / len(diag)
    dev = max(float(np.max(np.abs(S - M))) for S in diag)
    off = max([float(np.max(np.abs(B[np.ix_(ri, rl)])))
               for i, ri in enumerate(slices)
               for l, rl in enumerate(slices) if i != l], default=0.0)
    return M, dev + off


class TestCommutator:
    def test_different_blocks_commute(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1), radial_terms=[(1.0, (1, 1))])
        b = pseudo_factor(P22, 2, (2, 0), (1, -1))
        Ta = toeplitz_operator(a, 3, 0.0, FAST)
        Tb = toeplitz_operator(b, 3, 0.0, FAST)
        norms = commutator(Ta, Tb)
        assert max(v["frobenius"] for v in norms.values()) < 1e-10
        assert max(v["spectral"] for v in norms.values()) < 1e-10

    def test_center_commutes_with_everything(self):
        qr = radial_poly(P22, [(1.0, (1, 0)), (0.3, (0, 2))])
        Tq = toeplitz_operator(qr, 3, 0.0, FAST)
        a, _ = noncommuting_pair(P22, 1)
        Ta = toeplitz_operator(a, 3, 0.0, FAST)
        norms = commutator(Tq, Ta)
        assert max(v["frobenius"] for v in norms.values()) < 1e-10

    def test_designed_pair_does_not_commute(self):
        a, b = noncommuting_pair(P22, 1)
        Ta = toeplitz_operator(a, 2, 0.0, FAST)
        Tb = toeplitz_operator(b, 2, 0.0, FAST)
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
        T = toeplitz_operator(a, 2, 0.0, FAST)
        avg = average_operator(T)
        t0, t1 = block_traces(T), block_traces(avg)
        for kappa in T.kappas():
            assert abs(t0[kappa][0] - t1[kappa][0]) < 1e-12


class TestTraceIdentity:
    def test_quasi_radial_tight(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        [rep] = trace_identity_check([a], [(1, 1)], 0.0, FAST)
        assert rep.passed

    def test_phi_type(self):
        a = phi_factor(P22, 1, (1, 1), (1, 1))
        [rep] = trace_identity_check([a], [(1, 1)], 0.0, FAST)
        assert rep.passed

    def test_constant(self):
        a = constant_symbol(P22)
        [rep] = trace_identity_check([a], [(2, 1)], 1.5, FAST)
        assert rep.passed
        d = dim_P(P22, (2, 1))
        assert abs(rep.metrics["block_trace"] - d) <= 5 * max(
            rep.metrics["block_trace_stderr"], 1e-12) + 1e-9

    def test_rejects_non_invariant(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        with pytest.raises(ValueError):
            trace_identity_check([a], [(1, 1)], 0.0, FAST)

    def test_zero_variance_band(self):
        # both sides are exact up to roundoff and their standard errors are
        # roundoff too: the band must not collapse below the roundoff
        [rep] = trace_identity_check([constant_symbol(P22)], [(0, 0)], 0.0,
                                     FAST)
        assert rep.passed

    @pytest.mark.parametrize("a", [
        phi_factor(P22, 1, (1, 0), (0, 1)),
        block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex)),
    ], ids=["f-form", "oracle"])
    def test_left_sides_are_one_oracle_traces_call(self, a):
        # one draw per lambda serves every slice, in list order; the oracle
        # path's Haar side draws on the symbol's own stream
        kappas = [(1, 1), (0, 0), (2, 0), (0, 2)]
        spec = QuadratureSpec(ball_samples=3000, haar_samples=50,
                              radial_nodes=6)
        reps = trace_identity_check([a], kappas, 2.5, spec)
        [want] = oracle_traces([a], kappas, 2.5, spec, substream(
            spec.seed, "trace-identity", repr(2.5)))
        assert [next(iter(r.per_kappa)) for r in reps] == kappas
        for rep, (tr, se) in zip(reps, want):
            assert rep.metrics["block_trace"] == tr
            assert rep.metrics["block_trace_stderr"] == se
        again = trace_identity_check([a], kappas, 2.5, spec, rng=substream(
            spec.seed, "trace-identity", repr(2.5)))
        assert [r.to_dict() for r in again] == [r.to_dict() for r in reps]

    def test_one_slice_report_keeps_its_keys(self):
        a = pseudo_factor(P22, 2, (2, 0), (1, -1))
        [rep] = trace_identity_check([a], [(1, 1)], 0.0, FAST)
        assert set(rep.metrics) == {
            "block_trace", "block_trace_stderr", "dim_times_gamma",
            "gamma_stderr", "discrepancy", "combined_stderr", "sigma_ratio",
            "tolerance_ratio"}
        assert list(rep.per_kappa) == [(1, 1)]
        assert set(rep.per_kappa[(1, 1)]) == {"dim", "gamma_hat"}
        assert rep.tolerances == {"sigma_band": 5.0}
        assert set(rep.provenance) == {"symbol", "lambda", "haar_path",
                                       "haar_samples", "ball_samples",
                                       "ball_stream"}
        assert rep.provenance["ball_stream"] == "trace-identity"

    def test_rejects_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        ctrl = xi_monomial(P22, 1, (1, 0), (0, 0))
        with pytest.raises(ValueError, match="block-torus invariant"):
            trace_identity_check([ctrl], [(0, 0), (1, 1)], 0.0, FAST)
        with pytest.raises(ValueError):  # a malformed second slice
            trace_identity_check([constant_symbol(P22)], [(0, 0), (1,)], 0.0,
                                 FAST)
        assert trace_identity_check([constant_symbol(P22)], [], 0.0, FAST) == []
        assert drawn == []


class TestTraceIntegral:
    def test_constant_gives_dimension(self):
        a = constant_symbol(P22)
        [(val, se)] = trace_integral(a, [(1, 2)], 0.0, FAST)
        assert abs(val - dim_P(P22, (1, 2))) <= 5 * se + 1e-8

    def test_matches_block_trace(self):
        a = block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        [(val, se)] = trace_integral(a, [(1, 1)], 0.0, FAST)
        tr = block_traces(T)[(1, 1)][0]
        band = 5 * math.hypot(se, 4 * T.block_errors[(1, 1)]) + 1e-8
        assert abs(val - tr) <= band

    @pytest.mark.parametrize("call", [
        lambda a: trace_integral(a, [(1.5, 1)], 0.0, FAST),
        lambda a: structure.trace_integral_check(
            toeplitz_operator(a, 2, 0.0, FAST), a, (1.5, 1), FAST),
        lambda a: oracle_traces([a], [(1.5, 1)], 0.0, FAST,
                                substream(0, "float-kappa")),
        lambda a: trace_identity_check([a], [(1.5, 1)], 0.0, FAST),
        lambda a: equivariance_check(
            [toeplitz_operator(a, 2, 0.0, FAST)], [a],
            [[np.eye(4, dtype=complex)]], (1.5, 1), FAST),
        lambda a: extract_M(toeplitz_operator(a, 2, 0.0, FAST), 1, (1.5, 1)),
        lambda a: gamma_quasi_radial(lambda R: np.ones(len(R)), (1.5, 1), 0.0,
                                     P22, FAST),
        lambda a: mblock_f(a, 1, (1.5, 1), 0.0, FAST),
        lambda a: unitary_action_matrix(np.eye(4), P22, (1.5, 1)),
        lambda a: enumerate_basis(P22, (1.5, 1)),
        lambda a: dim_P(P22, (1.5, 1)),
        lambda a: radial_rule(P22, (1.5, 1), FAST, 0.0),
        lambda a: log_monomial_norm_sq(4, 0.0, (1.5, 1)),
    ], ids=["trace_integral", "trace_integral_check", "oracle_traces",
            "trace_identity_check", "equivariance_check", "extract_M",
            "gamma_quasi_radial", "mblock_f", "unitary_action_matrix",
            "enumerate_basis", "dim_P", "radial_rule",
            "log_monomial_norm_sq"])
    def test_rejects_float_kappa(self, call, monkeypatch):
        # int() would read (1.5, 1) as the slice (1, 1), and the oracle
        # traces would mix r^(2 * 1.5) with the norm of z^(1, 1)
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="must be an integer, got 1.5"):
            call(phi_factor(P22, 1, (1, 0), (1, 0)))
        assert drawn == []

    def test_list_equals_the_one_slice_calls(self):
        # on every path a call over a slice list returns, bit for bit, the
        # calls over each slice alone; a passed rng is used slice by slice
        kappas = [(0, 0), (1, 1), (2, 1)]
        spec = QuadratureSpec(haar_samples=200, radial_nodes=6)
        for a in (radial_poly(P22, [(1.0, (1, 0))]),
                  phi_factor(P22, 1, (1, 0), (1, 0), [(1.0, (0, 1))]),
                  pseudo_factor(P22, 2, (2, 0), (0, 0)),
                  block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75])
                                  .astype(complex))):
            assert trace_integral(a, kappas, 0.5, spec) == [
                trace_integral(a, [kappa], 0.5, spec)[0] for kappa in kappas]
            rng = substream(0, "ti-list")
            alone = [trace_integral(a, [kappa], 0.5, spec, rng)[0]
                     for kappa in kappas]
            assert trace_integral(a, kappas, 0.5, spec,
                                  substream(0, "ti-list")) == alone
            assert trace_integral(a, [], 0.5, spec) == []

    @pytest.mark.parametrize("make", [
        lambda: block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75])
                                .astype(complex)),
        lambda: zpoly(P22, [(1.0, (1, 0, 0, 0), (0, 1, 0, 0)),
                            (0.5j, (0, 0, 1, 0), (0, 0, 0, 1))],
                      TM_INVARIANT),
    ], ids=["block_hermitian", "zpoly"])
    def test_oracle_path_is_the_evaluator_at_the_first_basis_vector(self,
                                                                    make):
        # the in-test reference at u = e_1, on the same draws, default
        # streams and a passed rng alike
        a, kappas = make(), [(0, 0), (1, 1), (2, 1)]
        spec = QuadratureSpec(haar_samples=200, radial_nodes=6, seed=5)
        e1 = [np.eye(kj, dtype=complex)[:, 0] for kj in P22.k]
        got = trace_integral(a, kappas, 0.5, spec)
        for kappa, pair in zip(kappas, got):
            rng = substream(5, "trace-integral", a.name, repr(0.5),
                            repr(kappa))
            assert pair == _evaluator_haar_trace(a, kappa, 0.5, e1, spec,
                                                 rng)
        rng = substream(0, "ti-oracle")
        ref = [_evaluator_haar_trace(a, kappa, 0.5, e1, spec, rng)
               for kappa in kappas]
        assert trace_integral(a, kappas, 0.5, spec,
                              substream(0, "ti-oracle")) == ref

    def test_one_quasi_radialize_per_call(self, monkeypatch):
        calls = []

        def spy(a, spec):
            calls.append(a.name)
            return toeplitz.quasi_radialize(a, spec)

        monkeypatch.setattr(structure, "quasi_radialize", spy)
        a = phi_factor(P22, 1, (1, 0), (1, 0), [(1.0, (0, 1))])
        assert len(trace_integral(a, enumerate_kappas(P22, 3), 0.0,
                                  FAST)) == 10
        assert calls == [a.name]


def _evaluator_haar_trace(a, kappa, lam, u_vectors, spec, rng):
    """Reference Haar trace: the symbol's evaluator at r_j A_j^{-1} u_j.

    Monte Carlo over ``spec.haar_samples`` block unitaries, drawn as the
    oracle path of ``trace_integral`` draws them (chunks of 2_000_000 // Qr,
    blocks in order), with the points laid out radius-major and the
    estimator formed as there, so that at u_j = e_1 the two agree bit for
    bit; returns (mean, stderr).
    """
    p = a.partition
    n_samples = spec.haar_samples
    R, w = radial_rule(p, kappa, spec, lam)
    Qr = R.shape[0]
    chunk = max(1, 2_000_000 // Qr)
    raw = []
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        Z = np.empty((Qr, c, p.n), dtype=complex)
        for j0, (sl, kj) in enumerate(zip(p.block_slices(), p.k)):
            A = haar_unitary_batch(kj, c, rng)
            v = np.conj(np.swapaxes(A, -1, -2)) @ u_vectors[j0]
            Z[:, :, sl] = R[:, None, j0, None] * v[None, :, :]
        raw.append(w @ a(Z.reshape(Qr * c, p.n)).reshape(Qr, c))
    vals = (dim_P(p, kappa) * math.exp(log_slice_prefactor(p, kappa, lam))
            * np.concatenate(raw))
    mean = complex(vals.mean())
    return mean, float(np.sqrt(np.mean(np.abs(vals - mean) ** 2)
                               / n_samples))


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


def _unit(p, j):
    return tuple(int(i == 0) for i in range(p.k[j - 1]))


# payloads whose slice traces are not 0: |xi_1|^2 (r_1^2 + 0.5 r_2^4) and s_1^2
_NONZERO_TRACE_CASES = {
    "phi-22": lambda p, j: phi_factor(
        p, j, _unit(p, j), _unit(p, j),
        [(1.0, (2,) + (0,) * (p.m - 1)), (0.5, (0, 4) + (0,) * (p.m - 2))]),
    "pseudo-22": lambda p, j: pseudo_factor(
        p, j, tuple(2 * v for v in _unit(p, j)), (0,) * p.k[j - 1]),
}


class TestHaarTrace:
    @pytest.mark.parametrize("case", list(_NONZERO_TRACE_CASES))
    @pytest.mark.parametrize("k", [(2, 2), (3, 1), (1, 3)])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_payload_path_equals_the_block_trace(self, case, k, lam):
        # the sphere mean of the payload is exactly the U(k) average, so
        # dim times gamma_kappa of the averaged symbol is tr(T_a | P_kappa):
        # the kernel's Gram against the sphere-mean profile, two different
        # contractions on the same radial and reduced sphere rules
        p = Partition(k)
        spec = QuadratureSpec(radial_nodes=8, sphere_nodes=8, torus_nodes=6)
        for j in range(1, p.m + 1):
            a = _NONZERO_TRACE_CASES[case](p, j)
            traces = block_traces(toeplitz_operator(a, 3, lam, spec))
            got = trace_integral(a, list(traces), lam, spec)
            for (kappa, (tr, _)), (val, se) in zip(traces.items(), got):
                assert se == 0.0
                assert abs(tr) > 1e-3
                assert val == pytest.approx(tr, rel=1e-12, abs=0), (j, kappa)

    @pytest.mark.parametrize("case", list(_PAYLOAD_CASES))
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_payload_path_matches_evaluator_on_the_same_draws(self, case,
                                                              lam):
        # the payload path is exact and draws nothing; the evaluator's Monte
        # Carlo Haar trace on this stream is the independent reference
        make, kappa = _PAYLOAD_CASES[case]
        a = make()
        spec = QuadratureSpec(radial_nodes=8, haar_samples=400)
        [got] = trace_integral(a, [kappa], lam, spec,
                               rng=substream(0, "ht", case))
        ref = _evaluator_haar_trace(a, kappa, lam, _u_vectors(a.partition),
                                    spec, substream(0, "ht", case))
        assert got[1] == 0.0 and ref[1] > 0
        assert abs(got[0] - ref[0]) <= 5 * ref[1]

    def test_payload_path_matches_evaluator_over_several_chunks(self):
        # Qr = 24^3 = 13824 radial nodes: the reference draws in chunks of
        # 144, 144 and 12
        p = Partition((2, 1, 1))
        a = phi_factor(p, 1, (1, 1), (1, 1), [(1.0, (0, 1, 1))])
        spec = QuadratureSpec(radial_nodes=24, haar_samples=300)
        [got] = trace_integral(a, [(2, 1, 0)], 1.0, spec,
                               rng=substream(0, "ht3"))
        ref = _evaluator_haar_trace(a, (2, 1, 0), 1.0, _u_vectors(p), spec,
                                    substream(0, "ht3"))
        assert got[1] == 0.0 and ref[1] > 0
        assert abs(got[0] - ref[0]) <= 5 * ref[1]

    @pytest.mark.parametrize("case", ["phi-22", "pseudo-22"])
    def test_payload_calls_stay_within_the_chunk_budget(self, case,
                                                        monkeypatch):
        # Qr = 8^2 = 64 radial nodes times 24 * 16 = 384 reduced sphere
        # nodes: 24 576 (radial, sphere) rows
        a, kappa = _NONZERO_TRACE_CASES[case](P22, 1), (1, 2)
        spec = QuadratureSpec(radial_nodes=8)
        [ref] = trace_integral(a, [kappa], 0.0, spec)
        field = "f_payload" if a.f_payload is not None else "g_payload"
        payload, numbers = getattr(a, field), []

        def recording(r, *args):
            cols = r.shape[1] + sum(x.shape[1] for x in args) + 1
            numbers.append(r.shape[0] * cols)
            return payload(r, *args)

        monkeypatch.setattr(toeplitz, "_CHUNK_BUDGET", 20_000)
        [got] = trace_integral(dataclasses.replace(a, **{field: recording}),
                               [kappa], 0.0, spec)
        assert len(numbers) > 1 and max(numbers) <= 20_000
        assert abs(ref[0]) > 1e-3
        assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0)
        assert got[1] == ref[1] == 0.0

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
        [(val, se)] = trace_integral(a, [(2, 1)], lam, FAST)
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
                (phi_factor(P22, 1, (1, 0), (0, 1)), "f-form", 0),
                (pseudo_factor(P22, 2, (2, 0), (1, -1)), "g-form", 0),
                (block_hermitian(P22, np.eye(4, dtype=complex)), "oracle",
                 50)):
            drawn.clear()
            [rep] = trace_identity_check([a], [(1, 1)], 0.0, spec)
            assert rep.provenance["haar_path"] == path
            assert rep.provenance["haar_samples"] == draws
            assert sum(drawn) == draws * P22.m
            assert (rep.metrics["gamma_stderr"] == 0.0) == (draws == 0)

    def test_trace_identity_calls_trace_integral_once_per_symbol(
            self, monkeypatch):
        calls = []

        def spy(a, kappas, *args):
            calls.append((a.name, list(kappas)))
            return trace_integral(a, kappas, *args)

        monkeypatch.setattr(structure, "trace_integral", spy)
        kappas = [(0, 0), (1, 1), (2, 1)]
        symbols = [radial_poly(P22, [(1.0, (1, 0))]),
                   phi_factor(P22, 1, (1, 0), (0, 1))]
        reports = trace_identity_check(symbols, kappas, 0.0, QuadratureSpec(
            ball_samples=2000, radial_nodes=6))
        assert len(reports) == 6
        assert calls == [(a.name, kappas) for a in symbols]

    def test_oracle_trace_integral_report_repeats_its_integral(self):
        # one integral per report: the u2 fields repeat the u1 figures
        a = block_hermitian(
            P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex))
        spec = QuadratureSpec(ball_samples=20_000, haar_samples=200,
                              radial_nodes=6)
        rep = structure.trace_integral_check(
            toeplitz_operator(a, 2, 0.0, spec), a, (1, 1), spec)
        [(val, se)] = trace_integral(a, [(1, 1)], 0.0, spec)
        m = rep.metrics
        assert rep.provenance["haar_path"] == "oracle" and se > 0
        assert m["integral_u1"] == m["integral_u2"] == val
        assert m["diff_u1_u2"] == 0.0
        assert m["band_u1_u2"] == structure.sigma_band(math.hypot(se, se),
                                                       m["block_trace"])
        assert rep.passed


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
        [got] = oracle_traces([a], kappas, lam, spec, substream(0, "ot-ref"))
        # one chunk holds every sample, so these are the estimator's draws
        Z = sample_ball(n, lam, spec.ball_samples, substream(0, "ot-ref"))
        assert len(got) == len(kappas)
        for kappa, (tr, se) in zip(kappas, got):
            E = orthonormal_rows(Z, enumerate_basis(p, kappa).alphas, n, lam)
            X = a(Z) * np.sum(np.abs(E) ** 2, axis=0)
            assert tr == pytest.approx(X.mean(), rel=1e-12, abs=0)
            assert se == pytest.approx(X.std() / math.sqrt(X.size), rel=1e-12,
                                       abs=0)

    def test_radius_trace_at_large_lambda(self):
        # |z|^2 on (2,): tr(T|P_kappa) = dim * (k + kappa) / (n + kappa +
        # lam + 1); the kernel diagonal needs monomial norms exact at 1e14
        p, lam = Partition((2,)), 1e14
        a = zpoly(p, [(1.0, (1, 0), (1, 0)), (1.0, (0, 1), (0, 1))],
                  TM_INVARIANT)
        kappas = [(c,) for c in range(4)]
        [got] = oracle_traces([a], kappas, lam,
                              QuadratureSpec(ball_samples=20000),
                              substream(0, "ot-large"))
        for (c,), (tr, se) in zip(kappas, got):
            exact = (c + 1) * (2 + c) / (2 + c + lam + 1)
            assert abs(tr - exact) <= 5 * se, c

    def test_constant_trace_where_the_norm_is_subnormal(self):
        # at lambda 1e160 the norm of z^(2, 0) is about 2e-320: its
        # reciprocal overflows, so the kernel diagonal is formed in logs
        p = Partition((2,))
        [[(tr, se)]] = oracle_traces([constant_symbol(p)], [(2,)], 1e160,
                                     QuadratureSpec(ball_samples=2000),
                                     substream(0, "ot-subnormal"))
        assert np.isfinite(tr) and 0 < se < 1
        assert abs(tr - dim_P(p, (2,))) <= 5 * se

    @pytest.mark.parametrize("lam", [1e160, 1e300])
    def test_tiny_symbol_keeps_its_stderr(self, lam):
        # |z_1|^2 is about 1 / lam, so its squared values underflow to 0
        # unless they are scaled: E|z_1|^2 = 1 / (n + lam + 1), the (0, 0)
        # block and the trace on kappa = (0, 0) alike
        a = zpoly(P22, [(1.0, (1, 0, 0, 0), (1, 0, 0, 0))], TM_INVARIANT)
        spec = QuadratureSpec(ball_samples=20000)
        [[(G, SE)]] = toeplitz.oracle_matrix([a], [(0, 0, 0, 0)], [1], lam,
                                             spec, substream(0, "tiny"))
        [[(tr, se)]] = oracle_traces([a], [(0, 0)], lam, spec,
                                     substream(0, "tiny"))
        exact = 1 / (4 + lam + 1)
        for value, stderr in ((G[0, 0], SE[0, 0]), (tr, se)):
            assert stderr > 0
            assert abs(value - exact) <= 5 * stderr

    def test_memory_is_bounded_whatever_the_sample_count(self):
        # chunks follow the oracle's rule, point coordinates counted, so at
        # 2 kappas the peak no longer grows with ball_samples
        a = block_hermitian(
            P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex))
        peaks = []
        for N in (20_000, 200_000):
            tracemalloc.start()
            try:
                oracle_traces([a], [(1, 1), (2, 1)], 0.0,
                              QuadratureSpec(ball_samples=N),
                              substream(0, "ot-memory"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 6 * 2**20, peaks
        assert peaks[1] <= 1.5 * peaks[0], peaks


    @pytest.mark.parametrize("kappa", [(1,), (1, 0, 1), (1, -1)],
                             ids=["short", "long", "negative"])
    def test_malformed_slice_is_rejected_before_any_draw(self, kappa,
                                                         monkeypatch):
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError,
                           match=re.escape(f"kappa {kappa!r} is not a slice")):
            oracle_traces([constant_symbol(P22)], [(0, 0), kappa], 0.0,
                          FAST, substream(0, "ot-malformed"))
        with pytest.raises(ValueError,
                           match=re.escape(f"kappa {kappa!r} is not a slice")):
            offblock_leakage([constant_symbol(P22)], 2, 0.0, FAST,
                             trace_kappas=[(0, 0), kappa])
        assert drawn == []


class TestGramTraces:
    """Slice traces from the pass that estimates the degree-d Gram."""

    SPEC = QuadratureSpec(ball_samples=6000, haar_samples=40, radial_nodes=6,
                          sphere_nodes=6, torus_nodes=6)
    SYMBOLS = [constant_symbol(P22), radial_poly(P22, [(1.0, (1, 0))]),
               phi_factor(P22, 1, (1, 0), (0, 1)),
               block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75]
                                            ).astype(complex)),
               xi_monomial(P22, 1, (1, 0), (0, 0))]
    KAPPAS = [(0, 0), (1, 1), (2, 0), (0, 2)]

    def test_offblock_reports_are_unchanged(self):
        alone = offblock_leakage(self.SYMBOLS, 2, 2.5, self.SPEC)
        reports, traces = offblock_leakage(self.SYMBOLS, 2, 2.5, self.SPEC,
                                           trace_kappas=self.KAPPAS)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in alone]
        assert [len(rows) for rows in traces] == [4] * len(self.SYMBOLS)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_traces_agree_with_the_exact_ones(self, lam):
        # the T^m symbols' traces within 5 sigma of dim * gamma, and their
        # stderr within 15% of a separate oracle_traces estimate's
        symbols = self.SYMBOLS[:4]
        _, traces = offblock_leakage(symbols, 2, lam, self.SPEC,
                                     trace_kappas=self.KAPPAS)
        other = oracle_traces(symbols, self.KAPPAS, lam, self.SPEC,
                              substream(0, "gram-traces"))
        for a, rows, rows2 in zip(symbols, traces, other):
            exact = trace_integral(a, self.KAPPAS, lam, self.SPEC)
            for (tr, se), (_, se2), (v, vse) in zip(rows, rows2, exact):
                assert abs(tr - v) <= 5 * math.hypot(se, vse) + 1e-12
                assert se == pytest.approx(se2, rel=0.15, abs=1e-12)

    def test_slices_outside_the_rows_are_oracle_traces(self):
        # the kernel diagonal is closed-form, so (3, 0) needs no degree-3
        # rows; at 3000 samples one chunk holds every sample in both calls
        # (oracle_traces runs the pass with alphas=[]), so both read the
        # same points
        spec = dataclasses.replace(self.SPEC, ball_samples=3000)
        kappas = [(1, 1), (3, 0)]
        _, got = offblock_leakage(self.SYMBOLS, 2, 0.0, spec,
                                  substream(0, "gram-outside"),
                                  trace_kappas=kappas)
        want = oracle_traces(self.SYMBOLS, kappas, 0.0, spec,
                             substream(0, "gram-outside"))
        for rows, rows2 in zip(got, want):
            for (tr, se), (tr2, se2) in zip(rows, rows2):
                assert tr == pytest.approx(tr2, rel=1e-13, abs=0)
                assert se == pytest.approx(se2, rel=1e-13, abs=0)

    def test_given_left_sides_draw_nothing(self, monkeypatch):
        symbols = self.SYMBOLS[:4]
        _, traces = offblock_leakage(symbols, 2, 0.0, self.SPEC,
                                     trace_kappas=self.KAPPAS)
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        reports = trace_identity_check(symbols, self.KAPPAS, 0.0, self.SPEC,
                                       lhs=traces)
        assert drawn == []
        assert [(r.metrics["block_trace"], r.metrics["block_trace_stderr"])
                for r in reports] == [pair for rows in traces for pair in rows]
        assert {r.provenance["ball_stream"] for r in reports} == {"offblock"}
        with pytest.raises(ValueError, match="one entry per symbol"):
            trace_identity_check(symbols, self.KAPPAS, 0.0, self.SPEC,
                                 lhs=traces[:3])


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

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        p = Partition((2,))
        a = zpoly(p, [(1.0, (1, 0), (1, 0))], TM_INVARIANT)
        sequence_ST(a, 0.0, 6, FAST)
        assert sum(drawn) == FAST.ball_samples


class TestEquivariance:
    def test_identity_rotation_zero(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        [rep] = equivariance_check([T], [a], [[np.eye(4, dtype=complex)]],
                                   (1, 1), FAST)
        assert rep.passed

    def test_random_rotation(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        A = haar_uk_sample(P22, substream(0, "eq-rot"))
        [rep] = equivariance_check([T], [a], [[A]], (1, 1), FAST)
        assert rep.passed

    def test_radial_symbol_any_rotation(self):
        a = radial_poly(P22, [(1.0, (0, 1))])
        T = toeplitz_operator(a, 2, 0.0, FAST)
        A = haar_uk_sample(P22, substream(1, "eq-rad"))
        [rep] = equivariance_check([T], [a], [[A]], (1, 1), FAST)
        assert rep.passed

    def test_quasi_radial_rotated_side_is_exact(self, monkeypatch):
        # R(A) gamma I R(A)* = gamma I: no oracle block is estimated
        def no_oracle(*args):
            raise AssertionError("a quasi-radial rotated side was sampled")

        monkeypatch.setattr(structure, "toeplitz_block_oracle", no_oracle)
        a = radial_poly(P22, [(1.0, (0, 1)), (0.5j, (2, 0))])
        T = toeplitz_operator(a, 3, 2.5, FAST)
        A = haar_uk_sample(P22, substream(1, "eq-rad"))
        [rep] = equivariance_check([T], [a], [[A]], (2, 1), FAST)
        assert rep.passed and rep.metrics["residual"] < 1e-13
        assert rep.metrics["combined_stderr"] == 0.0
        assert rep.metrics["tolerance_ratio"] < 1e-4
        assert rep.provenance["rotated_path"] == "diagonal-gamma"
        assert rep.provenance["samples"] == 0

    def test_exact_band_still_shows_how_far_a_wrong_block_is(self):
        # both sides exact: the band is the floor, and sigma_ratio reads 0
        a = radial_poly(P22, [(1.0, (1, 0))])
        T = toeplitz_operator(a, 2, 0.0, FAST)
        A = haar_uk_sample(P22, substream(1, "eq-rad"))
        bad = dataclasses.replace(
            T, blocks={**T.blocks, (1, 1): 1.01 * T.blocks[(1, 1)]})
        [rep] = equivariance_check([bad], [a], [[A]], (1, 1), FAST)
        assert not rep.passed and rep.metrics["sigma_ratio"] == 0.0
        assert rep.metrics["tolerance_ratio"] > 1e3

    @pytest.mark.parametrize("rotation", ["identity", "haar"])
    def test_wrong_operator_block_fails(self, rotation):
        # the f-form block of xi_1 conj(xi_2) on (1, 1) has two entries 1/3
        # above the diagonal: transposed (about 77 sigma), or with a zero
        # off-diagonal entry moved by 0.1 (about 12 sigma), it is wrong
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        A = (np.eye(4, dtype=complex) if rotation == "identity"
             else haar_uk_sample(P22, substream(0, "eq-rot")))
        perturbed = T.blocks[(1, 1)].copy()
        perturbed[0, 1] += 0.1
        [true] = equivariance_check([T], [a], [[A]], (1, 1), FAST)
        assert true.passed and true.metrics["sigma_ratio"] < 3
        assert true.provenance == {"symbol": a.name, "lambda": 0.0,
                                   "rotated_path": "oracle",
                                   "samples": FAST.ball_samples}
        for block, margin in ((T.blocks[(1, 1)].T, 50), (perturbed, 10)):
            bad = dataclasses.replace(T, blocks={**T.blocks, (1, 1): block})
            [rep] = equivariance_check([bad], [a], [[A]], (1, 1), FAST)
            assert not rep.passed
            assert rep.metrics["sigma_ratio"] > margin
            assert rep.metrics["tolerance_ratio"] > 1

    def test_oracle_operator_stderr_is_counted(self):
        a = block_hermitian(P22, np.array(
            [[1.0, 0.5 + 0.25j, 0, 0], [0.5 - 0.25j, -0.5, 0, 0],
             [0, 0, 0.75, 0.5j], [0, 0, -0.5j, 0.25]]))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        assert T.provenance == "oracle"
        A = haar_uk_sample(P22, substream(2, "eq-herm"))
        [rep] = equivariance_check([T], [a], [[A]], (1, 1), FAST)
        # the same rotated side, with the operator's stderr dropped
        [alone] = equivariance_check(
            [dataclasses.replace(T, block_stderr={})], [a], [[A]], (1, 1),
            FAST)
        assert rep.passed
        assert rep.metrics["residual"] == alone.metrics["residual"]
        assert (rep.metrics["combined_stderr"]
                > 1.2 * alone.metrics["combined_stderr"])

    def test_lambda_comes_from_the_operator(self):
        # with a radial factor the (1, 1) block moves by 0.038 from lambda 0
        # to 2.5; the rotated side is estimated at T.lam
        a = phi_factor(P22, 1, (1, 0), (0, 1), [(1.0, (1, 0))])
        A = haar_uk_sample(P22, substream(0, "eq-rot"))
        [rep] = equivariance_check([toeplitz_operator(a, 2, 2.5, FAST)], [a],
                                   [[A]], (1, 1), FAST)
        assert rep.passed and rep.provenance["lambda"] == 2.5
        mislabeled = dataclasses.replace(toeplitz_operator(a, 2, 0.0, FAST),
                                         lam=2.5)
        [rep] = equivariance_check([mislabeled], [a], [[A]], (1, 1), FAST)
        assert not rep.passed


class TestSharedDraws:
    """offblock, trace-identity and equivariance serve a list of symbols
    from one ball draw per lambda (per rotation index for equivariance);
    a symbol's report does not depend on the others in the list."""

    # enough samples for several chunks: a chunk size that grew or shrank
    # with the number of symbols would change the draws and the sums
    SPEC = QuadratureSpec(ball_samples=60_000, haar_samples=50,
                          radial_nodes=6, sphere_nodes=8, torus_nodes=8)
    PHI = phi_factor(P22, 1, (1, 0), (0, 1))
    RAD = radial_poly(P22, [(1.0, (1, 0))])
    HERM = block_hermitian(
        P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex), name="herm")
    CTRL = xi_monomial(P22, 1, (1, 0), (0, 0))

    @staticmethod
    def _alone_first_last(run, a, others):
        got = []
        for symbols in ([a], [a, *others], [*others, a]):
            got.append([r.to_dict() for r in run(symbols)
                        if r.provenance["symbol"] == a.name])
        assert got[0] and got[1] == got[0] and got[2] == got[0]

    def test_offblock_report_ignores_the_other_symbols(self):
        run = lambda symbols: offblock_leakage(symbols, 2, 0.5, self.SPEC)
        for a in (self.PHI, self.CTRL):
            self._alone_first_last(run, a, [self.RAD, self.HERM])

    def test_trace_identity_report_ignores_the_other_symbols(self):
        # herm's Haar side draws on its own stream, after the shared draw
        run = lambda symbols: trace_identity_check(
            symbols, [(1, 1), (0, 0), (2, 0), (0, 2), (1, 0), (0, 1)], 0.5,
            self.SPEC)
        for a in (self.PHI, self.HERM):
            others = [s for s in (self.RAD, self.PHI, self.HERM) if s is not a]
            self._alone_first_last(run, a, others)

    def test_equivariance_report_ignores_the_other_symbols(self):
        symbols = (self.PHI, self.RAD, self.HERM)
        ops = {s.name: toeplitz_operator(s, 2, 0.5, self.SPEC)
               for s in symbols}
        rng = substream(0, "shared-rot")
        # other symbols take more rotations than phi
        rots = {s.name: [haar_uk_sample(P22, rng) for _ in range(2 + i)]
                for i, s in enumerate(symbols)}
        run = lambda syms: equivariance_check(
            [ops[s.name] for s in syms], syms, [rots[s.name] for s in syms],
            (1, 1), self.SPEC)
        self._alone_first_last(run, self.PHI, [self.RAD, self.HERM])
        reps = run([self.PHI, self.RAD, self.HERM])
        assert [r.provenance["symbol"] for r in reps] == (
            [self.PHI.name] * 2 + [self.RAD.name] * 3 + ["herm"] * 4)

    def test_empty_lists_draw_nothing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        rng = substream(0, "empty")
        assert offblock_leakage([], 2, 0.0, self.SPEC) == []
        assert offblock_leakage([], 2, 0.0, self.SPEC,
                                trace_kappas=[(1, 1)]) == ([], [])
        assert trace_identity_check([], [(1, 1)], 0.0, self.SPEC) == []
        assert equivariance_check([], [], [], (1, 1), self.SPEC) == []
        assert oracle_traces([], [(1, 1)], 0.0, self.SPEC, rng) == []
        assert toeplitz.oracle_matrix([], [(0, 0, 0, 0)], [1], 0.0, self.SPEC,
                                      rng) == []
        assert toeplitz.toeplitz_block_oracle([], (1, 1), 0.0, self.SPEC,
                                              rng) == []
        # symbols, but no rows and no slices
        assert oracle_traces([self.PHI], [], 0.0, self.SPEC, rng) == [[]]
        assert toeplitz.oracle_matrix([self.PHI], [], [], 0.0, self.SPEC,
                                      rng) == [[]]
        assert toeplitz.oracle_matrix([self.PHI], [], [], 0.0, self.SPEC, rng,
                                      trace_kappas=[]) == ([[]], [[]])
        assert drawn == []

    def test_lists_are_rejected_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="block-torus invariant"):
            trace_identity_check([self.PHI, self.RAD, self.CTRL], [(1, 1)],
                                 0.0, self.SPEC)
        other = constant_symbol(Partition((1, 3)))
        with pytest.raises(ValueError, match="partition"):
            offblock_leakage([self.PHI, other], 2, 0.0, self.SPEC)
        T = toeplitz_operator(self.PHI, 2, 0.0, self.SPEC)
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="one rotation list per symbol"):
            equivariance_check([T], [self.PHI], [[eye], [eye]], (1, 1),
                               self.SPEC)
        mixed = np.eye(4, dtype=complex)[[1, 2, 0, 3]]  # not block diagonal
        with pytest.raises(ValueError, match="block diagonal"):
            equivariance_check([T, T], [self.PHI, self.PHI],
                               [[eye], [eye, mixed]], (1, 1), self.SPEC)
        assert drawn == []

    def test_missing_slice_is_rejected_before_any_draw(self, monkeypatch):
        # a degree-2 operator holds no block for (3, 0); the rotated PHI
        # would take its block from the sampling oracle
        drawn = []
        monkeypatch.setattr(toeplitz, "sample_ball",
                            lambda *args: drawn.append(args))
        T = toeplitz_operator(self.PHI, 2, 0.0, self.SPEC)
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match=r"no block for kappa=\(3, 0\)"):
            structure.trace_integral_check(T, self.PHI, (3, 0), self.SPEC)
        with pytest.raises(ValueError, match=r"no block for kappa=\(3, 0\)"):
            equivariance_check([T], [self.PHI], [[eye]], (3, 0), self.SPEC)
        assert drawn == []


class TestGateReport:
    def test_ratio_one_passes_and_the_next_float_fails(self):
        rep = structure.gate_report("g", 1.0, {"x": 2.0})
        assert rep.passed and not rep.expected_fail
        assert rep.metrics == {"x": 2.0, "tolerance_ratio": 1.0}
        above = np.nextafter(1.0, 2.0)
        rep = structure.gate_report("g", above, {})
        assert not rep.passed
        assert rep.metrics == {"tolerance_ratio": above}

    @pytest.mark.parametrize("given", [True, False])
    def test_control_records_failed_as_expected_as_given(self, given):
        # a commutator control fails as expected above WITNESS_NORM, not
        # when its gate fails, so the helper takes the verdict as given
        for ratio in (0.5, 2.0):
            rep = structure.gate_report("g", ratio, {}, given)
            assert rep.expected_fail
            assert rep.passed == (ratio <= 1.0)
            assert rep.metrics["failed_as_expected"] is given

    def test_vacuous_is_recorded_on_controls_only(self):
        rep = structure.gate_report("g", 0.0, {}, False, vacuous=True)
        assert rep.metrics == {"tolerance_ratio": 0.0,
                               "failed_as_expected": False, "vacuous": True}
        assert "vacuous" not in structure.gate_report(
            "g", 0.0, {}, False).metrics
        assert "vacuous" not in structure.gate_report(
            "g", 0.0, {}, vacuous=True).metrics


def test_report_serializes():
    a = phi_factor(P22, 1, (1, 0), (0, 1))
    [rep] = offblock_leakage([a], 1, 0.0, FAST)
    doc = rep.to_dict()
    import json

    json.dumps(doc)
    assert doc["check"] == "offblock-leakage"


def test_trace_identity_error_scales_with_haar_samples():
    # an oracle-path symbol: payload symbols have an exact Haar side
    a = block_hermitian(P22, np.diag([1.0, 0.5, -0.25, 0.75]).astype(complex))
    ses = {}
    for n in (100, 6400):
        spec = QuadratureSpec(ball_samples=20_000, haar_samples=n,
                              radial_nodes=10)
        [rep] = trace_identity_check([a], [(1, 1)], 0.0, spec)
        ses[n] = rep.metrics["gamma_stderr"]
        assert rep.passed
    # the averaged-symbol side shrinks like 1/sqrt(N): factor 8 for 64x N
    assert ses[6400] < ses[100] / 4
