"""Operator assembly: oracle, reduced formulas, diagonal path, averaging."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from toepblocks import (
    Partition,
    QuadratureSpec,
    TM_INVARIANT,
    assemble_diagonal,
    average_operator,
    block_hermitian,
    c_lambda,
    complex_sphere_rule,
    constant_symbol,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    gamma_quasi_radial,
    haar_uk_sample,
    mblock_f,
    mblock_g,
    monomial_norm_sq,
    noncommuting_pair,
    operator_from_json,
    operator_to_json,
    phi_factor,
    pseudo_factor,
    radial_poly,
    sphere_monomial_integral,
    substream,
    toeplitz_block_f,
    toeplitz_block_g,
    toeplitz_block_oracle,
    toeplitz_operator,
    unitary_action_matrix,
    xi_monomial,
    zpoly,
)
from toepblocks import quad, toeplitz
from toepblocks.mindex import compositions
from toepblocks.quad import SIGMA_BAND, RadialRuleError
from toepblocks.toeplitz import (
    load_operator,
    log_slice_prefactor,
    save_operator,
)

P22 = Partition((2, 2))
P12 = Partition((1, 2))
# block-diagonal Hermitian matrix for a T^m-invariant oracle-path symbol
H22 = np.array([[1.0, 0.5 + 0.25j, 0.0, 0.0],
                [0.5 - 0.25j, -0.5, 0.0, 0.0],
                [0.0, 0.0, 0.75, 0.5j],
                [0.0, 0.0, -0.5j, 0.25]])
_PAIR = [0.5, 0.0]  # one complex entry of a serialized matrix
FAST = QuadratureSpec(ball_samples=40_000, radial_nodes=16, sphere_nodes=16,
                      torus_nodes=10)


def sigma_close(G, SE, target, band=SIGMA_BAND):
    return np.all(np.abs(G - target) <= band * np.maximum(SE, 1e-300))


def _sphere_st_integral(k, s_exp, t_exp):
    """Integral of s^s_exp t^t_exp over the unit sphere of C^k, xi = t * s.

    The torus integral vanishes unless t_exp == 0; then s_exp must be even
    and the integrand is |xi^mu|^2 with mu = s_exp / 2.
    """
    if np.any(t_exp):
        return 0.0
    assert not np.any(np.asarray(s_exp) % 2), s_exp
    mu = tuple(int(e) // 2 for e in s_exp)
    return sphere_monomial_integral(k, mu, mu)


def _closed_form_single_block(p, j, kappa, lam, basis, st_exponents):
    """Exact single-block matrix of a radial-profile-1 payload on P_kappa.

    Entry [beta, alpha] is the sphere integral of payload * xi^alpha *
    conj(xi)^beta over the norms of xi^alpha and xi^beta on the sphere,
    times the radial Beta (Dirichlet) integral of the block weight and the
    slice prefactor; ``st_exponents(alpha, beta)`` gives that integrand's
    s and t exponents.
    """
    kj = p.k[j - 1]
    radial = -p.m * math.log(2.0) + math.lgamma(lam + 1)
    radial += sum(math.lgamma(kl + cl) for kl, cl in zip(p.k, kappa))
    radial -= math.lgamma(p.n + sum(kappa) + lam + 1)
    scale = math.exp(log_slice_prefactor(p, kappa, lam) + radial)
    norm = {al: sphere_monomial_integral(kj, al, al) for al in basis}
    return np.array([[
        scale * _sphere_st_integral(kj, *st_exponents(np.array(al),
                                                      np.array(be)))
        / math.sqrt(norm[al] * norm[be])
        for al in basis] for be in basis])


class TestMonomialNorms:
    def test_values(self):
        assert monomial_norm_sq(1, 0.0, (0,)) == pytest.approx(1.0)
        assert monomial_norm_sq(1, 0.0, (2,)) == pytest.approx(1 / 3)
        assert monomial_norm_sq(2, 0.0, (1, 0)) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("lam", [0, 1, 10**3, 10**6, 10**10, 10**14,
                                     10**20])
    def test_exact_at_large_lambda(self, lam):
        # alpha! / prod_{i <= |alpha|} (n + lam + i) and prod_{i <= n} (lam +
        # i) / pi^n, in exact rationals at an integer lambda
        for n, alpha in [(1, (3,)), (3, (2, 0, 1)), (4, (1, 2, 0, 4))]:
            exact = Fraction(math.prod(map(math.factorial, alpha)))
            for i in range(1, sum(alpha) + 1):
                exact /= n + lam + i
            got = monomial_norm_sq(n, float(lam), alpha)
            assert abs(Fraction(got) / exact - 1) < 1e-12, (n, alpha)
            ratio = Fraction(math.prod(lam + i for i in range(1, n + 1)))
            assert (c_lambda(n, float(lam)) * math.pi**n
                    == pytest.approx(float(ratio), rel=1e-12))

    def test_underflow_raises(self):
        # 1 / (1e307)^2 underflows to zero
        assert monomial_norm_sq(3, 1e307, (1, 0, 0)) > 0
        with pytest.raises(RadialRuleError, match="lambda is too large"):
            monomial_norm_sq(3, 1e307, (1, 1, 0))

    def test_oracle_orthonormality(self):
        # a == 1 gives the identity within the sampling band
        a = constant_symbol(P12)
        rng = substream(0, "orth")
        [(G, SE)] = toeplitz_block_oracle([a], (1, 1), 0.0, FAST, rng)
        assert sigma_close(G, SE, np.eye(2))


class TestOraclePath:
    def test_radial_scalar_on_disk(self):
        # n = 1, lam = 0, a = |z|^2: scalar (kap+1)/(kap+2) on each slice
        p = Partition((1,))
        a = radial_poly(p, [(1.0, (1,))])
        rng = substream(0, "disk")
        for kap in (0, 1, 3):
            [(G, SE)] = toeplitz_block_oracle([a], (kap,), 0.0, FAST, rng)
            assert sigma_close(G, SE, (kap + 1) / (kap + 2))

    def test_hermitian_for_real_symbol(self):
        a = phi_factor(P22, 1, (1, 1), (1, 1))  # |xi1 xi2|^2 is real
        rng = substream(0, "herm")
        [(G, SE)] = toeplitz_block_oracle([a], (1, 1), 0.0, FAST, rng)
        assert np.max(np.abs(G - G.conj().T)) <= 2 * SIGMA_BAND * np.max(SE)

    def test_positive_symbol_gives_psd_block(self):
        a = phi_factor(P22, 1, (1, 1), (1, 1))
        rng = substream(0, "psd")
        [(G, _)] = toeplitz_block_oracle([a], (2, 1), 0.0, FAST, rng)
        w = np.linalg.eigvalsh((G + G.conj().T) / 2)
        assert w.min() > -1e-3


class TestReducedFormulas:
    @pytest.mark.parametrize("kappa", [(0, 0), (1, 1), (2, 1)])
    def test_f_identity(self, kappa):
        a = phi_factor(P22, 1, (0, 0), (0, 0))  # f == 1 through the phi family
        B = toeplitz_block_f(a, 1, kappa, 0.0, FAST)
        assert np.max(np.abs(B - np.eye(B.shape[0]))) < 1e-8

    @pytest.mark.parametrize("kappa", [(1, 1), (0, 2)])
    def test_g_identity(self, kappa):
        a = pseudo_factor(P22, 2, (0, 0), (0, 0))
        B = toeplitz_block_g(a, 2, kappa, 2.5, FAST)
        assert np.max(np.abs(B - np.eye(B.shape[0]))) < 1e-8

    def test_single_block_entries_against_sphere_oracle(self):
        # m=1: the full block IS the single-block matrix; check one entry
        # against the exact sphere moments and the radial Beta integral
        p = Partition((2,))
        a = phi_factor(p, 1, (1, 0), (0, 1))
        spec = QuadratureSpec(radial_nodes=20, sphere_nodes=20, torus_nodes=10)
        B = toeplitz_block_f(a, 1, (1,), 0.0, spec)
        basis = enumerate_basis(p, (1,))
        i10, i01 = basis.index((1, 0)), basis.index((0, 1))
        # <T e_(0,1), e_(1,0)>: the sphere factor is the exact moment of
        # |xi1|^2 |xi2|^2, the radial factor int_0^1 r^5 dr = 1/6, and the
        # prefactor Gamma(4)/pi^2; the product collapses to 1/3
        sphere = sphere_monomial_integral(2, (1, 1), (1, 1))
        expected = (math.gamma(4.0) / math.pi**2) * sphere * (1.0 / 6.0)
        assert expected == pytest.approx(1 / 3, abs=1e-15)
        assert B[i10, i01] == pytest.approx(expected, abs=1e-10)
        assert abs(B[i01, i10]) < 1e-12
        assert abs(B[i10, i10]) < 1e-12

    def test_offslice_entries_exactly_zero(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        B = toeplitz_block_f(a, 1, (1, 1), 0.0, FAST)
        basis = enumerate_basis(P22, (1, 1))
        from toepblocks import split_alpha
        for r, be in enumerate(basis):
            for c, al in enumerate(basis):
                if split_alpha(al, P22, 1)[1] != split_alpha(be, P22, 1)[1]:
                    assert B[r, c] == 0.0

    @pytest.mark.parametrize("kappa", [(1, 0), (1, 1), (2, 1)])
    def test_f_equals_g_on_phi_symbols(self, kappa):
        af = phi_factor(P22, 1, (1, 0), (0, 1))
        ag = pseudo_factor(P22, 1, (1, 1), (1, -1))
        Bf = toeplitz_block_f(af, 1, kappa, 1.5, FAST)
        Bg = toeplitz_block_g(ag, 1, kappa, 1.5, FAST)
        assert np.max(np.abs(Bf - Bg)) < 1e-8

    @pytest.mark.parametrize("form, lam", [
        pytest.param("f", 0.0, id="0.0"),
        pytest.param("f", 1.5, id="1.5"),
        # the g-form shares the f-form's kernel, so it needs its own
        # independent reference: the oracle on a g-only payload
        pytest.param("g", 0.0, id="g-0.0"),
        pytest.param("g", 1.5, id="g-1.5"),
    ])
    def test_f_matches_oracle(self, form, lam):
        radial = [(1.0, (0, 0)), (0.5, (1, 0))]
        if form == "f":
            a = phi_factor(P22, 2, (1, 0), (0, 1), radial_terms=radial)
            B = toeplitz_block_f(a, 2, (1, 1), lam, FAST)
        else:
            a = pseudo_factor(P22, 2, (2, 0), (1, -1), radial_terms=radial)
            B = toeplitz_block_g(a, 2, (1, 1), lam, FAST)
        rng = substream(0, "f-oracle")
        [(G, SE)] = toeplitz_block_oracle([a], (1, 1), lam, FAST, rng)
        assert sigma_close(G, SE, B)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    @pytest.mark.parametrize("k, j, kappas", [
        ((3,), 1, [(0,), (3,), (8,)]),
        ((2, 2), 2, [(0, 0), (1, 1), (3, 0), (0, 4), (2, 2)]),
        ((1, 2), 2, [(0, 1), (2, 0), (1, 3)]),
    ])
    def test_single_block_matrix_closed_form(self, k, j, kappas, lam):
        # one xi-monomial (f-form) and one s/t-monomial (g-form) per block,
        # radial profile 1; s and t exponents share their parities so that
        # every nonzero sphere moment is an even one
        p, kj, spec = Partition(k), k[j - 1], QuadratureSpec()
        (fp, fq), (gs, gt) = {
            3: (((1, 0, 1), (0, 2, 0)), ((1, 1, 2), (1, -1, 0))),
            2: (((2, 0), (1, 1)), ((1, 3), (1, -1))),
        }[kj]
        f_sym, g_sym = phi_factor(p, j, fp, fq), pseudo_factor(p, j, gs, gt)

        # s and t exponents of payload * xi^alpha * conj(xi)^beta
        def f_st(al, be):
            return np.add(fp, fq) + al + be, np.subtract(fp, fq) + al - be

        def g_st(al, be):
            return np.add(gs, al) + be, np.add(gt, al) - be

        for kappa in kappas:
            basis = list(compositions(kappa[j - 1], kj))
            for sym, block, st in ((f_sym, mblock_f, f_st),
                                   (g_sym, mblock_g, g_st)):
                want = _closed_form_single_block(p, j, kappa, lam, basis, st)
                got = block(sym, j, kappa, lam, spec)
                assert np.max(np.abs(got - want)) <= 1e-12, (sym.name, kappa)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_single_block_matrix_circle_block(self, lam):
        # k_j = 1: the phase-reduced rule is one node of weight 1 and
        # every phase-invariant payload is a function of r only
        a = phi_factor(P12, 1, (2,), (2,), radial_terms=[(1.0, (1, 0))])
        for kappa in [(0, 0), (2, 1), (3, 2)]:
            M = mblock_f(a, 1, kappa, lam, FAST)
            want = gamma_quasi_radial(lambda r: np.atleast_2d(r)[:, 0] ** 2,
                                      kappa, lam, P12, FAST)
            # the mean of r_1^2 under the radial weight, a ratio of two
            # Dirichlet integrals: (k_1 + kappa_1) / (n + |kappa| + lam + 1)
            assert want == pytest.approx((1 + kappa[0])
                                         / (3 + sum(kappa) + lam + 1),
                                         abs=1e-13)
            assert M.shape == (1, 1)
            assert abs(M[0, 0] - want) <= 1e-13

    def test_wrong_class_rejected(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        with pytest.raises(ValueError):
            toeplitz_block_f(a, 1, (1, 1), 0.0, FAST)
        b = phi_factor(P22, 1, (1, 0), (0, 1))
        with pytest.raises(ValueError):
            toeplitz_block_g(b, 1, (1, 1), 0.0, FAST)  # no g payload


class TestReducedSphereRule:
    @pytest.mark.parametrize("kj", [1, 2, 3])
    def test_is_a_mean_rule(self, kj):
        # the weights sum to 1, and the mean of |xi^alpha|^2 is the sphere
        # integral over the area 2 pi^k_j / (k_j - 1)!, that is
        # alpha! (k_j - 1)! / (k_j - 1 + |alpha|)!
        Xi, w = toeplitz._reduced_sphere_rule(kj, QuadratureSpec())
        assert abs(w.sum() - 1.0) <= 1e-13
        area = 2 * math.pi ** kj / math.factorial(kj - 1)
        for degree in range(1, 5):
            for al in compositions(degree, kj):
                got = w @ np.prod(np.abs(Xi) ** (2 * np.array(al)), axis=1)
                want = sphere_monomial_integral(kj, al, al) / area
                assert abs(got - want) <= 1e-13, al


class TestGammaPath:
    def test_profile_one_gives_one(self):
        for k in [(1, 2), (2, 2)]:
            p = Partition(k)
            for kappa in enumerate_kappas(p, 3):
                g = gamma_quasi_radial(
                    lambda r: np.ones(np.atleast_2d(r).shape[0]), kappa, 2.5,
                    p, FAST)
                assert g == pytest.approx(1.0, abs=1e-12)

    def test_disk_formula(self):
        p = Partition((1,))
        for kap in range(8):
            g = gamma_quasi_radial(lambda r: np.atleast_2d(r)[:, 0] ** 2,
                                   (kap,), 0.0, p, FAST)
            assert g == pytest.approx((kap + 1) / (kap + 2), abs=1e-10)

    def test_linearity_in_constants(self):
        p = P12
        g = gamma_quasi_radial(
            lambda r: np.full(np.atleast_2d(r).shape[0], 3.25), (1, 2), 0.5,
            p, FAST)
        assert g == pytest.approx(3.25, abs=1e-10)

    def test_assemble_diagonal_matches_oracle_diag(self):
        p = P12
        a = radial_poly(p, [(1.0, (0, 1))])
        T = assemble_diagonal(
            lambda kappa: gamma_quasi_radial(a.radial_profile, kappa, 0.0, p,
                                             FAST), p, 2, 0.0)
        rng = substream(0, "diag-oracle")
        for kappa in [(1, 0), (1, 1)]:
            [(G, SE)] = toeplitz_block_oracle([a], kappa, 0.0, FAST, rng)
            assert sigma_close(G, SE, T.blocks[kappa])


class TestUnitaryAction:
    def test_identity(self):
        R = unitary_action_matrix(np.eye(4, dtype=complex), P22, (2, 1))
        assert np.array_equal(R, np.eye(R.shape[0]))

    def test_diagonal_torus_characters(self):
        t = np.exp(2j * math.pi * substream(0, "torus-act").random(4))
        R = unitary_action_matrix(np.diag(t), P22, (1, 2))
        basis = enumerate_basis(P22, (1, 2))
        want = np.diag([np.prod(t ** (-np.asarray(al))) for al in basis])
        assert np.max(np.abs(R - want)) < 1e-12

    def test_unitarity_and_homomorphism(self):
        rng = substream(0, "rep-test")
        A, B = haar_uk_sample(P22, rng), haar_uk_sample(P22, rng)
        for kappa in [(1, 1), (2, 1)]:
            RA = unitary_action_matrix(A, P22, kappa)
            RB = unitary_action_matrix(B, P22, kappa)
            RAB = unitary_action_matrix(A @ B, P22, kappa)
            assert np.max(np.abs(RA.conj().T @ RA - np.eye(RA.shape[0]))) < 1e-10
            assert np.max(np.abs(RA @ RB - RAB)) < 1e-10

    def test_rejects_general_unitary(self):
        from toepblocks import haar_unitary
        A = haar_unitary(4, substream(0, "rej"))
        with pytest.raises(ValueError, match="block diagonal"):
            unitary_action_matrix(A, P22, (1, 1))

    @pytest.mark.parametrize("k", [(1,), (3,), (2, 2), (1, 3), (2, 1, 1),
                                   (3, 2)], ids=lambda k: "-".join(map(str, k)))
    def test_matches_polynomial_expansion(self, k):
        p = Partition(k)
        A = haar_uk_sample(p, substream(0, "rexp", repr(k)))
        for kappa in enumerate_kappas(p, 6):
            R = unitary_action_matrix(A, p, kappa)
            assert np.max(np.abs(R - _expanded_action(A, p, kappa))) < 1e-13
            assert np.max(np.abs(R.conj().T @ R - np.eye(len(R)))) < 1e-12

    @pytest.mark.parametrize("kappa", [(0, 3), (2, 1), (3, 2)])
    def test_permutation_maps_basis_vectors(self, kappa):
        # A swaps z_3 and z_5 and fixes the rest, so f(A^-1 z) takes z^alpha
        # to z^sigma(alpha) with the two exponents exchanged
        p = Partition((2, 3))
        A = np.eye(5, dtype=complex)[[0, 1, 4, 3, 2]]
        basis = enumerate_basis(p, kappa)
        R = unitary_action_matrix(A, p, kappa)
        want = np.zeros(R.shape)
        for c, al in enumerate(basis):
            want[basis.index((al[0], al[1], al[4], al[3], al[2])), c] = 1.0
        assert np.max(np.abs(R - want)) < 1e-14

    def test_torus_stage_stays_within_the_chunk_budget(self, monkeypatch):
        # 7 nodes per angle on (3,) at kappa (6,): 343 torus nodes, 28
        # monomials, 17 nodes per chunk at a budget of 2000
        p = Partition((3,))
        A = haar_uk_sample(p, substream(0, "rchunk"))
        ref = unitary_action_matrix(A, p, (6,))
        rows, tables = toeplitz._monomial_rows, []

        def recording(Z, alphas):
            out = rows(Z, alphas)
            tables.append(out.size)
            return out

        monkeypatch.setattr(toeplitz, "_monomial_rows", recording)
        monkeypatch.setattr(toeplitz, "_CHUNK_BUDGET", 2_000)
        got = unitary_action_matrix(A, p, (6,))
        assert len(tables) > 2 and max(tables) <= 2_000
        assert np.max(np.abs(got - ref)) < 1e-14


def _expanded_action(A, p, kappa):
    """R(A) by expanding (A^-1 z)^alpha one linear factor at a time."""
    mats = []
    for sl, kj, cj in zip(p.block_slices(), p.k, kappa):
        basis = list(compositions(cj, kj))
        index = {b: i for i, b in enumerate(basis)}
        B = A[sl, sl].conj().T
        sq = {b: math.sqrt(math.prod(map(math.factorial, b))) for b in basis}
        Rj = np.zeros((len(basis),) * 2, dtype=complex)
        for ai, al in enumerate(basis):
            poly = {(0,) * kj: 1.0 + 0.0j}
            for coord in range(kj):
                for _ in range(al[coord]):
                    out = {}
                    for mi, c in poly.items():
                        for l in range(kj):
                            key = mi[:l] + (mi[l] + 1,) + mi[l + 1:]
                            out[key] = out.get(key, 0.0) + c * B[coord, l]
                    poly = out
            for be, c in poly.items():
                Rj[index[be], ai] = c * sq[be] / sq[al]
        mats.append(Rj)
    return functools.reduce(np.kron, mats)


class TestAveraging:
    def test_scalar_blocks_fixed(self):
        T = assemble_diagonal(lambda kappa: 1.0 + 0.5 * sum(kappa), P22, 2, 0.0)
        avg = average_operator(T)
        for kappa in T.kappas():
            assert np.max(np.abs(avg.blocks[kappa] - T.blocks[kappa])) < 1e-12

    def test_trace_preserved(self):
        a, _ = noncommuting_pair(P22, 1)
        T = toeplitz_operator(a, 2, 0.0, FAST)
        avg = average_operator(T)
        for kappa in T.kappas():
            tr0 = np.trace(T.blocks[kappa])
            tr1 = np.trace(avg.blocks[kappa])
            assert abs(tr1 - tr0) <= 1e-12 * (1 + abs(tr0))

    @pytest.mark.parametrize("path", ["f-form", "oracle"])
    def test_non_scalar_operator_averages_to_trace_over_dim(self, path):
        a = (noncommuting_pair(P22, 1)[0] if path == "f-form"
             else block_hermitian(P22, H22))
        T = toeplitz_operator(a, 2, 0.0, FAST)
        assert T.provenance == path
        avg = average_operator(T)
        assert avg.provenance == "averaged"
        assert avg.block_errors == T.block_errors
        assert "averaging_samples" not in avg.meta
        spread = 0.0
        for kappa, B in T.blocks.items():
            target = np.trace(B) / len(B) * np.eye(len(B))
            spread = max(spread, np.max(np.abs(B - target)))
            assert np.max(np.abs(avg.blocks[kappa] - target)) <= 1e-14
        assert spread > 1e-2  # T itself is far from scalar

    def test_no_unitary_is_drawn(self, monkeypatch):
        a, _ = noncommuting_pair(P22, 1)
        T = toeplitz_operator(a, 2, 0.0, FAST)
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        spy(quad, "haar_uk_sample")
        spy(toeplitz, "unitary_action_matrix")
        average_operator(T)
        assert calls == []


class TestDispatchAndSerialization:
    def test_identity_symbol_all_paths(self):
        one = constant_symbol(P12)
        T = toeplitz_operator(one, 3, 0.0, FAST)
        assert T.provenance == "diagonal-gamma"
        for kappa in T.kappas():
            d = dim_P(P12, kappa)
            assert np.max(np.abs(T.blocks[kappa] - np.eye(d))) < 1e-10

    def test_dispatch_provenances(self):
        spec = QuadratureSpec(ball_samples=5000, radial_nodes=8,
                              sphere_nodes=8, torus_nodes=6)
        assert toeplitz_operator(radial_poly(P22, [(1.0, (1, 0))]), 1,
                                 0.0, spec).provenance == "diagonal-gamma"
        assert toeplitz_operator(phi_factor(P22, 1, (1, 0), (0, 1)), 1,
                                 0.0, spec).provenance == "f-form"
        assert toeplitz_operator(pseudo_factor(P22, 1, (1, 1), (1, -1)),
                                 1, 0.0, spec).provenance == "g-form"
        T = toeplitz_operator(xi_monomial(P22, 1, (1, 0), (0, 0)), 1,
                              0.0, spec)
        assert T.provenance == "oracle"
        assert T.meta["warnings"]

    def test_meta_records_effort(self, tmp_path):
        spec = QuadratureSpec(ball_samples=5000, radial_nodes=8,
                              sphere_nodes=8, torus_nodes=6)
        ops = {
            "diagonal-gamma": radial_poly(P22, [(1.0, (1, 0))]),
            "f-form": phi_factor(P22, 1, (1, 0), (0, 1)),
            "g-form": pseudo_factor(P22, 2, (1, 1), (1, -1)),
            "oracle": xi_monomial(P22, 1, (1, 0), (0, 0)),
        }
        # the kernel keeps one torus angle's worth of the full sphere grid
        sphere = len(complex_sphere_rule(2, spec)[0]) // spec.torus_nodes
        expected = {
            "diagonal-gamma": {"radial_nodes": 64},
            "f-form": {"radial_nodes": 64, "sphere_nodes": sphere},
            "g-form": {"radial_nodes": 64, "sphere_nodes": sphere},
            "oracle": {"ball_samples": 5000},
        }
        for path, a in ops.items():
            T = toeplitz_operator(a, 1, 0.0, spec)
            assert T.provenance == path
            assert T.meta["effort"] == expected[path]
            # every path writes the same keys, warnings included
            assert set(T.meta) == {"symbol", "seed", "warnings", "effort"}
            assert operator_from_json(operator_to_json(T)).meta == T.meta
            save_operator(T, tmp_path / "op.json")
            assert load_operator(tmp_path / "op.json").meta == T.meta

    def test_quasi_radial_oracle_agreement(self):
        a = radial_poly(P22, [(1.0, (1, 0)), (-0.25, (0, 1))])
        T = toeplitz_operator(a, 2, 1.5, FAST)
        rng = substream(0, "qr-agree")
        for kappa in [(1, 0), (1, 1)]:
            [(G, SE)] = toeplitz_block_oracle([a], kappa, 1.5, FAST, rng)
            assert sigma_close(G, SE, T.blocks[kappa])

    def test_json_round_trip(self, tmp_path):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        T = toeplitz_operator(a, 2, 0.5, FAST)
        doc = operator_to_json(T)
        T2 = operator_from_json(doc)
        assert T2.partition == T.partition
        assert T2.lam == T.lam and T2.degree == T.degree
        for kappa in T.kappas():
            assert np.array_equal(T2.blocks[kappa], T.blocks[kappa])
        path = tmp_path / "op.json"
        save_operator(T, path)
        T3 = load_operator(path)
        for kappa in T.kappas():
            assert np.array_equal(T3.blocks[kappa], T.blocks[kappa])

    @pytest.mark.parametrize("change, pattern", [
        (lambda b: [{**b, "kappa": [1]}], r"kappa=\[1\]"),
        (lambda b: [{**b, "kappa": [1, 0, 0]}], r"kappa=\[1, 0, 0\]"),
        (lambda b: [{**b, "kappa": [2, -1]}], r"kappa=\[2, -1\]"),
        (lambda b: [{**b, "kappa": [2, 1]}], r"kappa=\[2, 1\] is"),
        (lambda b: [b, b], r"kappa=\[1, 0\] is repeated"),
        (lambda b: [{**b, "matrix": [[_PAIR] * 3]}], r"kappa=\[1, 0\]: exp"),
        (lambda b: [{**b, "matrix": [[_PAIR] * 3] * 3, "dim": 3}],
         r"kappa=\[1, 0\]: exp"),
        (lambda b: [{**b, "dim": 3}], r"kappa=\[1, 0\]: exp"),
        (lambda b: [{**b, "stderr": [[0.1] * 2]}], r"kappa=\[1, 0\]: exp"),
    ], ids=["short-kappa", "long-kappa", "negative-kappa", "over-degree",
            "repeated", "1x3-matrix", "3x3-matrix", "dim-differs",
            "stderr-shape"])
    def test_malformed_blocks_are_rejected(self, change, pattern):
        T = toeplitz_operator(block_hermitian(P22, H22), 1, 0.0,
                              QuadratureSpec(ball_samples=2000))
        doc = operator_to_json(T)
        [block] = [b for b in doc["blocks"] if b["kappa"] == [1, 0]]
        assert "stderr" in block
        with pytest.raises(ValueError, match=pattern):
            operator_from_json({**doc, "blocks": change(block)})


    @pytest.mark.parametrize("field, value, pattern", [
        ("kappa", [1.7, 0], "kappa entry must be an integer, got 1.7"),
        ("kappa", [True, 0], "kappa entry must be an integer, got True"),
        ("degree", 2.9, "degree must be an integer, got 2.9"),
        ("degree", True, "degree must be an integer, got True"),
        ("partition", [2.4, 2], "partition entry must be an integer"),
        ("partition", [2, True], "partition entry must be an integer"),
    ], ids=["kappa-float", "kappa-bool", "degree-float", "degree-bool",
            "partition-float", "partition-bool"])
    def test_non_integer_fields_are_rejected(self, field, value, pattern):
        # int() truncated these: kappa [1.7] loaded as (1,), degree 2.9 as 2
        T = toeplitz_operator(block_hermitian(P22, H22), 1, 0.0,
                              QuadratureSpec(ball_samples=2000))
        doc = operator_to_json(T)
        if field == "kappa":
            [block] = [b for b in doc["blocks"] if b["kappa"] == [1, 0]]
            doc["blocks"] = [{**block, "kappa": value}]
        else:
            doc[field] = value
        with pytest.raises(ValueError, match=pattern):
            operator_from_json(doc)


class TestSharedOracleDraws:
    """One ball sample set per oracle operator, shared by all its slices."""

    def test_operator_draws_ball_samples_once(self, monkeypatch):
        drawn = []
        sample_ball = toeplitz.sample_ball

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        spec = QuadratureSpec(ball_samples=30_000)
        a = block_hermitian(P22, H22)
        T = toeplitz_operator(a, 3, 0.0, spec)
        assert len(T.kappas()) == 10
        assert sum(drawn) == spec.ball_samples

    def test_degree_zero_matches_block_oracle(self):
        # the operator and the single-block oracle run the same loop: on the
        # same stream their one block agrees bit for bit, and without an
        # explicit stream the operator draws from the lambda's shared one
        a = block_hermitian(P22, H22)
        spec = QuadratureSpec(ball_samples=20_000, seed=5)
        for lam, rng, stream in [
                (0.0, substream(9, "explicit"), substream(9, "explicit")),
                (1.5, None, substream(5, "oracle", repr(1.5)))]:
            T = toeplitz_operator(a, 0, lam, spec, rng=rng)
            assert T.provenance == "oracle"
            [(G, SE)] = toeplitz_block_oracle([a], (0, 0), lam, spec,
                                              stream)
            assert np.array_equal(T.blocks[(0, 0)], G)
            assert np.array_equal(T.block_stderr[(0, 0)], SE)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_blocks_match_per_slice_oracle(self, lam):
        a = block_hermitian(P22, H22, name="herm")
        T = toeplitz_operator(a, 2, lam, FAST)
        for kappa in T.kappas():
            [(G, SE)] = toeplitz_block_oracle(
                [a], kappa, lam, FAST, substream(3, "per-slice", repr(kappa)))
            band = SIGMA_BAND * np.maximum(
                np.hypot(SE, T.block_stderr[kappa]), 1e-300)
            assert np.all(np.abs(G - T.blocks[kappa]) <= band), kappa


class TestOracleOperators:
    """oracle_operators: the oracle operators of one lambda from one draw."""

    @staticmethod
    def _counting(monkeypatch):
        drawn = []
        sample_ball = toeplitz.sample_ball

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        return drawn

    def test_each_operator_is_the_one_built_alone(self, monkeypatch):
        drawn = self._counting(monkeypatch)
        spec = QuadratureSpec(ball_samples=30_000, seed=4)
        symbols = [block_hermitian(P22, H22, name="herm"),
                   xi_monomial(P22, 1, (1, 0), (0, 0)),
                   zpoly(P22, [(1.0, (1, 0, 0, 0), (0, 1, 0, 0))],
                         TM_INVARIANT, name="ztm")]
        ops = toeplitz.oracle_operators(symbols, 3, 1.5, spec)
        assert sum(drawn) == spec.ball_samples
        for a, T in zip(symbols, ops, strict=True):
            alone = toeplitz_operator(a, 3, 1.5, spec)
            assert T.provenance == alone.provenance == "oracle"
            assert T.meta == alone.meta and T.meta["symbol"] == a.name
            assert T.kappas() == alone.kappas() and len(T.kappas()) == 10
            for kappa in T.kappas():
                assert np.array_equal(T.blocks[kappa], alone.blocks[kappa])
                assert np.array_equal(T.block_stderr[kappa],
                                      alone.block_stderr[kappa])
                assert T.block_errors[kappa] == alone.block_errors[kappa]

    def test_empty_list_draws_nothing(self, monkeypatch):
        drawn = self._counting(monkeypatch)
        assert toeplitz.oracle_operators([], 3, 0.0, FAST) == []
        assert drawn == []

    def test_mixed_partitions_raise_before_drawing(self, monkeypatch):
        drawn = self._counting(monkeypatch)
        with pytest.raises(ValueError, match="partition"):
            toeplitz.oracle_operators(
                [block_hermitian(P22, H22), constant_symbol(P12)], 2, 0.0,
                FAST)
        assert drawn == []

    def test_warnings_are_per_symbol(self):
        # xi_monomial is not declared block-torus invariant; herm is
        ops = toeplitz.oracle_operators(
            [xi_monomial(P22, 1, (1, 0), (0, 0)), block_hermitian(P22, H22)],
            1, 0.0, QuadratureSpec(ball_samples=2000))
        assert [len(T.meta["warnings"]) for T in ops] == [1, 0]

    def test_memory_is_bounded_whatever_the_sample_count(self):
        # the chunk holds about _ORACLE_CHUNK numbers whatever ball_samples
        # is, so the peak stays cache-sized and flat in the sample count
        symbols = [block_hermitian(P22, H22),
                   xi_monomial(P22, 1, (1, 0), (0, 0))]
        peaks = []
        for N in (20_000, 200_000):
            tracemalloc.start()
            try:
                toeplitz.oracle_operators(symbols, 3, 0.0,
                                          QuadratureSpec(ball_samples=N))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 6 * 2**20, peaks
        assert peaks[1] <= 1.5 * peaks[0], peaks


def _single_symbol_oracle(a, alphas, sizes, lam, spec, rng):
    """``oracle_matrix`` as it was for one symbol, before symbols shared
    draws: the symbol is evaluated on each chunk after it is drawn, and the
    chunk size depends on the alphas only."""
    p = a.partition
    ends = np.cumsum(sizes, dtype=int)
    cuts = [slice(e - d, e) for d, e in zip(sizes, ends)]
    N = spec.ball_samples
    chunk = max(1024, min(N, toeplitz._ORACLE_CHUNK // (len(alphas) + p.n)))
    scale = np.array([monomial_norm_sq(p.n, lam, al) for al in alphas]) ** -0.5
    S1 = [np.zeros((c.stop - c.start,) * 2, dtype=complex) for c in cuts]
    S2 = [np.zeros(s.shape) for s in S1]
    done = 0
    while done < N:
        c = min(chunk, N - done)
        Z = toeplitz.sample_ball(p.n, lam, c, rng)
        av = a(Z)
        E = toeplitz._monomial_rows(Z, alphas)
        E *= scale[:, None]
        aE = av * E
        np.conjugate(aE, out=aE)
        P = np.abs(E) ** 2
        aP = np.abs(av) ** 2 * P
        for cut, s1, s2 in zip(cuts, S1, S2):
            s1 += E[cut] @ aE[cut].T
            s2 += P[cut] @ aP[cut].T
        done += c
    out = []
    for s1, s2 in zip(S1, S2):
        mean = np.conj(s1) / N
        var = np.maximum(s2 / N - np.abs(mean) ** 2, 0.0)
        out.append((mean, np.sqrt(var / N)))
    return out


class TestOracleSymbolList:
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_one_symbol_is_the_single_symbol_loop_bit_for_bit(self, lam):
        # several chunks: 35 monomials up to degree 3 on (2,2)
        bases = [enumerate_basis(P22, k).alphas
                 for k in enumerate_kappas(P22, 3)]
        alphas = [al for basis in bases for al in basis]
        sizes = [len(b) for b in bases]
        spec = QuadratureSpec(ball_samples=30_000)
        for a in (block_hermitian(P22, H22), xi_monomial(P22, 1, (1, 0),
                                                         (0, 0))):
            [got] = toeplitz.oracle_matrix([a], alphas, sizes, lam, spec,
                                           substream(6, "one-symbol"))
            want = _single_symbol_oracle(a, alphas, sizes, lam, spec,
                                         substream(6, "one-symbol"))
            for (G, SE), (G0, SE0) in zip(got, want, strict=True):
                assert np.array_equal(G, G0) and np.array_equal(SE, SE0)

    def test_symbols_share_the_draws(self, monkeypatch):
        drawn = []
        sample_ball = toeplitz.sample_ball

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        spec = QuadratureSpec(ball_samples=5000)
        symbols = [block_hermitian(P22, H22), constant_symbol(P22),
                   xi_monomial(P22, 1, (1, 0), (0, 0))]
        blocks = toeplitz_block_oracle(symbols, (1, 1), 0.0, spec,
                                       substream(6, "shared"))
        assert len(blocks) == 3 and sum(drawn) == spec.ball_samples
        G, SE = blocks[1]  # the constant 1 gives the identity
        assert sigma_close(G, SE, np.eye(4))


def _direct_rows(Z, alphas):
    """prod_i z_i^alpha_i, one power per coordinate."""
    return np.array([np.prod(Z ** np.array(al), axis=1) for al in alphas]
                    ).reshape(len(alphas), Z.shape[0])


class TestMonomialRows:
    Z = toeplitz.sample_ball(3, 0.5, 500, substream(0, "rows"))

    @pytest.mark.parametrize("alphas", [
        [(2, 0, 1), (0, 0, 0), (1, 1, 1), (0, 3, 0), (1, 0, 0)],
        [(1, 2, 0), (0, 0, 0), (1, 2, 0), (0, 1, 0), (0, 1, 0)],
        [al + (0,) for al in compositions(8, 2)],
        [],
    ], ids=["unsorted", "duplicates", "not-downward-closed", "empty"])
    def test_matches_direct_product(self, alphas):
        X = toeplitz._monomial_rows(self.Z, alphas)
        assert X.shape == (len(alphas), len(self.Z))
        assert np.max(np.abs(X - _direct_rows(self.Z, alphas)),
                      initial=0.0) <= 1e-14


class TestOracleNormalization:
    """oracle_matrix against the per-sample orthonormal-row estimator."""

    @staticmethod
    def _reference(a, Z, alphas, lam):
        E = toeplitz.orthonormal_rows(Z, alphas, a.partition.n, lam)
        av = a(Z)
        N = len(Z)
        mean = np.conj(E) @ (av * E).T / N
        m2 = np.abs(E) ** 2 @ (np.abs(av) ** 2 * np.abs(E) ** 2).T / N
        return mean, np.sqrt(np.maximum(m2 - np.abs(mean) ** 2, 0.0) / N)

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def _draws(self, monkeypatch):
        drawn = []
        sample_ball = toeplitz.sample_ball

        def recording(n, lam, size, rng):
            drawn.append(sample_ball(n, lam, size, rng))
            return drawn[-1]

        monkeypatch.setattr(toeplitz, "sample_ball", recording)
        return drawn

    # more samples than one chunk holds, so the sums run over several
    SPEC = QuadratureSpec(ball_samples=30_000)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_sizes_path(self, monkeypatch, lam):
        drawn = self._draws(monkeypatch)
        a = block_hermitian(P22, H22)
        bases = [enumerate_basis(P22, k).alphas for k in enumerate_kappas(P22, 3)]
        alphas = [al for basis in bases for al in basis]
        [got] = toeplitz.oracle_matrix([a], alphas, [len(b) for b in bases],
                                       lam, self.SPEC, substream(1, "norm"))
        assert len(drawn) > 1
        Z = np.concatenate(drawn)
        for basis, (G, SE) in zip(bases, got):
            mean, se = self._reference(a, Z, basis, lam)
            self._close(G, mean)
            self._close(SE, se)

    def test_single_slice(self, monkeypatch):
        drawn = self._draws(monkeypatch)
        a = xi_monomial(P12, 2, (1, 0), (0, 1))
        alphas = enumerate_basis(P12, (1, 2)).alphas
        [[(G, SE)]] = toeplitz.oracle_matrix([a], alphas, [len(alphas)], 0.5,
                                             self.SPEC, substream(2, "norm"))
        mean, se = self._reference(a, np.concatenate(drawn), alphas, 0.5)
        self._close(G, mean)
        self._close(SE, se)

    def test_large_lambda_high_degree(self, monkeypatch):
        # at lambda 1e6 |z|^2 is about 1e-6, so the raw rows z^alpha of degree
        # 70 are about 1e-210 and products of two or four of them underflow
        drawn = self._draws(monkeypatch)
        p = Partition((1,))
        a = constant_symbol(p, 2.0)
        alphas = [(1,), (30,), (70,)]
        [got] = toeplitz.oracle_matrix([a], alphas, [1, 1, 1], 1e6,
                                       QuadratureSpec(ball_samples=4000),
                                       substream(4, "norm"))
        Z = np.concatenate(drawn)
        for al, (G, SE) in zip(alphas, got):
            mean, se = self._reference(a, Z, [al], 1e6)
            self._close(G, mean)
            self._close(SE, se)
            assert G[0, 0].real > 0 and SE[0, 0] > 0


def test_gamma_real_profile_has_negligible_imaginary_part():
    p = Partition((2, 2))
    prof = lambda r: np.atleast_2d(r)[:, 0] ** 2 + 0.5
    for kappa in [(0, 0), (2, 1), (3, 3)]:
        g = gamma_quasi_radial(prof, kappa, 1.5, p, FAST)
        assert abs(g.imag) <= 1e-12


def test_real_symbol_deterministic_blocks_hermitian():
    a, b = noncommuting_pair(P22, 1)  # both real valued
    for sym in (a, b):
        T = toeplitz_operator(sym, 3, 0.5, FAST)
        for kappa in T.kappas():
            B = T.blocks[kappa]
            assert np.max(np.abs(B - B.conj().T)) < 1e-12
