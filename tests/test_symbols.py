"""Symbol model: constructors, invariance validation, actions, averaging."""

import dataclasses

import numpy as np
import pytest

from toepblocks import (
    GENERAL,
    QUASI_RADIAL,
    RADIAL,
    SEPARATELY_RADIAL,
    TM_INVARIANT,
    Partition,
    QuadratureSpec,
    act,
    average_operator,
    block_hermitian,
    check_invariance,
    constant_symbol,
    cross_block_control,
    from_evaluator,
    from_f,
    from_g,
    from_radial_profile,
    gamma_quasi_radial,
    haar_uk_sample,
    kj_quasi_homogeneous,
    multiply,
    noncommuting_pair,
    phi_factor,
    pseudo_factor,
    quasi_radialize,
    radial_poly,
    sample_ball,
    substream,
    toeplitz_operator,
    xi_monomial,
    zpoly,
)
from toepblocks.quad import block_radii

P22 = Partition((2, 2))
P12 = Partition((1, 2))


def points(p, n=400, seed=0):
    return sample_ball(p.n, 0.0, n, substream(seed, "test-points"))


class TestInvarianceClass:
    def test_lattice_implications(self):
        kj1, kj2 = kj_quasi_homogeneous(1), kj_quasi_homogeneous(2)
        assert RADIAL.implies(QUASI_RADIAL)
        assert RADIAL.implies(SEPARATELY_RADIAL)
        assert QUASI_RADIAL.implies(kj1) and QUASI_RADIAL.implies(kj2)
        assert kj1.implies(TM_INVARIANT)
        assert SEPARATELY_RADIAL.implies(TM_INVARIANT)
        assert not kj1.implies(kj2)
        assert not TM_INVARIANT.implies(kj1)
        assert not SEPARATELY_RADIAL.implies(QUASI_RADIAL)
        # T^n is a subgroup of U(k)
        assert QUASI_RADIAL.implies(SEPARATELY_RADIAL)
        assert QUASI_RADIAL.intersect(SEPARATELY_RADIAL) == SEPARATELY_RADIAL
        assert all(c.implies(GENERAL) for c in
                   (RADIAL, QUASI_RADIAL, kj1, TM_INVARIANT, GENERAL))

    def test_intersection(self):
        kj1, kj2 = kj_quasi_homogeneous(1), kj_quasi_homogeneous(2)
        assert kj1.intersect(kj2) == TM_INVARIANT
        assert QUASI_RADIAL.intersect(kj1) == kj1
        assert GENERAL.intersect(kj1) == GENERAL
        assert RADIAL.intersect(kj2) == kj2


class TestConstructors:
    def test_constant(self):
        a = constant_symbol(P22, 1.0)
        Z = points(P22)
        assert np.allclose(a(Z), 1.0)
        assert a.klass == RADIAL

    def test_radial_profile_values(self):
        a = from_radial_profile(P12, lambda r: np.atleast_2d(r)[:, 1] ** 2)
        Z = points(P12)
        want = np.abs(Z[:, 1]) ** 2 + np.abs(Z[:, 2]) ** 2
        assert np.allclose(a(Z), want)
        assert a.klass == QUASI_RADIAL

    def test_radial_profile_unbounded_rejected(self):
        with pytest.raises(ValueError):
            from_radial_profile(P12, lambda r: 1.0 / (np.atleast_2d(r)[:, 0]))

    def test_from_f_phase_invariance_enforced(self):
        with pytest.raises(ValueError, match="phase invariant"):
            from_f(P22, 1, lambda r, xi: np.atleast_2d(xi)[:, 0])

    def test_from_g_phase_invariance_enforced(self):
        with pytest.raises(ValueError, match="phase invariant"):
            from_g(P22, 1, lambda r, s, t: np.atleast_2d(t)[:, 0])

    @pytest.mark.parametrize("make", [
        lambda bound: from_f(P22, 1, lambda r, xi: np.abs(
            np.atleast_2d(xi)[:, 0]) ** 2 + 0j, bound=bound),
        lambda bound: from_g(P22, 1, lambda r, s, t: np.atleast_2d(
            s)[:, 0] ** 2 + 0j, bound=bound),
        lambda bound: from_evaluator(P22, lambda Z: np.abs(Z[:, 0]) + 0j,
                                     bound=bound),
        lambda bound: from_radial_profile(
            P22, lambda r: np.atleast_2d(r)[:, 0] + 0j, bound=bound),
    ], ids=["f", "g", "evaluator", "radial-profile"])
    def test_declared_bound_is_checked(self, make):
        # from_f and from_g accepted any bound; every constructor now checks
        # it on its validation samples and keeps a bound that holds
        with pytest.raises(ValueError, match="exceeds its declared bound"):
            make(1e-3)
        assert make(1.0).bound == 1.0

    def test_from_f_reduces_to_quasi_radial_when_block_is_small(self):
        a = from_f(P12, 1, lambda r, xi: np.atleast_2d(r)[:, 0].astype(complex))
        assert a.klass == QUASI_RADIAL
        assert a.radial_profile is not None

    def test_f_and_g_agree_through_coordinates(self):
        # xi1 conj(xi2) == s1 s2 t1 conj(t2)
        af = phi_factor(P22, 1, (1, 0), (0, 1))
        ag = pseudo_factor(P22, 1, (1, 1), (1, -1))
        Z = points(P22)
        assert np.max(np.abs(af(Z) - ag(Z))) < 1e-12

    def test_phi_requires_balanced_exponents(self):
        with pytest.raises(ValueError):
            phi_factor(P22, 1, (1, 0), (0, 0))

    def test_pseudo_requires_zero_sum_torus_exponents(self):
        with pytest.raises(ValueError):
            pseudo_factor(P22, 1, (1, 1), (1, 0))

    @pytest.mark.parametrize("make", [
        lambda e: phi_factor(P22, 1, (e, 0), (0, 1)),
        lambda e: pseudo_factor(P22, 1, (e, 1), (1, -1)),
        lambda e: xi_monomial(P22, 1, (e, 0), (0, 0)),
        lambda e: zpoly(P22, [(1.0, (e, 0, 0, 0), (0, 0, 0, 0))]),
    ], ids=["phi", "pseudo", "xi", "zpoly"])
    @pytest.mark.parametrize("e", [1.5, True], ids=["float", "bool"])
    def test_exponents_must_be_integers(self, make, e):
        # int() would read 1.5 as 1, and True is 1
        with pytest.raises(ValueError, match="exponent must be an integer"):
            make(e)

    @pytest.mark.parametrize("make", [
        lambda radial: phi_factor(P22, 1, (1, 0), (0, 1), radial),
        lambda radial: pseudo_factor(P22, 1, (1, 1), (1, -1), radial),
    ], ids=["phi", "pseudo"])
    @pytest.mark.parametrize("powers, match", [
        ((-1, 0), "radial powers must be nonnegative integers"),
        ((0.5, 0), "radial powers must be nonnegative integers"),
        ((1,), "power vector length must equal m = 2"),
        ((1, 0, 0), "power vector length must equal m = 2"),
    ], ids=["negative", "fractional", "short", "long"])
    def test_radial_powers_validated(self, make, powers, match):
        # a negative power is unbounded at r_j = 0, a fractional one was
        # truncated by radial_poly, and a short vector would broadcast over
        # the block radii
        with pytest.raises(ValueError, match=match):
            make([(1.0, (0, 0)), (0.5, powers)])

    def test_block_hermitian_real_valued(self):
        H = np.zeros((4, 4), dtype=complex)
        H[:2, :2] = [[1.0, 0.3 + 0.1j], [0.3 - 0.1j, -0.5]]
        H[2:, 2:] = np.eye(2)
        a = block_hermitian(P22, H)
        Z = points(P22)
        assert np.max(np.abs(a(Z).imag)) < 1e-12
        assert a.klass == TM_INVARIANT

    def test_block_hermitian_rejects_off_block(self):
        H = np.eye(4, dtype=complex)
        H[0, 3] = H[3, 0] = 0.1
        with pytest.raises(ValueError, match="block diagonal"):
            block_hermitian(P22, H)

    def test_zpoly_matches_direct_evaluation(self):
        a = zpoly(P22, [(2.0, (1, 0, 0, 0), (0, 1, 0, 0))], TM_INVARIANT)
        Z = points(P22)
        assert np.allclose(a(Z), 2.0 * Z[:, 0] * np.conj(Z[:, 1]))


class TestCheckInvariance:
    def test_constant_invariant_everywhere(self):
        a = constant_symbol(P22)
        for grp in ("tm", "tn", "uk", "un"):
            assert check_invariance(a, grp).passed

    def test_phi_invariances(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        assert check_invariance(a, "tm").passed
        assert check_invariance(a, "ukjt", j=1).passed
        assert not check_invariance(a, "uk").passed

    def test_unbalanced_direction_fails_block_torus(self):
        a = xi_monomial(P22, 1, (1, 0), (0, 0))
        rep = check_invariance(a, "tm")
        assert not rep.passed
        assert rep.max_deviation > 0.1

    def test_quasi_radial_passes_uk(self):
        a = radial_poly(P22, [(1.0, (1, 0)), (0.5, (0, 1))])
        assert check_invariance(a, "uk").passed

    def test_class_lattice_in_sampling(self):
        # anything passing the block unitary group passes its subgroups too
        a = radial_poly(P22, [(1.0, (1, 1))])
        for grp, j in (("uk", None), ("ukjt", 1), ("ukjt", 2), ("tm", None),
                       ("tn", None)):
            assert check_invariance(a, grp, j=j).passed


class TestAct:
    def test_identity_rotation(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        b = act(np.eye(4, dtype=complex), a)
        Z = points(P22)
        assert np.allclose(a(Z), b(Z))

    def test_radial_unchanged_under_any_unitary(self):
        from toepblocks import haar_unitary
        a = constant_symbol(P22, 0.7)
        A = haar_unitary(4, substream(0, "act-any"))
        b = act(A, a)
        Z = points(P22)
        assert np.allclose(a(Z), b(Z))
        assert b.klass == RADIAL

    def test_isometry_of_sup_norm_on_samples(self):
        a = phi_factor(P22, 2, (2, 0), (1, 1))
        A = haar_uk_sample(P22, substream(0, "act-iso"))
        b = act(A, a)
        Z = points(P22, 2000)
        ZA = Z @ A.T  # same cloud rotated, where b attains a's values
        assert np.max(np.abs(b(ZA))) == pytest.approx(
            np.max(np.abs(a(Z))), rel=1e-12)

    def test_composition(self):
        a = block_hermitian(P22, np.diag([1.0, -1.0, 0.5, 0.25]).astype(complex))
        A = haar_uk_sample(P22, substream(1, "act-comp"))
        B = haar_uk_sample(P22, substream(2, "act-comp"))
        Z = points(P22)
        left = act(A, act(B, a))(Z)
        right = act(A @ B, a)(Z)
        assert np.max(np.abs(left - right)) < 1e-12

    def test_class_preservation_under_block_diagonal(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        A = haar_uk_sample(P22, substream(3, "act-cls"))
        assert act(A, a).klass == kj_quasi_homogeneous(1)
        qr = radial_poly(P22, [(1.0, (1, 0))])
        assert act(A, qr).klass == QUASI_RADIAL

    def test_general_unitary_downgrades_class(self):
        from toepblocks import haar_unitary
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        A = haar_unitary(4, substream(4, "act-down"))
        assert act(A, a).klass == GENERAL

    def test_rejects_non_unitary(self):
        a = constant_symbol(P22)
        with pytest.raises(ValueError, match="unitary"):
            act(2 * np.eye(4), a)


class TestQuasiRadialize:
    SPEC = QuadratureSpec(radial_nodes=10, sphere_nodes=10, torus_nodes=4)

    def test_fixed_point_on_invariant_symbol(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        assert quasi_radialize(a, self.SPEC) is a

    @pytest.mark.parametrize("a", [
        phi_factor(P22, 1, (1, 0), (1, 0), radial_terms=[(1.0, (0, 1))]),
        pseudo_factor(P22, 2, (1, 1), (0, 0), radial_terms=[(2.0, (1, 0))]),
    ], ids=["phi", "pseudo"])
    def test_gamma_equals_the_averaged_operator(self, a):
        # the paper's theorem: T_a averaged over U(k) is T of the averaged
        # symbol; both sides use the same radial and sphere rules
        lam = 0.5
        avg = average_operator(toeplitz_operator(a, 3, lam, self.SPEC))
        ahat = quasi_radialize(a, self.SPEC)
        for kappa, B in avg.blocks.items():
            gamma = gamma_quasi_radial(ahat.radial_profile, kappa, lam, P22,
                                       self.SPEC)
            assert abs(gamma - B[0, 0]) < 1e-12
            assert abs(B[0, 0]) > 1e-3

    def test_off_diagonal_moment_vanishes(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        avg = quasi_radialize(a, self.SPEC)
        assert np.max(np.abs(avg(points(P22, 64)))) < 1e-15

    def test_block_hermitian_profile_closed_form(self):
        # the sphere mean of <H_jj xi, xi> is tr(H_jj) / k_j
        H = np.zeros((4, 4), dtype=complex)
        H[:2, :2] = [[1.0, 0.3 + 0.1j], [0.3 - 0.1j, -0.5]]
        H[2:, 2:] = [[0.2, 0.4j], [-0.4j, 1.0]]
        avg = quasi_radialize(block_hermitian(P22, H), self.SPEC)
        Z = points(P22, 64)
        r2 = np.abs(Z) ** 2
        exact = 0.25 * (r2[:, 0] + r2[:, 1]) + 0.6 * (r2[:, 2] + r2[:, 3])
        assert np.max(np.abs(avg(Z) - exact)) < 1e-14

    def test_draws_nothing(self, monkeypatch):
        from toepblocks import quad, structure, symbols, toeplitz
        calls = []
        for mod in (quad, structure, symbols, toeplitz):
            for name in dir(mod):
                if name.startswith("haar_"):
                    monkeypatch.setattr(mod, name,
                                        lambda *a, **k: calls.append(a))
        for a in (phi_factor(P22, 1, (1, 0), (0, 1)),
                  pseudo_factor(P22, 2, (1, 1), (1, -1)),
                  block_hermitian(P22, np.eye(4, dtype=complex))):
            quasi_radialize(a, self.SPEC)(points(P22, 8))
        assert calls == []

    def test_payload_calls_stay_within_the_chunk_budget(self, monkeypatch):
        # 64 query radii times 24 * 16 = 384 reduced sphere nodes; a g
        # payload takes r, s and t and returns one value: 7 numbers a row
        from toepblocks import toeplitz
        a = pseudo_factor(P22, 1, (2, 0), (0, 0), [(0.5, (0, 1))])
        r = block_radii(points(P22, 64), P22)
        ref = quasi_radialize(a, QuadratureSpec()).radial_profile(r)
        numbers = []

        def recording(*args):
            out = a.g_payload(*args)
            numbers.append(sum(np.size(x) for x in (*args, out)))
            return out

        monkeypatch.setattr(toeplitz, "_CHUNK_BUDGET", 20_000)
        avg = quasi_radialize(dataclasses.replace(a, g_payload=recording),
                              QuadratureSpec())
        got = avg.radial_profile(r)
        assert len(numbers) > 1 and max(numbers) <= 20_000
        assert np.max(np.abs(ref)) > 1e-3
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sup_norm_contraction(self):
        a = block_hermitian(P22, np.diag([1.0, -1, 0.3, 0]).astype(complex))
        avg = quasi_radialize(a, self.SPEC)
        Z = points(P22, 1000)
        assert np.max(np.abs(avg(Z))) <= np.max(np.abs(a(Z))) + 1e-12

    def test_declared_class(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        avg = quasi_radialize(a, self.SPEC)
        assert avg.klass == QUASI_RADIAL
        assert avg.radial_profile is not None
        assert avg.bound == a.bound

    @pytest.mark.parametrize("a", [
        xi_monomial(P22, 1, (1, 0), (0, 0)),
        zpoly(P22, [(1.0, (1, 0, 0, 0), (0, 0, 0, 0))]),
    ], ids=["xi-unbalanced", "zpoly-general"])
    def test_rejects_symbol_without_block_torus_invariance(self, a):
        with pytest.raises(ValueError, match="not declared block-torus"):
            quasi_radialize(a, self.SPEC)


class TestFamilies:
    def test_multiply_class_intersection(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        b = phi_factor(P22, 2, (1, 0), (0, 1))
        ab = multiply(a, b)
        assert ab.klass == TM_INVARIANT
        Z = points(P22)
        assert np.allclose(ab(Z), a(Z) * b(Z))

    def test_noncommuting_pair_classes(self):
        a, b = noncommuting_pair(P22, 1)
        assert a.klass == kj_quasi_homogeneous(1)
        assert b.klass == kj_quasi_homogeneous(1)
        Z = points(P22)
        assert np.max(np.abs(a(Z).imag)) < 1e-12  # swap symbol is real
        assert np.max(np.abs(b(Z).imag)) < 1e-12

    def test_cross_block_control_is_tm_only(self):
        c = cross_block_control(P22)
        assert c.klass == TM_INVARIANT
        assert check_invariance(c, "tm").passed
        assert not check_invariance(c, "ukjt", j=1).passed
        assert not check_invariance(c, "ukjt", j=2).passed
