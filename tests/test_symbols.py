"""Symbol model: constructors, invariance validation, actions, averaging."""

import numpy as np
import pytest

from toepblocks import (
    GENERAL,
    QUASI_RADIAL,
    RADIAL,
    SEPARATELY_RADIAL,
    TM_INVARIANT,
    Partition,
    act,
    block_hermitian,
    check_invariance,
    constant_symbol,
    cross_block_control,
    from_f,
    from_g,
    from_radial_profile,
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
    xi_monomial,
    zpoly,
)

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
    def test_fixed_point_on_invariant_symbol(self):
        a = radial_poly(P22, [(1.0, (1, 0))])
        avg = quasi_radialize(a, 25, substream(0, "qr-fix"))
        Z = points(P22)
        assert np.max(np.abs(avg(Z) - a(Z))) < 1e-12

    def test_off_diagonal_moment_decays(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        Z = points(P22, 64)
        avg = quasi_radialize(a, 4000, substream(0, "qr-decay"))
        vals, se = avg.evaluate_with_stderr(Z)
        assert np.all(np.abs(vals) <= 5 * np.maximum(se, 1e-300))

    def test_sup_norm_contraction(self):
        a = block_hermitian(P22, np.diag([1.0, -1, 0.3, 0]).astype(complex))
        avg = quasi_radialize(a, 50, substream(0, "qr-sup"))
        Z = points(P22, 1000)
        assert np.max(np.abs(avg(Z))) <= np.max(np.abs(a(Z))) + 1e-12

    def test_declared_class(self):
        a = phi_factor(P22, 1, (1, 0), (0, 1))
        avg = quasi_radialize(a, 10, substream(0, "qr-cls"))
        assert avg.klass == QUASI_RADIAL
        assert avg.radial_profile is not None


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
