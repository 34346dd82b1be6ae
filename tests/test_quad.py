"""Quadrature rules, samplers and Haar-random unitaries."""

import math

import numpy as np
import pytest

from toepblocks import (
    Partition,
    QuadratureSpec,
    c_lambda,
    complex_sphere_rule,
    enumerate_kappas,
    enumerate_multiindices,
    haar_uk_sample,
    haar_unitary,
    positive_sphere_rule,
    radial_rule,
    sample_ball,
    sphere_monomial_integral,
    substream,
    torus_rule,
)
from toepblocks.quad import RadialRuleError, _gauss_jacobi
from toepblocks.toeplitz import _monomial_rows, monomial_norm_sq

SPEC = QuadratureSpec()


def radial_mass_closed_form(p, kappa, lam):
    """Beta-product value of the weighted radial integral of 1."""
    lg = math.lgamma(lam + 1) - p.m * math.log(2)
    lg -= math.lgamma(p.n + lam + sum(kappa) + 1)
    for kj, cj in zip(p.k, kappa):
        lg += math.lgamma(kj + cj)
    return math.exp(lg)


def test_radial_rule_unit_disk():
    p = Partition((1,))
    R, w = radial_rule(p, (0,), SPEC, 0.0)
    assert w.sum() == pytest.approx(0.5, abs=1e-14)          # int_0^1 r dr
    assert (w * R[:, 0] ** 2).sum() == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("k", [(1, 2), (2, 2), (1, 1, 2)])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_radial_rule_beta_product(k, lam):
    p = Partition(k)
    for kappa in enumerate_kappas(p, 6):
        R, w = radial_rule(p, kappa, SPEC, lam)
        assert w.sum() == pytest.approx(
            radial_mass_closed_form(p, kappa, lam), abs=1e-12)


def test_radial_rule_polynomial_exactness():
    # smooth even polynomial profile integrates exactly
    p = Partition((1, 2))
    lam = 1.5
    R, w = radial_rule(p, (1, 2), SPEC, lam)
    # r1^2 shifts kappa_1 by 1 in the closed form
    got = (w * R[:, 0] ** 2).sum()
    want = radial_mass_closed_form(p, (2, 2), lam)
    assert got == pytest.approx(want, abs=1e-13)


def test_radial_rule_rejects_bad_lambda():
    with pytest.raises(ValueError):
        radial_rule(Partition((1,)), (0,), SPEC, -1.0)


@pytest.mark.parametrize("lam", [1e6, 1e300])
def test_radial_rule_rejects_overflowing_lambda(lam):
    # the Gauss-Jacobi weights carry 2^lam: NaN at 1e6, an eigensolver
    # failure at 1e300; both must raise instead of returning a NaN rule
    with pytest.raises(RadialRuleError, match="non-finite"):
        radial_rule(Partition((1, 1)), (0, 0), SPEC, lam)


@pytest.mark.parametrize("lam", [1e307, float("inf")])
def test_radial_rule_rejects_lambda_past_lgamma_range(lam):
    # log Gamma overflows past about 2.6e305 and is NaN-producing at inf:
    # still the radial rule's own error, not an OverflowError
    with pytest.raises(RadialRuleError, match="non-finite"):
        radial_rule(Partition((1, 1)), (0, 0), SPEC, lam)


def test_radial_rule_overflow_boundary():
    # at e_x = 1 the rule's [-1, 1] mass 2^(e_1mx + 2) B(2, e_1mx + 1)
    # passes the largest double between e_1mx = 1042.0 and 1042.1
    p = Partition((2,))
    R, w = radial_rule(p, (0,), SPEC, 1042.0)
    assert np.all(np.isfinite(w)) and w.sum() > 0
    with pytest.raises(RadialRuleError, match="lambda"):
        radial_rule(p, (0,), SPEC, 1042.1)


def test_radial_rule_mass_near_overflow_boundary():
    # e_x = 7, e_1mx = 1084 is inside the domain; a rule scaled from [-1, 1]
    # by 2^-1092 underflows there to all-zero weights
    p = Partition((8,))
    R, w = radial_rule(p, (0,), SPEC, 1084.0)
    assert w.sum() == pytest.approx(radial_mass_closed_form(p, (0,), 1084.0),
                                    rel=1e-12)


@pytest.mark.parametrize("nodes", [1, 2, 8, 24, 64])
@pytest.mark.parametrize("p", [0, 1, 3, 12, 30])
@pytest.mark.parametrize("q", [-0.5, 0.0, 2.5, 100.0, 1000.0])
def test_gauss_jacobi_beta_moments(nodes, p, q):
    # exact for x^j, j <= 2 nodes - 1: int_0^1 x^(p+j) (1-x)^q = B(p+j+1, q+1)
    x, w = _gauss_jacobi(nodes, p, q)
    assert np.all((x > 0) & (x < 1)) and np.all(np.diff(x) > 0)
    for j in range(2 * nodes):
        exact = math.exp(math.lgamma(p + j + 1) + math.lgamma(q + 1)
                         - math.lgamma(p + q + j + 2))
        assert np.sum(w * x**j) == pytest.approx(exact, rel=1e-10, abs=0)


def test_gauss_rules_match_scipy():
    special = pytest.importorskip("scipy.special")
    for nodes in (1, 2, 8, 24, 64):
        t, v = special.roots_legendre(nodes)
        x, w = _gauss_jacobi(nodes, 0.0, 0.0)
        np.testing.assert_allclose(x, 0.5 * (t + 1.0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(w, 0.5 * v, rtol=1e-9, atol=0)
        for p in (0, 1, 3, 12, 30):
            for q in (-0.5, 0.0, 2.5, 100.0, 1000.0):
                t, v = special.roots_jacobi(nodes, q, p)
                x, w = _gauss_jacobi(nodes, p, q)
                np.testing.assert_allclose(x, 0.5 * (t + 1.0), rtol=1e-12,
                                           atol=0)
                np.testing.assert_allclose(w, v * 0.5 ** (p + q + 1.0),
                                           rtol=1e-9, atol=0)


def test_torus_rule_characters():
    T, w = torus_rule(2, 8)
    assert w.sum() == pytest.approx((2 * math.pi) ** 2, rel=1e-14)
    assert abs((w * T[:, 0]).sum()) < 1e-12                   # mean-zero character
    assert (w * np.abs(T[:, 0]) ** 2).sum() == pytest.approx(
        (2 * math.pi) ** 2, rel=1e-14)
    # exactness boundary: |gamma| < nodes
    assert abs((w * T[:, 0] ** 7).sum()) < 1e-10
    assert abs((w * T[:, 0] ** 8).sum()) == pytest.approx(
        (2 * math.pi) ** 2, rel=1e-12)  # aliasing at gamma = nodes


def test_positive_sphere_rule():
    S1, w1 = positive_sphere_rule(1, 16)
    assert S1.shape == (1, 1) and w1[0] == 1.0 and S1[0, 0] == 1.0
    S2, w2 = positive_sphere_rule(2, 24)
    assert w2.sum() == pytest.approx(math.pi / 2, abs=1e-13)
    assert np.all(S2 >= 0)
    assert np.linalg.norm(S2, axis=1) == pytest.approx(np.ones(len(S2)), abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_combined_rule_matches_sphere_monomials(k):
    spec = QuadratureSpec(sphere_nodes=20, torus_nodes=10)
    Xi, w = complex_sphere_rule(k, spec)
    idx = enumerate_multiindices(k, 4)
    X = _monomial_rows(Xi, idx)
    G = (X * w) @ np.conj(X.T)
    E = np.array([[sphere_monomial_integral(k, a, b) for b in idx] for a in idx])
    assert np.max(np.abs(G - E)) < 1e-10


def test_sphere_monomial_integral_values():
    assert sphere_monomial_integral(1, (3,), (3,)) == pytest.approx(2 * math.pi)
    assert sphere_monomial_integral(2, (0, 0), (0, 0)) == pytest.approx(
        2 * math.pi**2)
    assert sphere_monomial_integral(2, (1, 0), (0, 1)) == 0.0


def test_c_lambda_normalizes_unit_mass():
    # int over the ball of (1-|z|^2)^lam equals pi^n Gamma(lam+1)Gamma(n+1)/Gamma(n+lam+1) / n!
    # so c_lambda times it is 1; spot check via the radial rule for n=1
    p = Partition((1,))
    for lam in (0.0, 2.5):
        R, w = radial_rule(p, (0,), SPEC, lam)
        mass = 2 * math.pi * w.sum()  # angular factor for n=1
        assert c_lambda(1, lam) * mass == pytest.approx(1.0, abs=1e-12)


def test_haar_unitary_is_unitary():
    rng = substream(0, "haar-unit")
    for d in (1, 2, 5):
        U = haar_unitary(d, rng)
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) < 1e-12


def test_haar_unitary_phase_mean():
    rng = substream(0, "haar-phase")
    n = 10_000
    vals = np.array([haar_unitary(1, rng)[0, 0] for _ in range(n)])
    assert abs(vals.mean()) <= 4 / math.sqrt(n)


def test_haar_first_entry_second_moment():
    rng = substream(0, "haar-moment")
    d, n = 3, 4000
    vals = np.array([abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(n)])
    # Var(|U11|^2) = 2/(d^2 (d+1)^2) * ... use the empirical std for the band
    se = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - 1 / d) <= 5 * se


@pytest.mark.parametrize("k", [2, 3])
def test_haar_batch_rows_are_uniform_on_the_sphere(k):
    # A^{-1} u is uniform on the unit sphere of C^k for every unit u (Rudin,
    # 1980, section 1.4): the conjugated first rows of a batch (u = e_1) and
    # A^{-1} u at a second u match E|v_1|^2 = 1/k and E|v_1|^4 = 2/(k(k+1))
    from toepblocks.quad import haar_unitary_batch

    n = 20_000
    U = haar_unitary_batch(k, n, substream(0, "haar-rows", str(k)))
    u = np.exp(0.5j * np.arange(k)) / math.sqrt(k)
    for V in (np.conj(U[:, 0, :]), np.conj(np.swapaxes(U, -1, -2)) @ u):
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, rtol=0, atol=1e-12)
        x = np.abs(V[:, 0]) ** 2
        for vals, want in ((x, 1 / k), (x ** 2, 2 / (k * (k + 1)))):
            assert abs(vals.mean() - want) <= 5 * vals.std() / math.sqrt(n)


def test_haar_uk_block_structure():
    p = Partition((1, 2))
    rng = substream(0, "haar-uk")
    A = haar_uk_sample(p, rng)
    assert A[0, 1] == 0 and A[0, 2] == 0 and A[1, 0] == 0 and A[2, 0] == 0
    assert np.max(np.abs(A.conj().T @ A - np.eye(3))) < 1e-12
    # k = (1,1): diagonal phases
    q = Partition((1, 1))
    D = haar_uk_sample(q, rng)
    assert D[0, 1] == 0 and D[1, 0] == 0
    assert abs(abs(D[0, 0]) - 1) < 1e-12


def test_haar_uk_commutes_with_center_exactly():
    p = Partition((2, 2))
    rng = substream(0, "haar-center")
    A = haar_uk_sample(p, rng)
    t = np.diag([1j, 1j, -1.0, -1.0])  # per-block scalar phases
    assert np.array_equal(A @ t, t @ A)


def test_ball_sampler_moments():
    rng = substream(0, "ball")
    Z = sample_ball(1, 0.0, 100_000, rng)
    r2 = np.abs(Z[:, 0]) ** 2
    se = r2.std() / math.sqrt(len(r2))
    assert abs(r2.mean() - 0.5) <= 5 * se          # E|z|^2 = 1/2 for n=1, lam=0
    se_z = np.abs(Z[:, 0] - Z[:, 0].mean()).std() / math.sqrt(len(Z))
    assert abs(Z[:, 0].mean()) <= 5 * se_z          # rotational symmetry
    assert np.all(np.linalg.norm(Z, axis=1) < 1.0)


def test_ball_sampler_higher_weight():
    # lam = 2, n = 2: E|z|^2 = n/(n+lam+1) = 2/5
    rng = substream(0, "ball-weighted")
    Z = sample_ball(2, 2.0, 100_000, rng)
    r2 = np.linalg.norm(Z, axis=1) ** 2
    se = r2.std() / math.sqrt(len(r2))
    assert abs(r2.mean() - 0.4) <= 5 * se


# per dimension: |z^alpha|^2 moments (single-coordinate, cross-block and
# high-degree alphas) and one alpha != beta pair whose mixed moment vanishes
_LAW_ALPHAS = {
    1: ([(1,), (3,), (7,)], ((2,), (1,))),
    3: ([(1, 0, 0), (0, 1, 1), (1, 1, 1), (0, 4, 2)], ((1, 0, 0), (0, 1, 0))),
    4: ([(0, 0, 0, 1), (1, 0, 1, 0), (2, 1, 0, 2), (0, 3, 3, 0)],
        ((1, 1, 0, 0), (0, 0, 1, 1))),
}


@pytest.mark.parametrize("lam", [-0.5, 0.0, 2.5])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_ball_sampler_law(n, lam):
    """Moments of sample_ball against the weighted Bergman norms."""
    N = 100_000
    Z = sample_ball(n, lam, N, substream(0, "ball-law", n, repr(lam)))
    assert Z.shape == (N, n) and Z.dtype == complex
    assert np.all(np.linalg.norm(Z, axis=1) <= 1.0)
    alphas, (al, be) = _LAW_ALPHAS[n]
    for alpha in alphas:
        v = np.abs(np.prod(Z ** np.array(alpha), axis=1)) ** 2
        se = v.std() / math.sqrt(N)
        assert abs(v.mean() - monomial_norm_sq(n, lam, alpha)) <= 5 * se, alpha
    mixed = np.prod(Z ** np.array(al), axis=1) * np.conj(
        np.prod(Z ** np.array(be), axis=1))
    se = math.sqrt(np.mean(np.abs(mixed - mixed.mean()) ** 2) / N)
    assert abs(mixed.mean()) <= 5 * se


def test_substreams_reproducible_and_distinct():
    a1 = substream(42, "task", 1).random(4)
    a2 = substream(42, "task", 1).random(4)
    b = substream(42, "task", 2).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=0)
    with pytest.raises(ValueError):
        QuadratureSpec(ball_samples=0)


def test_polar_coords_invariants():
    from toepblocks.quad import block_direction, block_radii, phase_split

    p = Partition((1, 2))
    rng = substream(0, "polar")
    Z = sample_ball(p.n, 0.0, 500, rng)
    r = block_radii(Z, p)
    assert np.all(np.sum(r**2, axis=1) < 1.0)
    for j in range(1, p.m + 1):
        xi = block_direction(Z, p, j)
        s, t = phase_split(xi)
        assert np.linalg.norm(xi, axis=1) == pytest.approx(
            np.ones(len(Z)), abs=1e-12)
        assert np.max(np.abs(t * s - xi)) < 1e-14
        assert np.all(s >= 0)
        assert np.abs(t) == pytest.approx(np.ones_like(s), abs=1e-12)
    # degenerate block radius falls back to the first coordinate direction
    Z0 = np.zeros((1, 3), dtype=complex)
    xi0 = block_direction(Z0, p, 2)
    assert xi0[0, 0] == 1.0 and xi0[0, 1] == 0.0


def test_block_radii_match_complex_norms():
    # the real-view sum of squares against np.linalg.norm per block, on
    # contiguous, column-sliced (strided) and real input
    from toepblocks.quad import block_direction, block_radii

    Z = sample_ball(5, 0.0, 2000, substream(0, "radii"))
    for W, p in ((Z, Partition((2, 3))), (Z[:, 1:], Partition((1, 3))),
                 (Z.real.copy(), Partition((3, 2)))):
        r = block_radii(W, p)
        for j, sl in enumerate(p.block_slices(), start=1):
            ref = np.linalg.norm(W[:, sl], axis=1)
            assert np.max(np.abs(r[:, j - 1] - ref) / ref) <= 4.5e-16
            xi = block_direction(W, p, j)
            assert np.max(np.abs(xi - W[:, sl] / ref[:, None])) <= 4.5e-16


def test_haar_unitary_batch_matches_contract():
    from toepblocks.quad import haar_unitary_batch

    U = haar_unitary_batch(3, 50, substream(0, "batch"))
    assert U.shape == (50, 3, 3)
    eye = np.eye(3)
    for M in U:
        assert np.max(np.abs(M.conj().T @ M - eye)) < 1e-12
