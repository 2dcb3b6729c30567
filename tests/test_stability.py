import numpy as np
import pytest

from ratsys import (CertificateRefusal, ConvergenceError, EpsilonCertificate,
                    Params, char_poly, classify, eigenvalues,
                    epsilon_certificate, jacobian, polynomial_roots,
                    spectral_radius)
from ratsys.stability import RADIUS_MARGIN

# frozen from a 200-step bisection of 9*r**6 = (r**2 - 1)**2 on (0.5, 0.7)
LARGEST_REAL_ROOT_211 = 0.5981934981108554


def coupling_product(params):
    return params.p * params.q / (params.alpha + 1.0) ** 2


def pair_equation_residual(params, lam):
    """|lam^6 (alpha+1)^2 - p q (lam^2 - 1)^2|, the decoupled-pair relation."""
    s2 = (params.alpha + 1.0) ** 2
    return abs(lam**6 * s2 - params.p * params.q * (lam**2 - 1.0) ** 2)


class TestJacobian:
    def test_example1_entries(self):
        a = jacobian(Params(2, 0.6, 0.9))
        expected = np.zeros((6, 6))
        expected[0, 3], expected[0, 5] = 0.6 / 3.0, -0.6 / 3.0
        expected[3, 0], expected[3, 2] = 0.9 / 3.0, -0.9 / 3.0
        expected[1, 0] = expected[2, 1] = expected[4, 3] = expected[5, 4] = 1.0
        assert np.array_equal(a, expected)

    def test_block_swap_symmetry_when_exponents_match(self):
        a = jacobian(Params(1.4, 0.7, 0.7))
        perm = np.zeros((6, 6))
        for i in range(3):
            perm[i, i + 3] = 1.0
            perm[i + 3, i] = 1.0
        assert np.array_equal(perm @ a @ perm, a)

    def test_small_exponents_give_small_couplings(self):
        a = jacobian(Params(2, 1e-9, 1e-9))
        assert abs(a[0, 3]) < 1e-9 and abs(a[3, 0]) < 1e-9


class TestCharPoly:
    def test_structure_against_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            par = Params(rng.uniform(0.2, 10), rng.uniform(0.05, 5), rng.uniform(0.05, 5))
            uv = coupling_product(par)
            coeffs = char_poly(jacobian(par))
            expected = np.array([1.0, 0.0, -uv, 0.0, 2 * uv, 0.0, -uv])
            assert np.max(np.abs(coeffs - expected)) < 1e-14

    def test_against_direct_determinant(self):
        rng = np.random.default_rng(3)
        par = Params(1.9, 0.75, 0.55)
        coeffs = char_poly(jacobian(par)).astype(complex)
        for _ in range(12):
            lam = complex(rng.normal(), rng.normal())
            direct = np.linalg.det(lam * np.eye(6) - jacobian(par))
            via_poly = np.polyval(coeffs, lam)
            assert abs(direct - via_poly) < 1e-12 * max(1.0, abs(direct))

    def test_identity_matrix(self):
        coeffs = char_poly(np.eye(3))
        assert np.allclose(coeffs, [1, -3, 3, -1], atol=1e-14)


class TestRoots:
    def test_known_quadratic(self):
        roots = sorted(polynomial_roots([1.0, -3.0, 2.0]), key=lambda z: z.real)
        assert abs(roots[0] - 1.0) < 1e-12 and abs(roots[1] - 2.0) < 1e-12

    def test_pure_power_cluster(self):
        roots = polynomial_roots([1.0, 0, 0, 0, 0, 0, 0], tol=1e-12)
        assert max(abs(z) for z in roots) < 1e-9

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            polynomial_roots([1.0, 0.0, -2.0, 1.5, 0.75, -1.0, 0.25], max_iter=2)


class TestEigenvalues:
    def test_nilpotent_limit_all_zero(self):
        a = jacobian(Params(2, 1, 1))
        a[0, 3] = a[0, 5] = a[3, 0] = a[3, 2] = 0.0  # decoupled shift chains
        eigs, residual = eigenvalues(a)
        assert len(eigs) == 6
        assert max(abs(z) for z in eigs) < 1e-9
        assert residual < 1e-12

    def test_largest_real_root_at_unit_exponents(self):
        eigs, _ = eigenvalues(jacobian(Params(2, 1, 1)))
        real_roots = [z.real for z in eigs if abs(z.imag) < 1e-9]
        top = max(real_roots)
        assert 0.59 < top < 0.60
        assert abs(top - LARGEST_REAL_ROOT_211) < 1e-9
        # independent bisection oracle, rerun here
        f = lambda r: 9 * r**6 - (r**2 - 1) ** 2
        lo, hi = 0.5, 0.7
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
        assert abs(top - 0.5 * (lo + hi)) < 1e-9

    def test_pair_equation_residual_example1(self):
        par = Params(2, 0.6, 0.9)
        eigs, _ = eigenvalues(jacobian(par))
        for z in eigs:
            assert abs(z**6 * 9.0 - 0.54 * (z**2 - 1.0) ** 2) < 1e-8

    def test_pair_equation_residual_random(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            par = Params(rng.uniform(0.2, 10), rng.uniform(0.05, 5), rng.uniform(0.05, 5))
            eigs, _ = eigenvalues(jacobian(par))
            for z in eigs:
                assert pair_equation_residual(par, z) < 1e-8

    def test_six_eigenvalues_trace_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            par = Params(rng.uniform(1.1, 5), rng.uniform(0.05, 1), rng.uniform(0.05, 1))
            eigs, _ = eigenvalues(jacobian(par))
            assert len(eigs) == 6
            assert abs(sum(eigs)) < 1e-8


class TestSpectralRadius:
    def test_all_zero(self):
        assert spectral_radius([0j] * 6) == 0.0

    def test_max_modulus_wins(self):
        assert spectral_radius([2.0 + 0j, 0.1j, -0.5 + 0j]) == 2.0

    def test_example1_below_one(self):
        eigs, _ = eigenvalues(jacobian(Params(2, 0.6, 0.9)))
        assert spectral_radius(eigs) < 1.0


class TestCertificate:
    def test_example1_values(self):
        cert = epsilon_certificate(Params(2, 0.6, 0.9))
        assert isinstance(cert, EpsilonCertificate)
        assert abs(cert.epsilon - 1.2 / 18.0) < 1e-15
        assert cert.norm_value < 1.0
        assert cert.weights[0] == cert.weights[3] == 1.0
        assert abs(cert.weights[2] - 0.8) < 1e-15  # 1 - 3*eps > 0

    def test_example4_refused_on_q(self):
        cert = epsilon_certificate(Params(0.3, 1.2, 1.5))
        assert isinstance(cert, CertificateRefusal)
        assert "alpha+1-2q" in cert.reason and "-1.7" in cert.reason

    def test_epsilon_always_below_third(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            par = Params(rng.uniform(0.1, 8), rng.uniform(0.01, 3), rng.uniform(0.01, 3))
            cert = epsilon_certificate(par)
            if isinstance(cert, EpsilonCertificate):
                assert 0.0 < cert.epsilon < 1.0 / 3.0
                assert all(w > 0.0 for w in cert.weights)

    def test_norm_bounds_spectral_radius(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            par = Params(rng.uniform(1.05, 5), rng.uniform(0.05, 1), rng.uniform(0.05, 1))
            cert = epsilon_certificate(par)
            assert isinstance(cert, EpsilonCertificate)
            eigs, _ = eigenvalues(jacobian(par))
            assert spectral_radius(eigs) <= cert.norm_value < 1.0


class TestClassify:
    def test_example1_globally_stable(self):
        report = classify(Params(2, 0.6, 0.9))
        assert report.classification == "globally-asymptotically-stable"
        assert report.meets_global_conditions
        assert report.certificate is not None
        assert report.spectral_radius < 1.0

    def test_boundary_unit_exponents_included(self):
        report = classify(Params(2, 1, 1))
        assert report.classification == "globally-asymptotically-stable"

    def test_example3_conditions_fail(self):
        report = classify(Params(0.6, 0.8, 1.9))
        assert not report.meets_global_conditions
        assert report.classification != "globally-asymptotically-stable"
        assert report.classification == "unstable"  # spectral radius 1.035
        assert report.certificate is None and report.certificate_refusal

    def test_locally_stable_without_global_conditions(self):
        # alpha below 1 keeps the global verdict off even with a radius < 1
        report = classify(Params(0.9, 0.3, 0.3))
        assert not report.meets_global_conditions
        assert report.spectral_radius < 1.0
        assert report.classification == "locally-asymptotically-stable"

    def test_residual_reported(self):
        report = classify(Params(2, 0.6, 0.9))
        assert report.char_residual < 1e-12

    def test_double_root_of_the_cubic(self):
        # pq/(alpha+1)^2 = 27/4: lambda^3 - s lambda^2 + s = (lambda - sqrt3)^2
        # (lambda + sqrt3/2); a double root is only good to about sqrt(eps)
        side = 5.196152422706632
        report = classify(Params(1, side, side))
        assert report.classification == "unstable"
        assert abs(report.spectral_radius - np.sqrt(3.0)) < 1e-7

    def test_large_coupling_converges(self):
        # s = 1e5: the largest root is near s, where rounding keeps
        # Durand-Kerner corrections above an absolute 1e-12
        par = Params(1, 2e5, 2e5)
        report = classify(par)
        reference = np.max(np.abs(np.linalg.eigvals(jacobian(par))))
        assert report.classification == "unstable"
        assert abs(report.spectral_radius - reference) <= 1e-12 * reference


def random_triples(seed, count):
    rng = np.random.default_rng(seed)
    return [Params(rng.uniform(0.05, 5), rng.uniform(0.05, 5), rng.uniform(0.05, 5))
            for _ in range(count)]


class TestClosedFormSpectrum:
    def test_matches_general_path_and_numpy(self):
        for par in random_triples(31, 200):
            report = classify(par)
            rho = report.spectral_radius
            general = spectral_radius(eigenvalues(jacobian(par))[0])
            reference = np.linalg.eigvals(jacobian(par))
            assert abs(rho - general) <= 1e-12 * general
            assert abs(rho - np.max(np.abs(reference))) <= 1e-12 * rho
            eigs = np.array(report.eigenvalues)
            assert len(eigs) == 6
            for z in reference:
                assert np.min(np.abs(eigs - z)) < 1e-10
            for z in eigs:
                assert np.min(np.abs(reference - z)) < 1e-10

    def test_labels_follow_the_jury_condition(self):
        # the cubic's Schur-Cohn conditions reduce to 2pq < (alpha+1)^2
        checked = 0
        for par in random_triples(33, 400):
            report = classify(par)
            if abs(report.spectral_radius - 1.0) <= RADIUS_MARGIN:
                continue
            stable = 2.0 * par.p * par.q < (par.alpha + 1.0) ** 2
            assert (report.spectral_radius < 1.0) == stable
            if report.classification != "globally-asymptotically-stable":
                expected = ("locally-asymptotically-stable" if stable
                            else "unstable")
                assert report.classification == expected
            else:
                assert stable
            checked += 1
        assert checked > 300
