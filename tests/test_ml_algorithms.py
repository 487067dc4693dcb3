"""The five ML algorithms: convergence, correctness, backend equivalence."""

import numpy as np
import pytest

from repro.data import classification_labels, regression_targets
from repro.ml import (MLRuntime, glm_irls, hits, linreg_cg,
                      logreg_trust_region, svm_primal)
from repro.core.pattern import Instantiation
from repro.sparse import random_csr


@pytest.fixture(scope="module")
def reg_problem():
    X = random_csr(400, 30, 0.3, rng=1)
    rng = np.random.default_rng(2)
    w_true = rng.normal(size=30)
    y = X.to_dense() @ w_true + 0.01 * rng.normal(size=400)
    return X, y, w_true


@pytest.fixture(scope="module")
def cls_problem():
    X = random_csr(500, 20, 0.4, rng=3)
    t = classification_labels(X, rng=4)
    return X, t


class TestLinReg:
    def test_solves_normal_equations(self, reg_problem):
        X, y, _ = reg_problem
        res = linreg_cg(X, y, eps=1e-3, max_iterations=200)
        d = X.to_dense()
        w_ref = np.linalg.solve(d.T @ d + 1e-3 * np.eye(30), d.T @ y)
        np.testing.assert_allclose(res.w, w_ref, rtol=1e-4, atol=1e-6)

    def test_residual_decreases(self, reg_problem):
        X, y, _ = reg_problem
        res = linreg_cg(X, y, max_iterations=50)
        assert res.residual_norm_sq < res.initial_norm_sq

    def test_iteration_cap(self, reg_problem):
        X, y, _ = reg_problem
        res = linreg_cg(X, y, max_iterations=3, tolerance=0.0)
        assert res.iterations == 3

    def test_backends_agree(self, reg_problem):
        X, y, _ = reg_problem
        ws = {}
        for backend in ("cpu", "gpu-baseline", "gpu-fused"):
            ws[backend] = linreg_cg(X, y, MLRuntime(backend),
                                    max_iterations=20).w
        np.testing.assert_allclose(ws["cpu"], ws["gpu-fused"], rtol=1e-12)
        np.testing.assert_allclose(ws["gpu-baseline"], ws["gpu-fused"],
                                   rtol=1e-12)

    def test_fused_backend_faster(self, reg_problem):
        X, y, _ = reg_problem
        f = linreg_cg(X, y, MLRuntime("gpu-fused"), max_iterations=20)
        b = linreg_cg(X, y, MLRuntime("gpu-baseline"), max_iterations=20)
        assert f.total_time_ms < b.total_time_ms

    def test_transfer_charged_once(self, reg_problem):
        X, y, _ = reg_problem
        rt = MLRuntime("gpu-fused")
        linreg_cg(X, y, rt, max_iterations=10)
        # X + y upload + w download
        assert rt.ledger.op_counts["transfer"] == 3

    def test_uses_paper_instantiations(self, reg_problem):
        X, y, _ = reg_problem
        rt = MLRuntime("gpu-fused")
        linreg_cg(X, y, rt, max_iterations=5)
        used = set(rt.ledger.instantiations)
        assert Instantiation.XT_Y in used
        assert Instantiation.XT_X_Y_BZ in used

    def test_y_shape_validated(self, reg_problem):
        X, _, _ = reg_problem
        with pytest.raises(ValueError, match="y must have shape"):
            linreg_cg(X, np.ones(7))


class TestLogReg:
    def test_converges_and_separates(self, cls_problem):
        X, t = cls_problem
        res = logreg_trust_region(X, t, lam=1.0)
        acc = (np.sign(X.to_dense() @ res.w) == t).mean()
        assert acc > 0.9
        assert res.grad_norm < 1e-3

    def test_matches_scipy_optimum(self, cls_problem):
        from scipy.optimize import minimize
        X, t = cls_problem
        d = X.to_dense()
        lam = 1.0

        def f(w):
            return (np.logaddexp(0, -t * (d @ w)).sum()
                    + 0.5 * lam * w @ w)

        res = logreg_trust_region(X, t, lam=lam, max_newton=50)
        ref = minimize(f, np.zeros(X.n), method="L-BFGS-B",
                       options={"maxiter": 500})
        assert res.final_loss == pytest.approx(ref.fun, rel=1e-5)

    def test_label_validation(self, cls_problem):
        X, _ = cls_problem
        with pytest.raises(ValueError, match="-1/\\+1"):
            logreg_trust_region(X, np.zeros(X.m))

    def test_uses_full_pattern(self, cls_problem):
        X, t = cls_problem
        rt = MLRuntime("gpu-fused")
        logreg_trust_region(X, t, rt, max_newton=3)
        assert Instantiation.FULL in rt.ledger.instantiations


class TestGlm:
    @pytest.mark.parametrize("family", ["gaussian", "poisson", "binomial"])
    def test_families_converge(self, family, rng):
        X = random_csr(400, 15, 0.4, rng=5)
        d = X.to_dense()
        w_true = 0.3 * rng.normal(size=15)
        eta = np.clip(d @ w_true, -3, 3)
        if family == "gaussian":
            target = eta + 0.01 * rng.normal(size=400)
        elif family == "poisson":
            target = rng.poisson(np.exp(eta)).astype(float)
        else:
            target = (rng.random(400) < 1 / (1 + np.exp(-eta))).astype(float)
        res = glm_irls(X, target, family)
        assert res.deviance_proxy < 1e-4 or res.iterations >= 3
        # recovered linear predictor correlates with the truth
        corr = np.corrcoef(d @ res.w, eta)[0, 1]
        assert corr > 0.8

    def test_gaussian_equals_least_squares(self, rng):
        X = random_csr(300, 10, 0.5, rng=6)
        d = X.to_dense()
        y = d @ rng.normal(size=10)
        res = glm_irls(X, y, "gaussian")
        w_ref, *_ = np.linalg.lstsq(d, y, rcond=None)
        np.testing.assert_allclose(res.w, w_ref, rtol=1e-5, atol=1e-7)

    def test_regularized_gaussian_equals_ridge(self):
        X = random_csr(80, 10, 0.3, rng=1)
        d = X.to_dense()
        t = np.random.default_rng(1).normal(size=80)
        res = glm_irls(X, t, "gaussian", lam=0.5)
        w_ref = np.linalg.solve(d.T @ d + 0.5 * np.eye(10), d.T @ t)
        np.testing.assert_allclose(res.w, w_ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_regularized_fit_converges(self, family):
        X = random_csr(80, 10, 0.3, rng=1)
        rng = np.random.default_rng(1)
        eta = np.clip(X.to_dense() @ (0.3 * rng.normal(size=10)), -3, 3)
        if family == "poisson":
            target = rng.poisson(np.exp(eta)).astype(float)
        else:
            target = (rng.random(80) < 1 / (1 + np.exp(-eta))).astype(float)
        res = glm_irls(X, target, family, lam=0.5)
        # squared gradient of the penalized likelihood, X^T (t - mu) - lam w
        assert res.deviance_proxy <= 1e-8

    def test_invalid_family(self, small_csr):
        with pytest.raises(ValueError, match="family"):
            glm_irls(small_csr, np.ones(small_csr.m), "gamma")

    def test_weighted_pattern_traced(self, rng):
        X = random_csr(200, 8, 0.5, rng=7)
        target = np.abs(rng.poisson(2.0, size=200)).astype(float)
        rt = MLRuntime("gpu-fused")
        glm_irls(X, target, "poisson", rt, max_irls=2, max_cg=4)
        assert Instantiation.XT_V_X_Y in rt.ledger.instantiations


class TestSvm:
    def test_separates(self, cls_problem):
        X, t = cls_problem
        res = svm_primal(X, t, lam=1.0)
        acc = (np.sign(X.to_dense() @ res.w) == t).mean()
        assert acc > 0.9
        assert 0 < res.n_support <= X.m

    def test_objective_decreases_vs_zero(self, cls_problem):
        X, t = cls_problem
        res = svm_primal(X, t, lam=1.0)
        obj_zero = float(len(t))       # all margins violated at w=0
        assert res.objective < obj_zero

    def test_stronger_regularization_smaller_weights(self, cls_problem):
        X, t = cls_problem
        w_weak = svm_primal(X, t, lam=0.1).w
        w_strong = svm_primal(X, t, lam=100.0).w
        assert np.linalg.norm(w_strong) < np.linalg.norm(w_weak)

    def test_label_validation(self, cls_problem):
        X, _ = cls_problem
        with pytest.raises(ValueError):
            svm_primal(X, np.full(X.m, 2.0))


class TestHits:
    @pytest.fixture(scope="class")
    def graph(self):
        X = random_csr(200, 200, 0.03, rng=8)
        X.values[:] = np.abs(X.values)
        return X

    def test_converges_to_leading_eigenvector(self, graph):
        res = hits(graph, max_iterations=300, tol=1e-12)
        A = graph.to_dense()
        _, evecs = np.linalg.eigh(A.T @ A)
        lead = evecs[:, -1]
        cos = abs(res.authorities @ lead)
        assert cos > 1.0 - 1e-6

    def test_modes_agree(self, graph):
        fused = hits(graph, mode="fused", max_iterations=300, tol=1e-12)
        alt = hits(graph, mode="alternating", max_iterations=300, tol=1e-12)
        np.testing.assert_allclose(np.abs(fused.authorities),
                                   np.abs(alt.authorities), atol=1e-5)

    def test_scores_normalized(self, graph):
        res = hits(graph, max_iterations=50)
        assert np.linalg.norm(res.authorities) == pytest.approx(1.0)
        assert np.linalg.norm(res.hubs) == pytest.approx(1.0)

    def test_top_k_helpers(self, graph):
        res = hits(graph, max_iterations=50)
        top = res.top_authorities(5)
        assert len(top) == 5
        assert res.authorities[top[0]] == res.authorities.max()

    def test_invalid_mode(self, graph):
        with pytest.raises(ValueError, match="mode"):
            hits(graph, mode="spectral")

    def test_alternating_uses_xt_y(self, graph):
        rt = MLRuntime("gpu-fused")
        hits(graph, rt, max_iterations=3, mode="alternating")
        assert Instantiation.XT_Y in rt.ledger.instantiations


class TestRuntime:
    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            MLRuntime("quantum")

    def test_ledger_fractions(self, reg_problem):
        X, y, _ = reg_problem
        rt = MLRuntime("cpu", cpu_threads=1)
        linreg_cg(X, y, rt, max_iterations=10, include_transfer=False)
        total = rt.ledger.total_ms
        parts = sum(rt.ledger.by_category.values())
        assert total == pytest.approx(parts)
        assert 0.0 < rt.ledger.compute_fraction("pattern") <= 1.0

    def test_ledger_reset(self):
        rt = MLRuntime("cpu")
        rt.ledger.charge("blas1", 1.0)
        rt.ledger.reset()
        assert rt.ledger.total_ms == 0.0
