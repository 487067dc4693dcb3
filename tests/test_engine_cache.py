"""Unit tests for the PatternEngine session layer: cache mechanics, LRU
bounds, invalidation, pinning, stats accounting, memory release, and the
batched API."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.engine import (BatchResult, PatternEngine, PatternRequest,
                               fingerprint_device, fingerprint_matrix)
from repro.core.api import evaluate as evaluate_uncached
from repro.kernels import codegen
from repro.kernels.base import GpuContext
from repro.gpu.device import GTX_TITAN, K20X
import repro.core.engine as core_engine
from repro.ml import glm_irls, hits, logreg_trust_region, svm_primal
from repro.ml.linreg import linreg_cg
from repro.ml.runtime import MLRuntime
from repro.serve.metrics import ServeMetrics
from repro.sparse import CsrMatrix, random_csr
from repro.systemml.fusion import fingerprint_dag
from repro.systemml.parser import parse_expression
from repro.systemml.runner import SystemMLSession


@pytest.fixture
def engine():
    return PatternEngine()


def _vec(n, seed=0):
    return np.random.default_rng(seed).normal(size=n)


class TestPlanCache:
    def test_second_call_hits(self, engine, small_csr):
        engine.evaluate(small_csr, _vec(small_csr.n, 1))
        engine.evaluate(small_csr, _vec(small_csr.n, 2))
        s = engine.stats()
        assert (s.plan_hits, s.plan_misses) == (1, 1)
        assert s.cold_calls == 1 and s.warm_calls == 1

    def test_structurally_identical_matrices_share_entries(self, engine):
        A = random_csr(150, 30, 0.2, rng=3)
        B = random_csr(150, 30, 0.2, rng=3)       # same seed -> same data
        engine.evaluate(A, _vec(30))
        engine.evaluate(B, _vec(30))
        assert engine.stats().plan_hits == 1

    def test_different_pattern_shape_misses(self, engine, small_csr):
        y = _vec(small_csr.n)
        engine.evaluate(small_csr, y)
        engine.evaluate(small_csr, y, v=_vec(small_csr.m))
        engine.evaluate(small_csr, y, z=y, beta=0.5)
        assert engine.stats().plan_misses == 3

    def test_alpha_beta_values_do_not_fragment_the_cache(self, engine,
                                                         small_csr):
        y = _vec(small_csr.n)
        engine.evaluate(small_csr, y, z=y, beta=0.5)
        engine.evaluate(small_csr, y, z=y, beta=2.5, alpha=3.0)
        s = engine.stats()
        assert (s.plan_hits, s.plan_misses) == (1, 1)

    def test_lru_eviction_bound(self):
        engine = PatternEngine(max_plans=2)
        for seed in range(4):
            X = random_csr(100, 20, 0.2, rng=seed)
            engine.evaluate(X, _vec(20))
        s = engine.stats()
        assert s.plan_entries == 2
        assert s.evictions == 2

    def test_unknown_strategy_raises(self, engine, small_csr):
        with pytest.raises(ValueError, match="unknown strategy"):
            engine.evaluate(small_csr, _vec(small_csr.n),
                            strategy="quantum")

    def test_auto_resolves_like_executor(self, engine, rng):
        wide = rng.normal(size=(50, 6000))        # beyond the dense limit
        engine.evaluate(wide, rng.normal(size=6000))
        entry = next(iter(engine._plans.values()))
        assert entry.strategy == "cusparse"

    def test_check_mode_verifies(self, small_csr):
        engine = PatternEngine(check=True)
        res = engine.evaluate(small_csr, _vec(small_csr.n),
                              v=_vec(small_csr.m), alpha=1.5)
        ref = evaluate_uncached(small_csr, _vec(small_csr.n),
                                v=_vec(small_csr.m), alpha=1.5)
        np.testing.assert_array_equal(res.output, ref.output)


class TestInvalidation:
    def test_invalidate_drops_matrix_state(self, engine, small_csr):
        y = _vec(small_csr.n)
        engine.evaluate(small_csr, y, strategy="cusparse-explicit")
        removed = engine.invalidate(small_csr)
        # one plan entry + transpose + csrmv profile + spmv plan + XT profile
        assert removed == 5
        engine.evaluate(small_csr, y, strategy="cusparse-explicit")
        s = engine.stats()
        assert s.plan_misses == 2 and s.transposes_built == 2

    def test_invalidate_unknown_matrix_is_noop(self, engine, small_csr):
        engine.evaluate(small_csr, _vec(small_csr.n))
        other = random_csr(60, 10, 0.3, rng=9)
        assert engine.invalidate(other) == 0
        assert engine.stats().plan_entries == 1

    def test_clear_preserves_counters(self, engine, small_csr):
        engine.evaluate(small_csr, _vec(small_csr.n))
        engine.clear()
        s = engine.stats()
        assert s.plan_entries == 0 and s.bytes_cached == 0
        assert s.calls == 1


class TestArtifacts:
    def test_transpose_bytes_accounted(self, engine, small_csr):
        engine.evaluate(small_csr, _vec(small_csr.n),
                        strategy="cusparse-explicit")
        s = engine.stats()
        XT = small_csr.transpose_csr()
        expected = XT.values.nbytes + XT.col_idx.nbytes + XT.row_off.nbytes
        # the transpose plus the (smaller) kernel profiles and spmv plan
        assert s.artifact_bytes >= expected
        assert s.artifact_bytes <= expected + 64 * 1024
        assert s.bytes_cached >= s.artifact_bytes

    def test_artifact_lru_bound(self):
        engine = PatternEngine(max_artifact_bytes=1)   # room for one only
        for seed in range(3):
            X = random_csr(120, 25, 0.2, rng=seed)
            engine.evaluate(X, _vec(25), strategy="cusparse-explicit")
        s = engine.stats()
        assert s.transposes_built == 3
        assert len(engine._artifacts) == 1             # bound enforced

    def test_dense_codegen_compiled_once(self):
        codegen.clear_cache()
        engine = PatternEngine()
        X = np.random.default_rng(2).normal(size=(64, 48))
        y = _vec(48)
        engine.evaluate(X, y, strategy="fused")
        engine.evaluate(X, _vec(48, 5), strategy="fused")
        assert engine.stats().kernels_compiled == 1


class TestPinnedFingerprint:
    def test_pin_skips_hashing_and_freezes(self):
        engine = PatternEngine()
        X = random_csr(70, 22, 0.2, rng=41)
        y = np.ones(X.n)
        engine.pin(X)
        engine.evaluate(X, y, strategy="fused")
        engine.evaluate(X, y, strategy="fused")
        assert engine.stats().pinned_fingerprint_hits >= 2
        with pytest.raises(ValueError):       # frozen: mutation must raise
            X.values[0] = 99.0
        engine.unpin(X)
        X.values[0] = 99.0                    # writability restored

    def test_invalidate_unpins(self):
        engine = PatternEngine()
        X = random_csr(30, 10, 0.3, rng=42)
        engine.pin(X)
        engine.invalidate(X)
        X.values[0] = 1.0                     # must not raise

    def test_pin_dense_matrix(self):
        # ndarrays aren't weakref-able: pin falls back to a strong ref
        engine = PatternEngine()
        X = np.random.default_rng(43).normal(size=(20, 8))
        engine.pin(X)
        with pytest.raises(ValueError):
            X[0, 0] = 1.0
        engine.unpin(X)
        X[0, 0] = 1.0

    def test_unpin_thaws_only_what_the_pin_froze(self):
        engine = PatternEngine()
        X = random_csr(30, 10, 0.3, rng=44)
        X.values.flags.writeable = False          # the caller's own freeze
        engine.pin(X)
        engine.unpin(X)
        assert not X.values.flags.writeable
        X.col_idx[0] = X.col_idx[0]               # thawed: it was writable

    def test_repin_then_one_unpin_thaws(self):
        # the second pin finds X frozen by the first; the one unpin must
        # still thaw what the first pin froze
        engine = PatternEngine()
        X = random_csr(30, 10, 0.3, rng=45)
        fp = engine.pin(X)
        assert engine.pin(X) == fp
        engine.unpin(X)
        X.values[0] = 1.0
        assert not engine.is_pinned(X)

    def test_fingerprint_is_the_memo_or_one_hash(self):
        engine = PatternEngine()
        X = random_csr(30, 10, 0.3, rng=46)
        assert engine.fingerprint(X) == fingerprint_matrix(X)
        fp = engine.pin(X)
        assert engine.fingerprint(X) == fp
        assert engine.stats().pinned_fingerprint_hits == 1


def _count_hashes(monkeypatch) -> list:
    calls: list = []
    real = core_engine.fingerprint_matrix

    def counting(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(core_engine, "fingerprint_matrix", counting)
    return calls


_SOLVES = {
    "linreg": lambda X, rt: linreg_cg(X, _vec(X.m, 7), runtime=rt,
                                      max_iterations=4),
    "glm": lambda X, rt: glm_irls(X, np.abs(_vec(X.m, 7)), runtime=rt,
                                  max_irls=2, max_cg=3,
                                  include_transfer=True),
    "logreg": lambda X, rt: logreg_trust_region(
        X, np.sign(_vec(X.m, 7)) + (_vec(X.m, 7) == 0), runtime=rt,
        max_newton=2, max_cg=3, include_transfer=True),
    "svm": lambda X, rt: svm_primal(
        X, np.sign(_vec(X.m, 7)) + (_vec(X.m, 7) == 0), runtime=rt,
        max_newton=2, max_cg=3, include_transfer=True),
    "hits": lambda X, rt: hits(X, runtime=rt, max_iterations=4,
                               include_transfer=True),
}


class TestSolvePins:
    """A GPU solve pins X while it runs and hands it back as it was."""

    @pytest.mark.parametrize("solver", sorted(_SOLVES))
    def test_x_is_writable_after_the_solve(self, solver):
        X = random_csr(120, 20, 0.2, rng=71)
        rt = MLRuntime("gpu-fused")
        _SOLVES[solver](X, rt)
        assert rt.engine.stats().pinned_fingerprint_hits > 0
        X.values[0] += 1.0
        assert not rt.engine.is_pinned(X)

    def test_x_is_writable_after_the_runtime_is_dropped(self):
        X = random_csr(120, 20, 0.2, rng=72)
        rt = MLRuntime("gpu-fused")
        linreg_cg(X, _vec(X.m, 72), runtime=rt, max_iterations=3)
        del rt
        X.values[0] += 1.0
        linreg_cg(X, _vec(X.m, 72), max_iterations=3)  # its own runtime
        X.values[0] += 1.0

    def test_a_raising_solve_releases_its_pin(self):
        X = random_csr(120, 20, 0.2, rng=73)
        rt = MLRuntime("gpu-fused")

        def broken(*a, **kw):
            raise RuntimeError("kernel failed")

        rt.pattern = broken
        with pytest.raises(RuntimeError):
            linreg_cg(X, _vec(X.m, 73), runtime=rt, max_iterations=3)
        X.values[0] += 1.0

    def test_a_caller_frozen_array_stays_frozen(self):
        X = random_csr(120, 20, 0.2, rng=74)
        X.values.flags.writeable = False
        linreg_cg(X, _vec(X.m, 74), runtime=MLRuntime("gpu-fused"),
                  max_iterations=3)
        assert not X.values.flags.writeable
        X.col_idx[0] = X.col_idx[0]         # the solve's own freeze undone

    def test_a_caller_pinned_x_stays_pinned_unhashed(self, monkeypatch):
        X = random_csr(120, 20, 0.2, rng=75)
        rt = MLRuntime("gpu-fused")
        rt.engine.pin(X)
        hashes = _count_hashes(monkeypatch)
        linreg_cg(X, _vec(X.m, 75), runtime=rt, max_iterations=3)
        assert not any(h is X for h in hashes)
        assert rt.engine.is_pinned(X)
        with pytest.raises(ValueError):
            X.values[0] = 1.0
        rt.engine.unpin(X)
        X.values[0] = 1.0

    def test_each_solve_hashes_x_once(self, monkeypatch):
        X = random_csr(120, 20, 0.2, rng=76)
        rt = MLRuntime("gpu-fused")
        hashes = _count_hashes(monkeypatch)
        for _ in range(2):
            linreg_cg(X, _vec(X.m, 76), runtime=rt, max_iterations=3)
        assert sum(h is X for h in hashes) == 2


@pytest.fixture
def no_gc():
    """Disable the cyclic collector: what survives is held by a live
    reference or a reference cycle, never by collection timing."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestMemoryRelease:
    def test_mlruntime_engine_freed_after_pinned_solve(self, no_gc):
        X = random_csr(300, 40, 0.1, rng=61)
        y = np.random.default_rng(61).normal(size=X.m)
        rt = MLRuntime("gpu-fused")
        linreg_cg(X, y, runtime=rt, max_iterations=5)   # upload pins X
        assert rt.engine.stats().pinned_fingerprint_hits > 0
        engine = weakref.ref(rt.engine)
        del rt
        assert engine() is None

    def test_systemml_engine_freed_after_dag_solve(self, no_gc):
        X = random_csr(300, 40, 0.1, rng=62)
        y = np.random.default_rng(62).normal(size=X.m)
        session = SystemMLSession("gpu-fused", fuse="auto")
        session.run_linreg_cg(X, y, max_iterations=5)
        assert session.engine.stats().fusion_plans_built > 0
        engine = weakref.ref(session.engine)
        del session
        assert engine() is None

    def test_fingerprint_dag_frees_its_env(self, no_gc):
        X = random_csr(80, 20, 0.1, rng=63)
        env = {"X": X, "p": np.ones(X.n)}
        vector = weakref.ref(env["p"])
        fingerprint_dag(parse_expression("t(X) %*% (X %*% p)"), env)
        del env
        assert vector() is None

    def test_artifact_budget_bounds_retained_memory(self, no_gc):
        budget = 2 * 1024 * 1024
        mats = [random_csr(2000, 96, 0.05, rng=s) for s in range(24)]
        ys = [np.random.default_rng(s).normal(size=96) for s in range(24)]
        tracemalloc.start()
        try:
            engine = PatternEngine(max_artifact_bytes=budget)
            for i in range(600):
                engine.evaluate(mats[i % 24], ys[i % 24], strategy="fused")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.stats().evictions > 0           # the LRU was full
        assert retained <= 2 * budget, retained


class TestBatched:
    def test_results_in_request_order_and_bit_identical(self, engine,
                                                        small_csr):
        reqs = [PatternRequest(small_csr, _vec(small_csr.n, s))
                for s in range(6)]
        out = engine.evaluate_many(reqs, max_workers=4)
        assert [b.index for b in out] == list(range(6))
        for s, b in enumerate(out):
            ref = evaluate_uncached(small_csr, _vec(small_csr.n, s))
            np.testing.assert_array_equal(b.result.output, ref.output)
            assert b.wall_ms >= 0.0
            assert isinstance(b, BatchResult)

    def test_warm_batch_reports_cached(self, engine, small_csr):
        y = _vec(small_csr.n)
        engine.evaluate(small_csr, y)                  # pre-warm the plan
        out = engine.evaluate_many(
            [PatternRequest(small_csr, _vec(small_csr.n, s))
             for s in range(4)], max_workers=2)
        assert all(b.cached for b in out)

    def test_serial_worker_cold_flags(self, small_csr):
        engine = PatternEngine()
        out = engine.evaluate_many(
            [PatternRequest(small_csr, _vec(small_csr.n, s))
             for s in range(3)], max_workers=1)
        assert [b.cached for b in out] == [False, True, True]

    def test_accepts_dicts_and_patterns(self, engine, small_csr):
        from repro.core.pattern import GenericPattern
        out = engine.evaluate_many([
            {"X": small_csr, "y": _vec(small_csr.n)},
            GenericPattern(small_csr, _vec(small_csr.n, 1)),
        ])
        assert len(out) == 2

    def test_rejects_garbage_requests(self, engine):
        with pytest.raises(TypeError, match="requests must be"):
            engine.evaluate_many([42])

    def test_empty_batch(self, engine):
        assert engine.evaluate_many([]) == []

    def test_many_workers_consistent_under_contention(self, engine):
        mats = [random_csr(150, 30, 0.2, rng=s) for s in range(4)]
        reqs = [PatternRequest(mats[i % 4], _vec(30, i)) for i in range(24)]
        out = engine.evaluate_many(reqs, max_workers=8)
        for i, b in enumerate(out):
            ref = evaluate_uncached(mats[i % 4], _vec(30, i))
            np.testing.assert_array_equal(b.result.output, ref.output)


class TestFingerprints:
    def test_matrix_fingerprint_is_content_based(self, small_csr):
        clone = CsrMatrix(small_csr.shape, small_csr.values.copy(),
                          small_csr.col_idx.copy(),
                          small_csr.row_off.copy())
        assert fingerprint_matrix(small_csr) == fingerprint_matrix(clone)
        clone.values[0] += 1.0
        assert fingerprint_matrix(small_csr) != fingerprint_matrix(clone)

    def test_dense_fingerprint_handles_views(self, rng):
        X = rng.normal(size=(30, 20))
        assert fingerprint_matrix(X) == fingerprint_matrix(X.copy())
        assert fingerprint_matrix(X.T) != fingerprint_matrix(X)

    def test_device_fingerprint_differs_across_specs(self):
        assert (fingerprint_device(GpuContext(GTX_TITAN))
                != fingerprint_device(GpuContext(K20X)))
        assert (fingerprint_device(GpuContext(GTX_TITAN,
                                              use_texture_cache=False))
                != fingerprint_device(GpuContext(GTX_TITAN)))


class TestStatsReport:
    def test_report_mentions_key_quantities(self, engine, small_csr):
        engine.evaluate(small_csr, _vec(small_csr.n),
                        strategy="cusparse-explicit")
        engine.evaluate(small_csr, _vec(small_csr.n, 1),
                        strategy="cusparse-explicit")
        text = engine.stats().report()
        for token in ("hit-rate", "bytes cached", "amortized speedup",
                      "transposes built"):
            assert token in text

    def test_artifact_kind_composition(self):
        engine = PatternEngine()
        X = random_csr(40, 14, 0.3, rng=51)
        engine.evaluate(X, np.ones(X.n), strategy="fused")
        kinds = engine.stats().artifact_kinds
        assert kinds == {"profile:fused-sparse": 1, "spmv-plan": 1}
        report = engine.stats().report()
        assert "artifact LRU composition:" in report
        assert "profile:fused-sparse: 1 entries" in report
        assert "pinned-fingerprint hits" in report

    def test_profiles_built_counts_kernel_profiles_only(self):
        engine = PatternEngine()
        X = random_csr(40, 14, 0.3, rng=53)
        engine.evaluate(X, np.ones(X.n), strategy="fused")
        assert engine.stats().profiles_built == 1     # not the spmv-plan

        session = SystemMLSession("gpu-fused", fuse="auto")
        session.run_linreg_cg(X, np.ones(X.m), max_iterations=3)
        stats = session.engine.stats()
        assert stats.fusion_plans_built > 0
        assert stats.profiles_built == sum(
            n for kind, n in stats.artifact_kinds.items()
            if kind.startswith("profile:"))

    def test_prometheus_exports_artifact_kinds(self):
        engine = PatternEngine()
        X = random_csr(30, 10, 0.3, rng=52)
        engine.evaluate(X, np.ones(X.n), strategy="fused")
        text = ServeMetrics().to_prometheus(engine_stats=engine.stats())
        assert ('repro_engine_artifact_entries{kind="profile:fused-sparse"} 1'
                in text)
        assert 'repro_engine_artifact_entries{kind="spmv-plan"} 1' in text

    def test_amortized_speedup_tracks_transpose_saving(self, engine,
                                                       medium_csr):
        for s in range(5):
            engine.evaluate(medium_csr, _vec(medium_csr.n, s),
                            strategy="cusparse-explicit")
        s = engine.stats()
        assert s.amortized_speedup > 1.5
        assert s.warm_ms_per_call < s.cold_ms_per_call
