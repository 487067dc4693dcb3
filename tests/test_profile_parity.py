"""Counter-parity and bit-identity guarantees of the kernel-profile layer.

The PR's contract:

* a kernel call given a precomputed profile must produce ``KernelResult``
  counters *field-equal* (and outputs *byte-equal*) to the same call with no
  profile — across a 200-pattern sweep of every strategy, sparse and dense;
* :class:`~repro.sparse.ops.SpmvPlan`-backed ``spmv``/``spmv_t`` are
  byte-identical to the plain reference ops (hypothesis properties over
  signed zeros, NaN, empty structure, frozen and content-equal operands,
  and threads sharing a plan), and the fused kernel's output bytes equal
  ``fused_pattern_reference`` over the 200-pattern sweep;
* in-place mutation of a matrix rebuilds the profile (content fingerprints),
  so the engine never serves a stale template.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import evaluate as evaluate_uncached
from repro.core.engine import PatternEngine
from repro.core.pattern import GenericPattern
from repro.core.plans import ExplicitTransposePlan
from repro.kernels import (dense_baseline, dense_fused, sparse_baseline,
                           sparse_fused, sparse_multi, sparse_scalar)
from repro.kernels.base import DEFAULT_CONTEXT
from repro.sparse import (CsrMatrix, SpmvPlan, fused_pattern_reference,
                          random_csr, spmv, spmv_t)
from repro.tuning.sparse_params import tune_sparse

SPARSE_STRATEGIES = ("auto", "fused", "cusparse", "cusparse-explicit",
                     "bidmat-gpu", "bidmat-cpu")
DENSE_STRATEGIES = ("auto", "fused", "cusparse", "bidmat-gpu", "bidmat-cpu")
PATTERNS_PER_CHUNK = 25


def _random_case(rng):
    sparse = rng.random() < 0.6
    if sparse:
        m = int(rng.integers(30, 300))
        n = int(rng.integers(8, 80))
        X = random_csr(m, n, float(rng.uniform(0.05, 0.4)),
                       rng=int(rng.integers(0, 2**31)))
        strategy = SPARSE_STRATEGIES[int(rng.integers(
            0, len(SPARSE_STRATEGIES)))]
    else:
        m = int(rng.integers(16, 120))
        n = int(rng.integers(8, 100))
        X = rng.normal(size=(m, n))
        strategy = DENSE_STRATEGIES[int(rng.integers(
            0, len(DENSE_STRATEGIES)))]
    y = rng.normal(size=n)
    v = rng.normal(size=m) if rng.random() < 0.5 else None
    z = rng.normal(size=n) if rng.random() < 0.5 else None
    alpha = float(rng.uniform(-2.0, 2.0))
    beta = float(rng.uniform(0.1, 2.0)) if z is not None else 0.0
    return X, y, v, z, alpha, beta, strategy


def assert_counters_equal(a, b, context="", exact=True):
    """Field-by-field equality of two PerfCounters.

    ``exact=False`` allows float-summation reordering (rel 1e-12) — needed
    only for the explicit-transpose route, where the engine merges the
    ``csr2csc`` step's counters in a different chain order than the plan
    (a pre-existing artifact of the engine's artifact charging, not of the
    profile layer).
    """
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if exact:
            assert va == vb, f"{context}: counter {f.name}: {va} != {vb}"
        else:
            assert va == pytest.approx(vb, rel=1e-12), \
                f"{context}: counter {f.name}: {va} != {vb}"


# -------------------------------------------------- engine-level 200 sweep
@pytest.mark.parametrize("chunk", range(8))
def test_profiled_counters_match_unprofiled_sweep(chunk):
    """8 chunks x 25 patterns: engine (cached-profile) calls vs uncached.

    The cold engine call builds the profile inline; the warm call reuses the
    cached one; ``api.evaluate`` never sees a cache.  All three must agree on
    every counter field and every output byte.  The one *intended* warm
    difference predates this PR: ``cusparse-explicit`` stops charging the
    cached ``csr2csc`` conversion (Fig. 2 amortization), so its warm
    reference is the amortized plan, not the cold call.
    """
    rng = np.random.default_rng(7000 + chunk)
    engine = PatternEngine()
    for case in range(PATTERNS_PER_CHUNK):
        X, y, v, z, alpha, beta, strategy = _random_case(rng)
        ref = evaluate_uncached(X, y, v=v, z=z, alpha=alpha, beta=beta,
                                strategy=strategy)
        cold = engine.evaluate(X, y, v=v, z=z, alpha=alpha, beta=beta,
                               strategy=strategy)
        warm = engine.evaluate(X, y, v=v, z=z, alpha=alpha, beta=beta,
                               strategy=strategy)
        context = f"chunk={chunk} case={case} strategy={strategy}"
        explicit = cold.name == "cusparse+csr2csc"
        # chain() order differs for the explicit route (the engine chains
        # the transpose outside the plan), so that route is compared to
        # within float-summation reordering; every other route is exact
        assert_counters_equal(cold.counters, ref.counters, context,
                              exact=not explicit)
        assert cold.time_ms == pytest.approx(ref.time_ms, rel=1e-12), context
        if warm.name == "cusparse+csr2csc":
            plan = ExplicitTransposePlan(engine.ctx, amortized=True)
            p = GenericPattern(X, y, v=v, z=z, alpha=alpha, beta=beta)
            plan.evaluate(p)                 # builds XT, uncharged
            warm_ref = plan.evaluate(p)      # amortized steady state
        else:
            warm_ref = ref
        assert_counters_equal(warm.counters, warm_ref.counters, context)
        assert warm.time_ms == pytest.approx(warm_ref.time_ms,
                                             rel=1e-12), context
        assert np.array_equal(warm.output, warm_ref.output), context
        assert np.array_equal(warm.output, ref.output), context
    assert engine.stats().profiles_built > 0


# ----------------------------------------------- kernel-level direct parity
class TestDirectKernelParity:
    """Explicit profile= argument vs profile=None on each kernel family."""

    def _check(self, fn, X, *args, profile, **kw):
        a = fn(X, *args, **kw)
        b = fn(X, *args, profile=profile, **kw)
        assert_counters_equal(a.counters, b.counters, fn.__name__)
        assert a.time_ms == b.time_ms
        out_a, out_b = a.output, b.output
        if isinstance(out_a, np.ndarray):
            assert np.array_equal(out_a, out_b)

    @pytest.fixture()
    def X(self):
        return random_csr(150, 40, 0.15, rng=42)

    @pytest.fixture()
    def rng(self):
        return np.random.default_rng(7)

    def test_sparse_fused_family(self, X, rng):
        prof = sparse_fused.profile_sparse_fused(X)
        y, p = rng.normal(size=X.n), rng.normal(size=X.m)
        v, z = rng.normal(size=X.m), rng.normal(size=X.n)
        self._check(sparse_fused.xt_spmv_fused, X, p, profile=prof)
        self._check(sparse_fused.fused_pattern_sparse, X, y, v, z,
                    1.7, 0.3, profile=prof)
        self._check(sparse_fused.fused_xtxy_sparse, X, y, profile=prof)

    def test_sparse_fused_global_variant(self, rng):
        X = random_csr(80, 3000, 0.01, rng=5)
        params = tune_sparse(X, DEFAULT_CONTEXT.device,
                             force_variant="global")
        prof = sparse_fused.profile_sparse_fused(X, params=params)
        assert prof.variant == "global"
        y = rng.normal(size=X.n)
        a = sparse_fused.fused_pattern_sparse(X, y, params=params)
        b = sparse_fused.fused_pattern_sparse(X, y, profile=prof)
        assert_counters_equal(a.counters, b.counters, "global variant")
        assert np.array_equal(a.output, b.output)

    def test_csrmv_family(self, X, rng):
        prof = sparse_baseline.profile_csrmv(X)
        y, p = rng.normal(size=X.n), rng.normal(size=X.m)
        self._check(sparse_baseline.csrmv, X, y, profile=prof)
        self._check(sparse_baseline.csrmv, X, y, profile=prof, texture=True)
        self._check(sparse_baseline.csrmv_transpose, X, p, profile=prof)
        self._check(sparse_baseline.bidmat_spmv, X, y, profile=prof)
        self._check(sparse_baseline.bidmat_spmv_transpose, X, p,
                    profile=prof)
        a = sparse_baseline.csr2csc_kernel(X)
        b = sparse_baseline.csr2csc_kernel(X, profile=prof)
        assert_counters_equal(a.counters, b.counters, "csr2csc")

    def test_scalar_kernel(self, X, rng):
        prof = sparse_scalar.profile_csrmv_scalar(X)
        self._check(sparse_scalar.csrmv_scalar, X, rng.normal(size=X.n),
                    profile=prof)

    def test_multi_rhs(self, X, rng):
        prof = sparse_fused.profile_sparse_fused(X)
        Y = rng.normal(size=(X.n, 3))
        V = rng.normal(size=(X.m, 3))
        Z = rng.normal(size=(X.n, 3))
        self._check(sparse_multi.fused_pattern_multi, X, Y, V, Z, 1.2, 0.4,
                    profile=prof)

    def test_dense_fused(self, rng):
        Xd = rng.normal(size=(64, 50))
        prof = dense_fused.profile_dense_fused(Xd)
        y, v, z = (rng.normal(size=50), rng.normal(size=64),
                   rng.normal(size=50))
        self._check(dense_fused.fused_pattern_dense, Xd, y, v, z, 1.1, 0.6,
                    profile=prof)
        self._check(dense_fused.fused_xtxy_dense, Xd, y, profile=prof)

    def test_gemv_family(self, rng):
        Xd = rng.normal(size=(48, 33))
        prof = dense_baseline.profile_gemv(Xd)
        y, p = rng.normal(size=33), rng.normal(size=48)
        self._check(dense_baseline.gemv_n, Xd, y, profile=prof)
        self._check(dense_baseline.gemv_t, Xd, p, profile=prof)
        self._check(dense_baseline.bidmat_gemv_n, Xd, y, profile=prof)
        self._check(dense_baseline.bidmat_gemv_t, Xd, p, profile=prof)


# ------------------------------------------------ hypothesis: SpmvPlan bits
def same_bits(got, want):
    """Byte equality: unlike ``np.array_equal``, tells -0.0 from +0.0 and
    compares NaNs instead of failing on them."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


#: entries drawn for the edge-case matrices and vectors: signed zeros and
#: NaN besides ordinary numbers (a single NaN payload, and no infinities,
#: whose products could make NaNs of another sign)
EDGE_VALUES = st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 0.5, -2.25,
                               1e-200, -3e100])


@st.composite
def edge_csr(draw, max_m=24, max_n=16):
    """A CSR matrix with empty rows and columns likely, ``nnz == 0``
    possible, and stored values that include -0.0 and NaN."""
    m, n = draw(st.integers(0, max_m)), draw(st.integers(0, max_n))
    cells = draw(st.sets(st.tuples(st.integers(0, max(m - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=m * n // 2)) if m and n else set()
    cells = sorted(cells)
    values = [draw(EDGE_VALUES) for _ in cells]
    counts = np.bincount([r for r, _ in cells], minlength=m)
    row_off = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return CsrMatrix((m, n), np.array(values, dtype=np.float64),
                     np.array([c for _, c in cells], dtype=np.int64),
                     row_off)


def edge_vector(size):
    return st.lists(EDGE_VALUES, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np.float64))


def check_plan(plan, y, p, X=None):
    """Planned products against the plain functions, byte for byte."""
    ref = X if X is not None else plan.X
    assert same_bits(plan.spmv(y, X=X), spmv(ref, y))
    assert same_bits(plan.spmv_t(p, X=X), spmv_t(ref, p))


class TestSpmvPlanBitIdentity:
    """``SpmvPlan`` against the plain ``spmv``/``spmv_t`` (``np.repeat``
    and ``np.bincount``), which share none of its executor."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 120),
           n=st.integers(1, 60), density=st.floats(0.0, 0.5))
    def test_planned_spmv_bit_identical(self, seed, m, n, density):
        X = random_csr(m, n, density, rng=seed)
        plan = SpmvPlan(X)
        rng = np.random.default_rng(seed)
        check_plan(plan, rng.normal(size=n), rng.normal(size=m))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), X=edge_csr())
    def test_signed_zeros_nans_and_empty_structure(self, data, X):
        # empty rows and columns, nnz == 0, -0.0 and NaN in X and vectors;
        # a column whose terms are all -0.0 sums to +0.0 in both paths
        check_plan(SpmvPlan(X), data.draw(edge_vector(X.n)),
                   data.draw(edge_vector(X.m)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), X=edge_csr())
    def test_frozen_operand(self, data, X):
        # a pinned matrix's arrays are read-only; the plan reads them in
        # place and never writes them
        y, p = data.draw(edge_vector(X.n)), data.draw(edge_vector(X.m))
        engine = PatternEngine()
        engine.pin(X)
        assert not X.col_idx.flags.writeable
        check_plan(SpmvPlan(X), y, p)
        engine.unpin(X)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), X=edge_csr())
    def test_content_equal_operand(self, data, X):
        # a cached plan serves a content-equal matrix passed as X=, and
        # multiplies that matrix's arrays, not the building one's
        twin = CsrMatrix(X.shape, X.values.copy(), X.col_idx.copy(),
                         X.row_off.copy())
        plan = SpmvPlan(X)
        X.values *= 3.0
        check_plan(plan, data.draw(edge_vector(X.n)),
                   data.draw(edge_vector(X.m)), X=twin)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), density=st.floats(0.01, 0.4))
    def test_threads_share_one_plan(self, seed, density):
        X = random_csr(300, 80, density, rng=seed)
        plan = SpmvPlan(X)
        rng = np.random.default_rng(seed)
        ys = [rng.normal(size=X.n) for _ in range(32)]
        ps = [rng.normal(size=X.m) for _ in range(32)]
        want = [(spmv(X, y), spmv_t(X, p)) for y, p in zip(ys, ps)]

        def run(i):
            return plan.spmv(ys[i]), plan.spmv_t(ps[i])

        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(run, range(32)))
        for (g, g_t), (w, w_t) in zip(got, want):
            assert same_bits(g, w) and same_bits(g_t, w_t)

    def test_plan_scratch_reuse_stays_identical(self):
        X = random_csr(200, 50, 0.2, rng=3)
        plan = SpmvPlan(X)
        rng = np.random.default_rng(3)
        for _ in range(5):        # repeated calls on one plan stay exact
            y = rng.normal(size=X.n)
            assert np.array_equal(plan.spmv(y), spmv(X, y))
            p = rng.normal(size=X.m)
            assert np.array_equal(plan.spmv_t(p), spmv_t(X, p))

    def test_empty_and_degenerate(self):
        X = CsrMatrix.empty((4, 3))
        plan = SpmvPlan(X)
        assert np.array_equal(plan.spmv(np.ones(3)), np.zeros(4))
        assert np.array_equal(plan.spmv_t(np.ones(4)), np.zeros(3))


@pytest.mark.parametrize("chunk", range(8))
def test_fused_kernel_matches_reference_sweep(chunk):
    """The 200 parity patterns (dense ones in CSR form) through the fused
    kernel, cold and pinned-warm on an engine: output bytes equal
    ``fused_pattern_reference``, which runs the plain SpMV functions."""
    rng = np.random.default_rng(7000 + chunk)
    engine = PatternEngine()
    for case in range(PATTERNS_PER_CHUNK):
        X, y, v, z, alpha, beta, _ = _random_case(rng)
        if not isinstance(X, CsrMatrix):
            X = CsrMatrix.from_dense(X)
        want = fused_pattern_reference(X, y, v, z, alpha, beta)
        context = f"chunk={chunk} case={case}"
        got = sparse_fused.fused_pattern_sparse(X, y, v, z, alpha, beta)
        assert same_bits(got.output, want), context
        engine.pin(X)
        for _ in range(2):
            got = engine.evaluate(X, y, v=v, z=z, alpha=alpha, beta=beta,
                                  strategy="fused")
            assert got.name.startswith("fused.pattern_sparse"), context
            assert same_bits(got.output, want), context
        engine.unpin(X)


# -------------------------------------------- invalidation: no stale profile
class TestProfileInvalidation:
    def test_mutation_rebuilds_profile(self):
        engine = PatternEngine()
        X = random_csr(120, 30, 0.2, rng=11)
        rng = np.random.default_rng(11)
        y = rng.normal(size=X.n)
        engine.evaluate(X, y, strategy="fused")
        built_before = engine.stats().profiles_built
        assert built_before > 0
        X.values[0] *= 3.0                     # in-place mutation
        res = engine.evaluate(X, y, strategy="fused")
        ref = evaluate_uncached(X, y, strategy="fused")
        assert np.array_equal(res.output, ref.output)
        assert_counters_equal(res.counters, ref.counters, "post-mutation")
        assert engine.stats().profiles_built > built_before

    def test_column_counts_cache_is_readonly(self):
        X = random_csr(50, 20, 0.3, rng=1)
        counts = X.column_counts()
        assert counts is X.column_counts()     # cached
        with pytest.raises(ValueError):
            counts[0] = 99                      # shared: must be immutable

    @pytest.mark.parametrize("strategy", ["fused", "cusparse-explicit"])
    def test_mutation_between_served_batches(self, strategy):
        """In-place mutation between server batches drops the cached
        profile: the post-mutation batch must be bit-identical to a cold
        engine, and the serving engine must rebuild (content fingerprints
        make stale artifacts unreachable, not merely unlikely)."""
        from repro.serve import PatternServer, ServeRequest, ServerConfig

        X = random_csr(140, 24, 0.2, rng=21)
        rng = np.random.default_rng(21)
        ys = [rng.normal(size=X.n) for _ in range(4)]

        with PatternServer(config=ServerConfig(max_batch=4)) as server:
            warmup = [server.evaluate(ServeRequest(X, y, strategy=strategy))
                      for y in ys]
            assert all(r.ok for r in warmup)
            built_before = server.engine.snapshot().profiles_built

            X.values *= 1.5                    # in-place content mutation
            served = [server.evaluate(ServeRequest(X, y, strategy=strategy))
                      for y in ys]
            stats = server.engine.snapshot()

        cold = PatternEngine()
        for y, resp in zip(ys, served):
            assert resp.ok
            ref = cold.evaluate(X, y, strategy=strategy)
            assert np.array_equal(resp.result.output, ref.output)
        # the serving engine really rebuilt rather than serving stale bits
        assert stats.profiles_built > built_before
