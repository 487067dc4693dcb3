"""One matrix identity per served request.

``PatternEngine.fingerprint`` is the one place a serving path computes a
matrix's identity: admission takes it once (from the pin memo when the
matrix is pinned), the ticket's ``PatternRequest`` carries it into
``evaluate_many``, and evaluation does not hash again.  A cluster worker
pins each matrix it unpickles from an upload frame and checks it against
the router's fingerprint, so its evaluations hash nothing.

Hashes are counted by wrapping ``fingerprint_matrix`` in every module that
calls it on these paths.  Every served output must stay bit-identical to
uncached ``repro.core.api.evaluate``.
"""

import socket
import threading

import numpy as np
import pytest

import repro.core.engine as core_engine
import repro.serve.request as serve_request
from repro.cluster import WorkerConfig, WorkerHost
from repro.cluster.protocol import (CODE_UNKNOWN_FINGERPRINT, OP_DRAIN,
                                    OP_EVAL, OP_OK, OP_RESULT, OP_UPLOAD,
                                    recv_msg, send_msg)
from repro.core.api import evaluate as evaluate_uncached
from repro.core.engine import PatternEngine, fingerprint_matrix
from repro.serve import PatternServer, ServeRequest, ServerConfig
from repro.sparse import CsrMatrix, random_csr


class HashCounter:
    def __init__(self):
        self.calls = 0

    def reset(self) -> None:
        self.calls = 0


@pytest.fixture
def hashes(monkeypatch):
    """Count every content hash the engine and admission make."""
    counter = HashCounter()
    real = core_engine.fingerprint_matrix

    def counting(X):
        counter.calls += 1
        return real(X)

    monkeypatch.setattr(core_engine, "fingerprint_matrix", counting)
    monkeypatch.setattr(serve_request, "fingerprint_matrix", counting)
    return counter


def _vectors(n: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(count)]


def _copy(X: CsrMatrix) -> CsrMatrix:
    return CsrMatrix(X.shape, X.values.copy(), X.col_idx.copy(),
                     X.row_off.copy())


# ------------------------------------------------------------------- serve
class TestServedHashCount:
    def test_unpinned_request_hashes_once(self, hashes):
        X = random_csr(120, 30, 0.2, rng=1)
        ys = _vectors(X.n, 6, 1)
        with PatternServer(config=ServerConfig(max_batch=4)) as server:
            for y in ys:
                hashes.reset()
                resp = server.evaluate(ServeRequest(X, y, z=y, beta=0.5))
                assert resp.ok
                assert hashes.calls == 1
                ref = evaluate_uncached(X, y, z=y, beta=0.5)
                assert np.array_equal(resp.result.output, ref.output)
                assert resp.fingerprint == fingerprint_matrix(X)

    def test_pinned_request_hashes_zero_times(self, hashes):
        X = random_csr(120, 30, 0.2, rng=2)
        ys = _vectors(X.n, 6, 2)
        engine = PatternEngine()
        engine.pin(X)
        hashes.reset()
        with PatternServer(engine, ServerConfig(max_batch=4)) as server:
            resps = [server.evaluate(ServeRequest(X, y, strategy=s))
                     for y in ys for s in ("fused", "cusparse")]
        assert hashes.calls == 0
        assert all(r.ok for r in resps)
        for r, (y, s) in zip(resps, [(y, s) for y in ys
                                     for s in ("fused", "cusparse")]):
            ref = evaluate_uncached(X, y, strategy=s)
            assert np.array_equal(r.result.output, ref.output)

    def test_carried_fingerprint_skips_the_engine_hash(self, hashes):
        X = random_csr(80, 20, 0.2, rng=3)
        y = _vectors(X.n, 1, 3)[0]
        engine = PatternEngine()
        fp = engine.fingerprint(X)
        hashes.reset()
        out = engine.evaluate_many(
            [core_engine.PatternRequest(X, y, fingerprint=fp)])
        assert hashes.calls == 0
        assert np.array_equal(out[0].result.output,
                              evaluate_uncached(X, y).output)

    def test_group_key_is_gone_but_the_hash_name_stays(self):
        assert not hasattr(ServeRequest, "group_key")
        assert serve_request.fingerprint_matrix is fingerprint_matrix


# ------------------------------------------ cluster worker (in-process)
class _Link:
    """A ``WorkerHost`` served over one end of a socketpair."""

    def __init__(self):
        self.host = WorkerHost(WorkerConfig(max_batch=4,
                                            batch_linger_ms=0.5))
        self.sock, theirs = socket.socketpair()
        self.thread = threading.Thread(
            target=self.host.handle_connection, args=(theirs,),
            daemon=True)
        self.thread.start()
        self._rid = 0

    def call(self, msg: dict) -> dict:
        self._rid += 1
        send_msg(self.sock, dict(msg, rid=self._rid))
        reply = recv_msg(self.sock)
        assert reply["rid"] == self._rid
        return reply

    def close(self) -> None:
        assert self.call({"op": OP_DRAIN})["drained"]
        self.thread.join(timeout=10.0)
        self.sock.close()
        assert not self.thread.is_alive()


@pytest.fixture
def link():
    lk = _Link()
    try:
        yield lk
    finally:
        lk.close()


class TestWorkerHashCount:
    def test_upload_hashes_once_and_evals_never(self, hashes, link):
        X = random_csr(150, 32, 0.15, rng=4)
        fp = fingerprint_matrix(X)
        hashes.reset()
        assert link.call({"op": OP_UPLOAD, "fingerprint": fp,
                          "matrix": X})["op"] == OP_OK
        assert hashes.calls == 1
        ys = _vectors(X.n, 8, 4)
        for y in ys:
            reply = link.call({"op": OP_EVAL, "fingerprint": fp, "y": y,
                               "z": y, "beta": 0.25, "strategy": "fused"})
            assert reply["op"] == OP_RESULT and reply["status"] == "ok"
            ref = evaluate_uncached(X, y, z=y, beta=0.25, strategy="fused")
            assert np.array_equal(reply["result"].output, ref.output)
            assert reply["fingerprint"] == fp
        assert hashes.calls == 1
        assert link.host.cached_matrices == 1

    def test_forged_upload_is_refused_and_not_cached(self, link):
        X = random_csr(60, 16, 0.2, rng=5)
        forged = fingerprint_matrix(random_csr(60, 16, 0.2, rng=6))
        reply = link.call({"op": OP_UPLOAD, "fingerprint": forged,
                           "matrix": X})
        assert reply["op"] == OP_RESULT and reply["status"] == "error"
        assert forged in reply["reason"]
        assert link.host.cached_matrices == 0
        reply = link.call({"op": OP_EVAL, "fingerprint": forged,
                           "y": np.ones(X.n)})
        assert reply["status"] == "error"
        assert reply["code"] == CODE_UNKNOWN_FINGERPRINT

    def test_re_upload_replaces_and_unpins_the_old_copy(self, link):
        # a dense pin holds its matrix strongly, so only the unpin on
        # replacement lets the first copy go
        X = np.random.default_rng(7).normal(size=(40, 8))
        fp = fingerprint_matrix(X)
        for _ in range(2):
            assert link.call({"op": OP_UPLOAD, "fingerprint": fp,
                              "matrix": X})["op"] == OP_OK
        engine = link.host.engine
        assert link.host.cached_matrices == 1
        assert engine.is_pinned(link.host.lookup_matrix(fp))
        assert len(engine._pinned) == 1


# ---------------------------------- a cached plan, a content-equal matrix
@pytest.mark.parametrize("strategy", ["fused", "cusparse", "auto"])
class TestContentEqualMatrices:
    """A cached ``SpmvPlan`` is keyed by content, so a content-equal
    matrix may reuse it: it must multiply its own values, not those of
    the matrix that built the plan."""

    def test_engine_uses_the_callers_values(self, strategy):
        engine = PatternEngine()
        A = random_csr(200, 40, 0.1, rng=8)
        B = _copy(A)
        y = _vectors(A.n, 1, 8)[0]
        engine.evaluate(A, y, strategy=strategy)
        A.values *= 3.0                   # in place, without invalidate
        got = engine.evaluate(B, y, strategy=strategy)
        ref = evaluate_uncached(B, y, strategy=strategy)
        assert np.array_equal(got.output, ref.output)

    def test_dense_matrix_uses_the_callers_values(self, strategy):
        engine = PatternEngine()
        A = np.random.default_rng(10).normal(size=(64, 32))
        B = A.copy()
        y = _vectors(A.shape[1], 1, 10)[0]
        engine.evaluate(A, y, strategy=strategy)
        A *= 3.0
        got = engine.evaluate(B, y, strategy=strategy)
        ref = evaluate_uncached(B, y, strategy=strategy)
        assert np.array_equal(got.output, ref.output)

    def test_server_uses_the_callers_values(self, strategy):
        A = random_csr(200, 40, 0.1, rng=9)
        B = _copy(A)
        y = _vectors(A.n, 1, 9)[0]
        with PatternServer(config=ServerConfig(max_batch=4)) as server:
            assert server.evaluate(ServeRequest(A, y,
                                                strategy=strategy)).ok
            A.values += 1.0
            resp = server.evaluate(ServeRequest(B, y, strategy=strategy))
        assert resp.ok
        ref = evaluate_uncached(B, y, strategy=strategy)
        assert np.array_equal(resp.result.output, ref.output)
