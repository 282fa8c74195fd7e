"""Scalasca-like tracing toolchain: events, tracer, workload, analyzer."""

import pytest

from repro.apps.scalasca.analyzer import analyze_local, analyze_traces
from repro.apps.scalasca.events import (
    Event,
    EventKind,
    RECORD_BYTES,
    decode_events,
    encode_events,
)
from repro.apps.scalasca.smg2000 import (
    SMG2000Config,
    generate_smg2000_trace,
    is_imbalanced,
    neighbours,
)
from repro.apps.scalasca.tracer import TraceExperiment, Tracer, read_trace
from repro.errors import ReproError, SionUsageError
from repro.simmpi import run_spmd


class TestEvents:
    def test_record_roundtrip(self):
        e = Event(EventKind.SEND, ref=7, tag=3, nbytes=4096, timestamp=1.25)
        assert Event.decode(e.encode()) == e

    def test_stream_roundtrip(self):
        events = [
            Event(EventKind.ENTER, 1, timestamp=0.0),
            Event(EventKind.SEND, 2, tag=9, nbytes=100, timestamp=0.5),
            Event(EventKind.RECV, 2, tag=9, nbytes=100, timestamp=0.75),
            Event(EventKind.EXIT, 1, timestamp=1.0),
        ]
        raw = encode_events(events)
        assert len(raw) == 4 * RECORD_BYTES
        assert decode_events(raw) == events

    def test_bad_lengths_rejected(self):
        with pytest.raises(ReproError):
            Event.decode(b"short")
        with pytest.raises(ReproError):
            decode_events(b"\0" * (RECORD_BYTES + 1))

    def test_unknown_kind_rejected(self):
        raw = bytearray(Event(EventKind.ENTER, 0).encode())
        raw[0] = 99
        with pytest.raises(ReproError):
            Event.decode(bytes(raw))


class TestTracer:
    def test_clock_and_events(self):
        t = Tracer(0)
        t.enter(1)
        t.advance(0.5)
        t.send(3, tag=1, nbytes=64)
        t.advance(0.25)
        t.exit(1)
        assert t.now == 0.75
        kinds = [e.kind for e in t.events]
        assert kinds == [EventKind.ENTER, EventKind.SEND, EventKind.EXIT]
        assert t.events[1].timestamp == 0.5

    def test_clock_cannot_reverse(self):
        t = Tracer(0)
        with pytest.raises(SionUsageError):
            t.advance(-1.0)

    def test_buffer_capacity_drops_excess(self):
        t = Tracer(0, capacity=3 * RECORD_BYTES)
        for i in range(5):
            t.enter(i)
        assert len(t.events) == 3
        assert t.dropped == 2

    def test_buffer_bytes_decode(self):
        t = Tracer(0)
        t.enter(4)
        t.exit(4)
        assert decode_events(t.buffer_bytes()) == t.events


class TestSMG2000:
    def test_neighbours_on_cube(self):
        grid = (2, 2, 2)
        n = neighbours(0, grid)
        assert n == sorted(set(n))
        assert 0 not in n
        assert all(0 <= x < 8 for x in n)

    def test_neighbours_degenerate_grid(self):
        assert neighbours(0, (1, 1, 1)) == []
        assert neighbours(0, (2, 1, 1)) == [1]

    def test_imbalanced_set_deterministic(self):
        cfg = SMG2000Config(ntasks=16, imbalance=0.5, seed=3)
        marks = [is_imbalanced(r, cfg) for r in range(16)]
        assert marks == [is_imbalanced(r, cfg) for r in range(16)]
        assert any(marks) and not all(marks)

    def test_no_imbalance_means_no_marks(self):
        cfg = SMG2000Config(ntasks=8, imbalance=0.0)
        assert not any(is_imbalanced(r, cfg) for r in range(8))

    def test_trace_shape(self):
        cfg = SMG2000Config(ntasks=8, iterations=2, levels=2)
        t = Tracer(0)
        generate_smg2000_trace(0, cfg, t)
        kinds = [e.kind for e in t.events]
        assert kinds.count(EventKind.ENTER) == kinds.count(EventKind.EXIT)
        nbrs = len(neighbours(0, (2, 2, 2)))
        assert kinds.count(EventKind.SEND) == 2 * 2 * nbrs
        assert kinds.count(EventKind.RECV) == 2 * 2 * nbrs

    def test_timestamps_nondecreasing(self):
        cfg = SMG2000Config(ntasks=8, iterations=3, imbalance=0.4)
        t = Tracer(2)
        generate_smg2000_trace(2, cfg, t)
        ts = [e.timestamp for e in t.events]
        assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))

    def test_config_validation(self):
        with pytest.raises(ReproError):
            SMG2000Config(ntasks=0)
        with pytest.raises(ReproError):
            SMG2000Config(ntasks=1, imbalance=-1)
        with pytest.raises(ReproError):
            SMG2000Config(ntasks=1, imbalanced_fraction=2.0)


@pytest.mark.parametrize("method", ["sion", "tasklocal"])
class TestTraceExperiment:
    def test_write_then_read_back(self, any_backend, method):
        backend, base = any_backend
        path = f"{base}/exp_{method}"
        cfg = SMG2000Config(ntasks=4, iterations=2)

        def task(comm):
            exp = TraceExperiment(comm, path, method=method, backend=backend)
            exp.activate()
            generate_smg2000_trace(comm.rank, cfg, exp.tracer)
            stats = exp.finalize()
            return exp.tracer.events, stats

        out = run_spmd(4, task)
        for rank, (events, stats) in enumerate(out):
            assert stats.uncompressed_bytes == len(events) * RECORD_BYTES
            assert stats.written_bytes < stats.uncompressed_bytes  # traces compress well
            assert read_trace(path, rank, method=method, backend=backend) == events

    def test_lifecycle_enforced(self, any_backend, method):
        backend, base = any_backend
        path = f"{base}/life_{method}"

        def task(comm):
            exp = TraceExperiment(comm, path, method=method, backend=backend)
            caught = []
            try:
                exp.finalize()
            except SionUsageError:
                caught.append("finalize-before-activate")
            exp.activate()
            try:
                exp.activate()
            except SionUsageError:
                caught.append("double-activate")
            exp.finalize()
            try:
                exp.finalize()
            except SionUsageError:
                caught.append("double-finalize")
            return caught

        out = run_spmd(2, task)
        assert all(
            c == ["finalize-before-activate", "double-activate", "double-finalize"]
            for c in out
        )


class TestAnalyzer:
    def _run_pipeline(self, backend, base, ntasks, imbalance, method="sion"):
        cfg = SMG2000Config(ntasks=ntasks, iterations=3, imbalance=imbalance)
        path = f"{base}/ana_{method}_{imbalance}"

        def task(comm):
            exp = TraceExperiment(comm, path, method=method, backend=backend,
                                  nfiles=2 if method == "sion" else 1)
            exp.activate()
            generate_smg2000_trace(comm.rank, cfg, exp.tracer)
            exp.finalize()
            return analyze_traces(comm, path, method=method, backend=backend)

        return run_spmd(ntasks, task)

    def test_balanced_run_has_no_wait_states(self, any_backend):
        backend, base = any_backend
        results = self._run_pipeline(backend, base, 8, imbalance=0.0)
        assert results[0].total_wait_time == pytest.approx(0.0, abs=1e-12)
        assert results[0].n_wait_states == 0

    def test_imbalance_produces_late_senders(self, any_backend):
        backend, base = any_backend
        results = self._run_pipeline(backend, base, 8, imbalance=0.6)
        r = results[0]
        assert r.total_wait_time > 0
        assert r.n_wait_states > 0
        assert r.max_wait_time >= max(w.wait_time for w in r.worst_states) - 1e-12
        # Wait states blame imbalanced senders.
        cfg = SMG2000Config(ntasks=8, iterations=3, imbalance=0.6)
        assert all(is_imbalanced(w.sender, cfg) for w in r.worst_states)

    def test_result_identical_on_all_ranks(self, any_backend):
        backend, base = any_backend
        results = self._run_pipeline(backend, base, 4, imbalance=0.5)
        assert all(r.total_wait_time == results[0].total_wait_time for r in results)
        assert all(r.wait_per_task == results[0].wait_per_task for r in results)

    def test_more_imbalance_more_waiting(self, any_backend):
        backend, base = any_backend
        mild = self._run_pipeline(backend, base, 8, imbalance=0.2)[0]
        severe = self._run_pipeline(backend, base, 8, imbalance=0.9)[0]
        assert severe.total_wait_time > mild.total_wait_time

    def test_tasklocal_traces_analyzable_too(self, any_backend):
        backend, base = any_backend
        results = self._run_pipeline(backend, base, 4, imbalance=0.5,
                                     method="tasklocal")
        assert results[0].total_wait_time > 0

    def test_analyze_local_detects_missing_sends(self):
        events = [Event(EventKind.RECV, ref=1, tag=0, timestamp=1.0)]
        with pytest.raises(ReproError, match="matching sends"):
            analyze_local(0, events, {})

    def test_analyze_local_detects_tag_mismatch(self):
        events = [Event(EventKind.RECV, ref=1, tag=0, timestamp=1.0)]
        with pytest.raises(ReproError, match="tag mismatch"):
            analyze_local(0, events, {1: [(9, 0.5)]})
