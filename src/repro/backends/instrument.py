"""Call counts at the ``RawFile`` boundary, folded from the call journal.

:class:`CountingBackend` is a :class:`~repro.backends.journal.Journal`
whose :meth:`~CountingBackend.snapshot` folds the rows into what the SION
layer asked the store to do:

* **backend calls** per method (``pwrite``, ``scatter_write``,
  ``gather_read``, …) — proving that a chunk-spanning ``fwrite`` of N
  fragments crosses the boundary *once* (one ``scatter_write``), not N
  times;
* **fragments** — individual payload buffers carried by those calls;
* **copies** — fragments whose memory is *not* part of a tracked source
  payload.  :meth:`~repro.backends.journal.Journal.track_source`
  registers the application buffer about to be written; every arriving
  fragment is attributed at call time by walking
  ``memoryview(...).obj`` back to its exporting object (slices, casts,
  and re-wraps all preserve it), so a fragment that still lives inside
  the caller's buffer counts as zero-copy and anything that was
  materialized on the way down counts as a copy.

Counts aggregate across threads (one shared row list) and across the
process engine's rank processes (their rows join the parent's journal).
"""

from __future__ import annotations

from repro.backends.journal import READ_OPS, WRITE_OPS, Journal


class CountingBackend(Journal):
    """A journal read as counters; its rows keep no payloads."""

    _keeps_payloads = False

    def calls(self) -> dict[str, int]:
        """Rows per call name (``open`` included)."""
        out: dict[str, int] = {}
        for row in list(self.rows):
            out[row.op] = out.get(row.op, 0) + 1
        return out

    def snapshot(self) -> dict[str, int]:
        """Plain-dict summary (for metrics and assertions).

        ``seeks`` is 0 by construction — the protocol has no file
        pointer — and stays in the summary for the metrics built on it.
        """
        out = dict.fromkeys(
            ("data_write_calls", "data_read_calls", "seeks", "opens",
             "fragments_written", "fragments_read", "tracked_fragments",
             "copied_fragments", "bytes_written", "bytes_read"),
            0,
        )
        for row in list(self.rows):
            if row.op in WRITE_OPS:
                out["data_write_calls"] += 1
                out["fragments_written"] += len(row.sizes)
                out["bytes_written"] += sum(row.sizes)
                if row.copied is not None:
                    out["tracked_fragments"] += len(row.sizes)
                    out["copied_fragments"] += row.copied
            elif row.op in READ_OPS:
                out["data_read_calls"] += 1
                out["fragments_read"] += len(row.sizes)
                out["bytes_read"] += sum(row.sizes)
            elif row.op == "open":
                out["opens"] += 1
        return out
