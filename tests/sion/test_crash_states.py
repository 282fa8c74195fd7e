"""Every state a crash can leave, cut from one recorded write cycle.

The paper's recovery promise (§6): a job that dies before the collective
close loses only what was not shadow-flushed.  The cycle below is
recorded once through the call journal (:mod:`repro.backends.journal`);
:func:`~repro.backends.journal.crash_states` cuts each prefix of its rows
and each multi-fragment write torn at each fragment boundary, in list
order and in offset order, and each state is replayed onto a fresh store.
There, after ``recover_multifile``, three readers — the serial
``read_task``, a ``paropen`` read and ``sionverify --deep`` — must give
every task a prefix of what it wrote, no shorter than its last *durable
point* wholly inside the state, or raise a ``repro.errors`` type.

A durable point comes from the schedule, not from the library: in
direct mode, the rows of the task's own ``flush_shadow``; in collective
mode, its collector's wave write; and everything, once every metablock-2
write is in.  The bound is a lower bound: a block-boundary shadow flush
legitimately makes more durable.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.journal import Journal, crash_states, replay
from repro.errors import ReproError
from repro.sion import buddy_path, paropen, recover_multifile, serial
from repro.sion.constants import MAGIC_MB2
from repro.sion.mapping import physical_path
from repro.simmpi import run_spmd
from repro.utils.verify import verify_multifile
from tests.conftest import fresh_sim

PATH = "/scratch/crash.sion"
NFILES = 2
ROUNDS, PIECE = 3, 200  # three times: fwrite 200 B, then flush_shadow

CONFIGS = {
    "direct": {"collectsize": None, "buddy": False},
    "direct-buddy": {"collectsize": None, "buddy": True},
    "collective": {"collectsize": 2, "buddy": False},
    "collective-buddy": {"collectsize": 2, "buddy": True},
}


def _written(rank: int) -> bytes:
    return bytes((rank * 29 + i) % 251 for i in range(ROUNDS * PIECE))


def _program(comm, journal, marks, collectsize, buddy):
    f = paropen(PATH, "w", comm, chunksize=256, fsblksize=128, nfiles=NFILES,
                shadow=True, buddy=buddy, collectsize=collectsize,
                backend=journal.for_rank(comm.rank))
    data = _written(comm.rank)
    for m in range(ROUNDS):
        f.fwrite(data[m * PIECE:(m + 1) * PIECE])
        f.flush_shadow()
        if collectsize is not None:
            f.flush_collective()
        if collectsize is None or f.is_collector:
            # The rows so far hold this round's durable point: the task's
            # own flush (direct) or the collector's wave (collective).
            # Logged once, however often the bulk engine replays.
            comm.exec_once(lambda: marks.append((comm.rank, m, len(journal.rows))))
    f.parclose()


class Cycle(NamedTuple):
    """One recorded cycle and the durable points of its schedule."""

    ntasks: int
    rows: list
    #: task -> [(rows that must be whole, bytes durable once they are)]
    points: dict
    #: rows that must be whole for everything to be durable
    sealed: int
    #: rows that must be whole for every file of the set to exist
    created: int


@functools.lru_cache(maxsize=None)
def record(config: str, ntasks: int = 4) -> Cycle:
    """Record ``config``'s cycle once; the schedule's durable points."""
    opts = CONFIGS[config]
    journal = Journal(fresh_sim())
    marks: list = []
    run_spmd(ntasks, _program, journal, marks, opts["collectsize"], opts["buddy"],
             engine="bulk")
    at = {(rank, m): n for rank, m, n in marks}
    per_file = -(-ntasks // NFILES)
    points = {}
    for t in range(ntasks):
        # Blocked mapping: a task's collector is the first of its pair
        # within its file.
        owner = t if opts["collectsize"] is None else (
            t - (t % per_file) % opts["collectsize"]
        )
        points[t] = [(at[owner, m], (m + 1) * PIECE) for m in range(ROUNDS)]
    mb2 = [
        r.seq for r in journal.rows
        if r.op == "pwrite" and bytes(r.payload[0][:len(MAGIC_MB2)]) == MAGIC_MB2
    ]
    assert len(mb2) == NFILES * (2 if opts["buddy"] else 1)
    # A file exists once its creating open wrote metablock 1.
    mb1 = [
        min(r.seq for r in journal.rows if r.path == physical_path(PATH, k) and r.op == "pwrite")
        for k in range(NFILES)
    ]
    return Cycle(ntasks, list(journal.rows), points, max(mb2) + 1, max(mb1) + 1)


def _bounds(cycle: Cycle, whole: int) -> list[int]:
    """Per task, the bytes durable in a state whose first ``whole`` rows
    are whole."""
    if whole >= cycle.sealed:
        return [ROUNDS * PIECE] * cycle.ntasks
    return [
        max([n for need, n in cycle.points[t] if need <= whole], default=0)
        for t in range(cycle.ntasks)
    ]


def _whole(label: str) -> int:
    """Rows wholly inside state ``label`` (a tear's row is not)."""
    return int(label[label.index("[") + 1:].split(":")[0].rstrip("]"))


def _paropen_read(comm, backend):
    f = paropen(PATH, "r", comm, backend=backend)
    data = f.read_all()
    f.parclose()
    return data


def _readers(backend, ntasks: int) -> dict:
    """What each reader says: per-task bytes, or the error type it raised."""
    out: dict = {}
    try:
        with serial.open(PATH, "r", backend=backend) as sf:
            out["serial"] = [sf.read_task(t) for t in range(ntasks)]
    except ReproError as exc:
        out["serial"] = type(exc)
    try:
        out["paropen"] = run_spmd(ntasks, _paropen_read, backend, engine="bulk")
    except ReproError as exc:
        out["paropen"] = type(exc)
    out["verify"] = verify_multifile(PATH, backend=backend, deep=True).ok
    return out


def check_state(cycle: Cycle, label: str, rows, lose: tuple = ()) -> str:
    """Replay one state, recover, read; the outcome's name, or a failure."""
    backend = fresh_sim()
    replay(rows, backend)
    for path in lose:
        if backend.exists(path):
            backend.unlink(path)
    whole = _whole(label)
    bounds = _bounds(cycle, whole)
    try:
        recover_multifile(PATH, backend=backend)
    except ReproError:
        pass  # a typed refusal; the readers must refuse alike
    said = _readers(backend, cycle.ntasks)
    outcome = "typed"
    for reader in ("serial", "paropen"):
        got = said[reader]
        if isinstance(got, type):
            continue
        assert said["verify"], f"{label}: {reader} read a set sionverify rejects"
        for t, data in enumerate(got):
            want = _written(t)
            assert want.startswith(data), f"{label}: {reader} task {t} read wrong bytes"
            assert len(data) >= bounds[t], (
                f"{label}: {reader} task {t} read {len(data)} B, {bounds[t]} B were durable"
            )
        outcome = "exact" if [len(d) for d in got] == bounds else "longer"
    if outcome == "typed":
        assert not said["verify"], f"{label}: sionverify accepts a set no reader opens"
        # Only a set missing a file may be refused (no file can be
        # rebuilt before its creation is on the store).
        assert lose or whole < cycle.created or not any(bounds), (
            f"{label}: durable bytes {bounds} refused"
        )
    return outcome


def sweep(config: str, ntasks: int = 4) -> Counter:
    """Check every crash state of ``config``'s cycle; outcomes by kind."""
    cycle = record(config, ntasks)
    tally: Counter = Counter()
    for label, rows in crash_states(cycle.rows):
        kind = "prefix" if label.startswith("prefix") else "tear:" + label.split(":")[1]
        tally[kind, check_state(cycle, label, rows)] += 1
    return tally


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_crash_state_reads_a_durable_prefix(config):
    tally = sweep(config)
    # Every prefix and both tear orders were cut.
    assert {kind for kind, _ in tally} == {"prefix", "tear:list", "tear:offset"}


@pytest.mark.parametrize("config", ["direct-buddy", "collective-buddy"])
def test_losing_both_members_of_a_buddy_pair_is_refused_or_exact(config):
    """File 1 and the replica that backs it are both unlinked."""
    cycle = record(config)
    lose = (physical_path(PATH, 1), buddy_path(PATH, 1, NFILES))
    for label, rows in crash_states(cycle.rows):
        if label.startswith("prefix"):
            assert check_state(cycle, label, rows, lose) == "typed", label


@settings(max_examples=25, deadline=None)
@given(config=st.sampled_from(sorted(CONFIGS)), pick=st.randoms(use_true_random=False))
def test_sampled_crash_states_of_a_wide_cycle(config, pick):
    """A 64-task cycle: states drawn from every prefix and both tear orders."""
    cycle = record(config, 64)
    states = list(crash_states(cycle.rows))
    label, rows = states[pick.randrange(len(states))]
    check_state(cycle, label, rows)
