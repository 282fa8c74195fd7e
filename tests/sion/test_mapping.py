"""Task-to-file mappings: bijectivity, ordering, reconstruction, cost."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SionUsageError
from repro.sion.constants import MAPPING_BLOCKED, MAPPING_CUSTOM, MAPPING_ROUNDROBIN
from repro.sion.mapping import TaskMapping, physical_path


class TestBlocked:
    def test_even_split(self):
        m = TaskMapping.blocked(6, 2)
        assert [m.file_of(r) for r in range(6)] == [0, 0, 0, 1, 1, 1]
        assert [m.local_rank(r) for r in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_uneven_split_front_loaded(self):
        m = TaskMapping.blocked(7, 3)
        sizes = [m.ntasks_of_file(f) for f in range(3)]
        assert sizes == [3, 2, 2]

    def test_tasks_of_file_ordered_by_local_rank(self):
        m = TaskMapping.blocked(8, 2)
        assert m.tasks_of_file(0).tolist() == [0, 1, 2, 3]
        assert m.tasks_of_file(1).tolist() == [4, 5, 6, 7]


    @pytest.mark.parametrize("kind", ["blocked", "roundrobin"])
    def test_every_files_members_cost_that_files_tasks(self, kind):
        # The loader asks each file for its members: over 1024 files of a
        # 2^20-task set that must be O(ntasks) in all, not O(nfiles x ntasks).
        m = TaskMapping.create(2**20, 1024, kind)
        t0 = time.perf_counter()
        sizes = [len(m.tasks_of_file(f)) for f in range(1024)]
        elapsed = time.perf_counter() - t0
        assert sizes == [1024] * 1024 == [m.ntasks_of_file(f) for f in range(1024)]
        assert elapsed < 0.25, f"{elapsed:.3f} s for every file's members"


class TestRoundRobin:
    def test_interleaves(self):
        m = TaskMapping.roundrobin(6, 2)
        assert [m.file_of(r) for r in range(6)] == [0, 1, 0, 1, 0, 1]
        assert m.tasks_of_file(0).tolist() == [0, 2, 4]

    def test_local_ranks_sequential_per_file(self):
        m = TaskMapping.roundrobin(7, 3)
        for f in range(3):
            members = m.tasks_of_file(f)
            assert [m.local_rank(r) for r in members] == list(range(len(members)))


class TestCustom:
    def test_explicit_assignment(self):
        m = TaskMapping.custom([1, 0, 1, 0])
        assert m.nfiles == 2
        assert m.tasks_of_file(0).tolist() == [1, 3]
        assert m.tasks_of_file(1).tolist() == [0, 2]

    def test_empty_file_rejected(self):
        with pytest.raises(SionUsageError, match="empty"):
            TaskMapping.custom([0, 0, 2])

    def test_negative_rejected(self):
        with pytest.raises(SionUsageError):
            TaskMapping.custom([-1, 0])

    def test_no_tasks_rejected(self):
        with pytest.raises(SionUsageError):
            TaskMapping.custom([])


class TestFactory:
    def test_by_name(self):
        assert TaskMapping.create(4, 2, "blocked").kind == MAPPING_BLOCKED
        assert TaskMapping.create(4, 2, "roundrobin").kind == MAPPING_ROUNDROBIN

    def test_by_list(self):
        m = TaskMapping.create(4, 2, [0, 0, 1, 1])
        assert m.kind == MAPPING_CUSTOM

    def test_list_shape_mismatch(self):
        with pytest.raises(SionUsageError):
            TaskMapping.create(4, 3, [0, 0, 1, 1])

    def test_unknown_name(self):
        with pytest.raises(SionUsageError):
            TaskMapping.create(4, 2, "hashed")

    def test_more_files_than_tasks_rejected(self):
        with pytest.raises(SionUsageError):
            TaskMapping.blocked(2, 3)

    def test_zero_counts_rejected(self):
        with pytest.raises(SionUsageError):
            TaskMapping.blocked(0, 1)
        with pytest.raises(SionUsageError):
            TaskMapping.blocked(1, 0)


class TestReconstruction:
    def test_standard_kinds_need_no_table(self):
        for ctor, code in (
            (TaskMapping.blocked, MAPPING_BLOCKED),
            (TaskMapping.roundrobin, MAPPING_ROUNDROBIN),
        ):
            m = ctor(10, 3)
            back = TaskMapping.from_kind_code(10, 3, code)
            assert back == m

    def test_custom_requires_table(self):
        m = TaskMapping.custom([0, 1, 0])
        back = TaskMapping.from_kind_code(3, 2, MAPPING_CUSTOM, m.pairs())
        assert back == m
        with pytest.raises(SionUsageError):
            TaskMapping.from_kind_code(3, 2, MAPPING_CUSTOM)

    @pytest.mark.parametrize(
        "table, message",
        [
            ([(0, 1), (1, 0), (0, 0)], "task 0 has local rank 1 in file 0, expected 0"),
            ([(0, 0), (1, 0), (0, 7)], "task 2 has local rank 7 in file 0, expected 1"),
            ([(0, 0), (2, 0), (0, 1)], "task 1 maps to file 2 of 2"),
        ],
        ids=["swapped", "out-of-range-rank", "out-of-range-file"],
    )
    def test_custom_table_is_checked(self, table, message):
        with pytest.raises(SionUsageError, match=message):
            TaskMapping.from_kind_code(3, 2, MAPPING_CUSTOM, table)

    def test_unknown_code(self):
        with pytest.raises(SionUsageError):
            TaskMapping.from_kind_code(1, 1, 99)


class TestPhysicalPath:
    def test_file_zero_keeps_name(self):
        assert physical_path("/d/out.sion", 0) == "/d/out.sion"

    def test_siblings_get_suffix(self):
        assert physical_path("/d/out.sion", 3) == "/d/out.sion.000003"

    def test_negative_rejected(self):
        with pytest.raises(SionUsageError):
            physical_path("x", -1)


@settings(max_examples=60, deadline=None)
@given(
    ntasks=st.integers(1, 200),
    nfiles=st.integers(1, 50),
    kind=st.sampled_from(["blocked", "roundrobin"]),
)
def test_mapping_is_a_bijection(ntasks, nfiles, kind):
    nfiles = min(nfiles, ntasks)
    m = TaskMapping.create(ntasks, nfiles, kind)
    seen = set()
    for r in range(ntasks):
        key = (m.file_of(r), m.local_rank(r))
        assert key not in seen, "two tasks mapped to the same slot"
        seen.add(key)
    # Every file non-empty, local ranks contiguous from zero.
    total = 0
    for f in range(nfiles):
        members = m.tasks_of_file(f)
        assert members, "no file may be empty"
        assert [m.local_rank(r) for r in members] == list(range(len(members)))
        total += len(members)
    assert total == ntasks
