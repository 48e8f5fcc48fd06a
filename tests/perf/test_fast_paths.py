"""Equivalence of the per-request fast paths with the code they replace.

* :func:`repro.core.convert.contiguous_runs` scans short inputs in pure
  Python; the runs must equal numpy's ``diff`` path on every input.
* :meth:`repro.storage.layout.ClusteredLayout.map_range` bisects over
  plain lists; the segments must equal an ``np.searchsorted`` reference.
* :attr:`repro.fs.FileAttributes.record_spec` is cached; changing
  ``record_size`` or ``dtype`` must rebuild (and re-validate) it.
* :class:`repro.fs.PartitionHandle` builds its block list on first use;
  ``stream()`` and the block cursor must still visit the owned blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_parallel_fs
from repro.buffering import BufferPool
from repro.core import FileCategory, FileOrganization
from repro.core.convert import _SCALAR_RUNS_MAX, Run, contiguous_runs
from repro.fs import FileAttributes, PartitionHandle
from repro.sim import Environment
from repro.storage.layout import ClusteredLayout, Segment


def _numpy_runs(records) -> list[Run]:
    records = np.asarray(records, dtype=np.int64)
    if records.size == 0:
        return []
    breaks = np.nonzero(np.diff(records) != 1)[0] + 1
    starts = np.concatenate(([0], breaks))
    stops = np.concatenate((breaks, [records.size]))
    return [Run(int(records[a]), int(b - a)) for a, b in zip(starts, stops)]


def _ascending(draw, n):
    start = draw(st.integers(0, 10_000))
    return list(range(start, start + n))


@st.composite
def access_sequences(draw):
    n = draw(st.integers(0, 2 * _SCALAR_RUNS_MAX))
    kind = draw(st.sampled_from(["ascending", "descending", "duplicates", "mixed"]))
    if kind == "ascending":
        seq = _ascending(draw, n)
    elif kind == "descending":
        seq = _ascending(draw, n)[::-1]
    elif kind == "duplicates":
        seq = sorted(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    else:
        seq = []
        while len(seq) < n:
            piece = draw(st.integers(1, 6))
            seq += _ascending(draw, piece)
        seq = seq[:n]
    return np.asarray(seq, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(access_sequences())
def test_contiguous_runs_matches_numpy_path(records):
    want = _numpy_runs(records)
    runs = contiguous_runs(records)
    assert runs == want
    assert contiguous_runs(records.tolist()) == want
    assert all(type(r.start) is int and type(r.count) is int for r in runs)
    assert sum(r.count for r in runs) == records.size


def _searchsorted_map_range(partition_bytes, n_devices, offset, length):
    """ClusteredLayout.map_range as it was written over numpy arrays."""
    starts = np.zeros(len(partition_bytes) + 1, dtype=np.int64)
    np.cumsum(partition_bytes, out=starts[1:])
    base = np.zeros(len(partition_bytes), dtype=np.int64)
    fill = [0] * n_devices
    for p, nbytes in enumerate(partition_bytes):
        base[p] = fill[p % n_devices]
        fill[p % n_devices] += nbytes
    segments, pos, end = [], offset, offset + length
    while pos < end:
        p = int(np.searchsorted(starts, pos, side="right") - 1)
        p = min(p, len(partition_bytes) - 1)
        take = min(int(starts[p + 1]) - pos, end - pos)
        segments.append(Segment(p % n_devices, int(base[p]) + pos - int(starts[p]), take))
        pos += take
    return segments


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 96), min_size=1, max_size=12),
    st.integers(1, 5),
    st.data(),
)
def test_clustered_map_range_matches_searchsorted(partition_bytes, n_devices, data):
    layout = ClusteredLayout(n_devices, partition_bytes)
    total = sum(partition_bytes)
    offset = data.draw(st.integers(0, total))
    length = data.draw(st.integers(0, total - offset))
    got = layout.map_range(offset, length)
    assert got == _searchsorted_map_range(partition_bytes, n_devices, offset, length)
    assert sum(s.length for s in got) == length
    assert all(s.length > 0 for s in got)


def test_clustered_map_range_spans_zero_length_partitions():
    layout = ClusteredLayout(2, [8, 0, 0, 8, 0, 8])
    assert layout.map_range(4, 16) == [
        Segment(0, 4, 4), Segment(1, 0, 8), Segment(1, 8, 4),
    ]
    with pytest.raises(ValueError):
        layout.map_range(20, 8)


def _attrs(record_size=16, dtype="float64"):
    return FileAttributes(
        name="f", organization=FileOrganization.PS,
        category=FileCategory.STANDARD, record_size=record_size,
        records_per_block=4, n_records=64, n_processes=4,
        layout="clustered", dtype=dtype,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["uint8", "int16", "float32", "float64"]),
    st.integers(1, 8),
    st.sampled_from(["uint8", "int16", "float32", "float64"]),
    st.integers(1, 8),
)
def test_record_spec_cache_follows_size_and_dtype(dtype, items, new_dtype, new_items):
    size = np.dtype(dtype).itemsize * items
    attrs = _attrs(size, dtype)
    spec = attrs.record_spec
    assert attrs.record_spec is spec
    assert (spec.record_size, spec.dtype) == (size, dtype)
    new_size = np.dtype(new_dtype).itemsize * new_items
    attrs.record_size, attrs.dtype = new_size, new_dtype
    rebuilt = attrs.record_spec
    assert (rebuilt.record_size, rebuilt.dtype) == (new_size, new_dtype)
    assert rebuilt.items_per_record == new_items
    assert attrs.record_spec is rebuilt


def test_record_spec_cache_revalidates():
    attrs = _attrs(16, "float64")
    assert attrs.record_spec.items_per_record == 2
    attrs.record_size = 12  # not a multiple of 8
    with pytest.raises(ValueError):
        attrs.record_spec
    attrs.dtype = "float32"
    assert attrs.record_spec.items_per_record == 3
    assert attrs.block_spec.record.record_size == 12


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["PS", "IS"]),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 40),
)
def test_partition_handle_blocks_unchanged(org, n_processes, rpb, blocks_per_proc):
    n_records = n_processes * rpb * blocks_per_proc
    env = Environment()
    pfs = build_parallel_fs(env, 2)
    f = pfs.create("p", org, n_records=n_records, record_size=8,
                   records_per_block=rpb, n_processes=n_processes)

    def visit(p):
        want = [int(b) for b in f.map.blocks_of(p)]
        cursor = f.internal_view(p)
        assert isinstance(cursor, PartitionHandle)
        assert cursor.blocks_remaining == len(want)
        seen = []
        while cursor.blocks_remaining:
            block, _ = yield from cursor.read_next_block()
            seen.append(block)
        assert (yield from cursor.read_next_block()) is None
        pool = BufferPool(env, 2, 8 * rpb, copy_cost_per_byte=0,
                          per_buffer_overhead=0)
        streamed = yield from f.internal_view(p).stream(pool).read_all()
        return want, seen, streamed

    for p in range(n_processes):
        want, seen, streamed = env.run(env.process(visit(p)))
        assert seen == want
        assert streamed == want
