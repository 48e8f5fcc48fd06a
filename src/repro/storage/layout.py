"""Data layouts: placing a file's byte stream across multiple devices.

§4 of the paper maps each organization to a placement strategy:

* **Striped** — "For file types S and SS, disk striping can be used to
  spread the file across multiple drives ... The entire file is viewed as
  a string of bytes which is broken into units most appropriate for the
  I/O devices involved." Declustering for direct access (Livny et al.,
  Kim) is the same placement with a unit smaller than a logical block.
* **Interleaved** — "in the second case [IS], blocks are interleaved
  across the devices. This differs from normal disk striping, since
  processes are free to proceed at different rates." The placement unit is
  the *logical block*, so one process's block lives wholly on one device.
* **Clustered** — "one device is allocated to each block [partition]"
  (PS); each partition is stored contiguously on its device. With fewer
  devices than partitions, partitions wrap round-robin onto devices.

A layout is pure arithmetic: it maps file byte ranges to
``(device, device_offset, length)`` segments, with device offsets relative
to the file's allocated extent on that device. The :class:`Segment` lists
returned are in ascending file order, which is what the volume layer
relies on to reassemble reads.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Segment",
    "DataLayout",
    "StripedLayout",
    "InterleavedLayout",
    "ClusteredLayout",
    "coalesce_segments",
    "plan_batch",
    "gather_payload",
    "scatter_payload",
    "make_layout",
]


@dataclass(frozen=True)
class Segment:
    """``length`` file bytes living at ``offset`` on ``device`` (extent-relative)."""

    device: int
    offset: int
    length: int


def coalesce_segments(segments: list[Segment]) -> list[Segment]:
    """Merge adjacent segments that are contiguous on the same device.

    This is list I/O at the submission layer: a run of per-unit (or
    per-block) segments that happens to be device-contiguous becomes one
    multi-block device request. Only *adjacent* entries merge — the input
    is in ascending file order and the volume layer reassembles reads by
    cumulative position, so reordering is not allowed. Merges may cross
    the boundaries between the byte ranges of a gather: the concatenated
    payload is still sliced correctly because lengths are preserved.
    """
    if len(segments) < 2:
        return segments
    out = [segments[0]]
    for seg in segments[1:]:
        prev = out[-1]
        if seg.device == prev.device and seg.offset == prev.offset + prev.length:
            out[-1] = Segment(prev.device, prev.offset, prev.length + seg.length)
        else:
            out.append(seg)
    return out


def plan_batch(
    segments: list[Segment],
) -> tuple[list[Segment], list[list[tuple[int, int]]]]:
    """Full list-I/O planning: group segments by device, merge device runs.

    :func:`coalesce_segments` only merges *list-adjacent* segments, which
    never fires on striped layouts (consecutive stripe units live on
    different devices, so same-device segments are never neighbours in
    file order). This planner merges each device's segments in the order
    they appear, whenever they are contiguous on that device — a striped
    scan of ``k`` rounds collapses to one request per device instead of
    one per stripe unit.

    Grouping reorders the submission list, so the caller can no longer
    reassemble by cumulative position. The second return value is the
    scatter plan: ``scatter[i]`` lists the ``(file_pos, length)`` pieces
    carried by ``merged[i]``, in payload order. ``file_pos`` is the
    cumulative position across the *input* segment list (for a gather of
    several ranges: across their concatenation). Submitting the merged
    segments concurrently is semantics-preserving — the unmerged batch was
    already issued as one parallel joined batch with no intra-batch
    ordering.
    """
    merged: list[Segment] = []
    scatter: list[list[tuple[int, int]]] = []
    last_on_device: dict[int, int] = {}
    pos = 0
    for seg in segments:
        i = last_on_device.get(seg.device)
        if i is not None:
            prev = merged[i]
            if seg.offset == prev.offset + prev.length:
                merged[i] = Segment(
                    prev.device, prev.offset, prev.length + seg.length
                )
                scatter[i].append((pos, seg.length))
                pos += seg.length
                continue
        merged.append(seg)
        scatter.append([(pos, seg.length)])
        last_on_device[seg.device] = len(merged) - 1
        pos += seg.length
    return merged, scatter


def gather_payload(
    arr: np.ndarray, pieces: list[tuple[int, int]]
) -> np.ndarray:
    """The write payload of one merged segment: its pieces of ``arr``."""
    if len(pieces) == 1:
        pos, length = pieces[0]
        return arr[pos : pos + length]
    return np.concatenate([arr[pos : pos + length] for pos, length in pieces])


def scatter_payload(
    out: np.ndarray, data: np.ndarray, pieces: list[tuple[int, int]]
) -> None:
    """Scatter one merged segment's read payload back to file positions."""
    off = 0
    for pos, length in pieces:
        out[pos : pos + length] = data[off : off + length]
        off += length


class DataLayout(ABC):
    """Mapping from a file's byte stream onto ``n_devices`` devices."""

    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        self.n_devices = n_devices

    @property
    @abstractmethod
    def name(self) -> str:
        """Layout family name ('striped', 'interleaved', 'clustered')."""

    @abstractmethod
    def map_range(self, offset: int, length: int) -> list[Segment]:
        """Decompose file bytes ``[offset, offset+length)`` into segments."""

    @abstractmethod
    def device_bytes(self, file_bytes: int) -> list[int]:
        """Extent size each device must provide to hold ``file_bytes``."""

    def locate(self, offset: int) -> tuple[int, int]:
        """``(device, device_offset)`` of a single file byte."""
        seg = self.map_range(offset, 1)[0]
        return seg.device, seg.offset

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range ({offset}, {length})")


class StripedLayout(DataLayout):
    """Round-robin stripe units across devices (disk striping, §4).

    Unit ``u`` (bytes ``[u*su, (u+1)*su)``) is placed on device ``u % D``
    at device offset ``(u // D) * su``.
    """

    def __init__(self, n_devices: int, stripe_unit: int = 4096):
        super().__init__(n_devices)
        if stripe_unit < 1:
            raise ValueError("stripe_unit must be >= 1")
        self.stripe_unit = stripe_unit

    @property
    def name(self) -> str:
        return "striped"

    def map_range(self, offset: int, length: int) -> list[Segment]:
        self._check_range(offset, length)
        su, d = self.stripe_unit, self.n_devices
        segments: list[Segment] = []
        pos = offset
        end = offset + length
        while pos < end:
            unit = pos // su
            within = pos % su
            take = min(su - within, end - pos)
            segments.append(
                Segment(
                    device=unit % d,
                    offset=(unit // d) * su + within,
                    length=take,
                )
            )
            pos += take
        return segments

    def device_bytes(self, file_bytes: int) -> list[int]:
        if file_bytes < 0:
            raise ValueError("file_bytes must be >= 0")
        su, d = self.stripe_unit, self.n_devices
        n_units = -(-file_bytes // su)
        per_dev = [(n_units // d) * su] * d
        for extra in range(n_units % d):
            per_dev[extra] += su
        # the final (possibly partial) unit still reserves a full unit
        return per_dev


class InterleavedLayout(StripedLayout):
    """Blocks interleaved across devices (IS placement, §4).

    Striping with the unit pinned to the logical block size, so each
    logical block lives wholly on one device: block ``b`` on device
    ``b % D``. Ownership then aligns with the IS organization map's
    ``owner_of_block`` when the process count equals the device count.
    """

    def __init__(self, n_devices: int, block_bytes: int):
        super().__init__(n_devices, stripe_unit=block_bytes)
        self.block_bytes = block_bytes

    @property
    def name(self) -> str:
        return "interleaved"

    def device_of_block(self, block: int) -> int:
        """Device holding logical block ``block``."""
        if block < 0:
            raise ValueError("block must be >= 0")
        return block % self.n_devices


class ClusteredLayout(DataLayout):
    """Contiguous partitions, one device per partition (PS placement, §4).

    ``partition_bytes[p]`` is the byte length of partition ``p``; partition
    ``p`` goes to device ``p % D`` ("blocks belonging to several processes
    would be allocated to each device" when P > D). On each device,
    its partitions are stacked contiguously in partition order.
    """

    def __init__(self, n_devices: int, partition_bytes: list[int]):
        super().__init__(n_devices)
        if any(b < 0 for b in partition_bytes):
            raise ValueError("partition sizes must be >= 0")
        self.partition_bytes = [int(b) for b in partition_bytes]
        # file-space partition starts and the device-space base of each
        # partition (stacking per device), as plain lists for map_range
        self._file_starts = [0, *itertools.accumulate(self.partition_bytes)]
        self._dev_base = []
        fill = [0] * n_devices
        for p, nbytes in enumerate(self.partition_bytes):
            dev = p % n_devices
            self._dev_base.append(fill[dev])
            fill[dev] += nbytes
        self._dev_fill = fill

    @property
    def name(self) -> str:
        return "clustered"

    @property
    def n_partitions(self) -> int:
        return len(self.partition_bytes)

    @property
    def total_bytes(self) -> int:
        return self._file_starts[-1]

    def device_of_partition(self, p: int) -> int:
        """Device holding partition ``p`` (round-robin)."""
        if not 0 <= p < self.n_partitions:
            raise ValueError(f"partition {p} out of range")
        return p % self.n_devices

    def map_range(self, offset: int, length: int) -> list[Segment]:
        """Segments of ``[offset, offset + length)``, one per partition touched.

        The partition lookup is a ``bisect`` over plain-int lists built
        once in ``__init__``: one-record requests call this once each, and
        ``np.searchsorted`` plus numpy-scalar conversions cost several
        times more than the whole scalar scan.
        """
        self._check_range(offset, length)
        if offset + length > self.total_bytes:
            raise ValueError(
                f"range [{offset}, {offset + length}) exceeds file of "
                f"{self.total_bytes} bytes"
            )
        starts, bases = self._file_starts, self._dev_base
        last = len(self.partition_bytes) - 1
        segments: list[Segment] = []
        pos = offset
        end = offset + length
        while pos < end:
            # the last partition starting at or before pos; bisect_right
            # skips zero-length partitions (they share the next start)
            p = min(bisect_right(starts, pos) - 1, last)
            part_start = starts[p]
            take = min(starts[p + 1] - pos, end - pos)
            segments.append(
                Segment(
                    device=p % self.n_devices,
                    offset=bases[p] + pos - part_start,
                    length=take,
                )
            )
            pos += take
        return segments

    def device_bytes(self, file_bytes: int) -> list[int]:
        if file_bytes != self.total_bytes:
            raise ValueError(
                f"clustered layout is sized for {self.total_bytes} bytes, "
                f"not {file_bytes}"
            )
        return list(self._dev_fill)


def make_layout(
    name: str,
    n_devices: int,
    *,
    stripe_unit: int = 4096,
    block_bytes: int | None = None,
    partition_bytes: list[int] | None = None,
) -> DataLayout:
    """Construct a layout by family name."""
    name = name.lower()
    if name == "striped":
        return StripedLayout(n_devices, stripe_unit)
    if name == "interleaved":
        if block_bytes is None:
            raise ValueError("interleaved layout requires block_bytes")
        return InterleavedLayout(n_devices, block_bytes)
    if name == "clustered":
        if partition_bytes is None:
            raise ValueError("clustered layout requires partition_bytes")
        return ClusteredLayout(n_devices, partition_bytes)
    raise ValueError(f"unknown layout {name!r}")
