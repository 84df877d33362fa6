"""Cost model of the simulated clock: PFS I/O and counted CPU work.

The paper evaluates MLOC on the Lens cluster's Lustre file system; query
response time is dominated by (a) bytes streamed from object storage
targets (OSTs), (b) disk seeks caused by non-contiguous access, and
(c) file-open metadata operations.  This module models exactly those
quantities so that the *shape* of the paper's results (who wins, by what
factor, where the crossovers fall) is preserved even though the absolute
seconds of a 2008-era Lustre deployment are not reproduced.

The model is deliberately simple and fully documented:

* Every byte transferred from an OST costs ``1 / ost_bandwidth`` seconds
  on that OST.  OSTs stream independently, so the transfer component of
  a parallel access is the *maximum* per-OST load, not the sum — this is
  what makes I/O stop scaling once every OST is busy (paper Fig. 7).
* Every non-contiguous read on a client costs ``seek_time`` seconds and
  every file open costs ``open_time`` seconds; these are per-client
  serial overheads, so the overhead component of a parallel access is
  the maximum per-rank overhead.
* Reads of cached extents are free; the experiment harness clears the
  cache between rounds, mirroring the paper's methodology ("after each
  round we clear the system file cache").
* CPU work (decompression, reconstruction) costs ``scaled counted
  bytes / throughput`` — :meth:`PFSCostModel.cpu_seconds` over the
  throughput table below; no simulated second is ever measured.

Default constants are calibrated to commodity 2012-era hardware:
~100 MB/s per OST spinning disk streaming bandwidth, ~8 ms average seek,
~1 ms metadata round trip.  Tests never rely on the absolute values,
only on monotonicity (more bytes/seeks/opens => more time).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PFSCostModel",
    "IOStats",
    "INDEX_DECODE_THROUGHPUT",
    "ASSEMBLY_THROUGHPUT",
    "FILTER_GATHER_THROUGHPUT",
    "WAH_EXPAND_THROUGHPUT",
]

# CPU-work throughputs: bytes of counted work per second, each measured
# from this implementation on >= 1 MB buffers, where per-call overhead
# vanishes (benchmarks/test_calibration.py re-measures them).  With the
# per-codec ``decode_throughput`` and SciDB's paper-derived scan rate
# these are the only rates :meth:`PFSCostModel.cpu_seconds` is ever
# given (DESIGN.md §5).

#: Decode of the per-bin position index (delta + varint + deflate),
#: counted in bytes of reconstructed positions (8 B each).
INDEX_DECODE_THROUGHPUT = 240e6

#: Gathering cells out of decoded blocks and reassembling PLoD byte
#: planes, counted in bytes of raw data — memcpy-class work.
ASSEMBLY_THROUGHPUT = 600e6

#: Filtering candidates and gathering the survivors into the result
#: (the paper's "reconstruction"), counted as 8 B per candidate
#: position plus 8 B per candidate value handled.
FILTER_GATHER_THROUGHPUT = 400e6

#: Expanding WAH words into dense 63-bit group words and OR-ing them
#: into the accumulator (FastBit), counted in bytes of expanded groups.
WAH_EXPAND_THROUGHPUT = 2500e6


@dataclass(frozen=True)
class PFSCostModel:
    """Parameters of the simulated Lustre-like file system.

    Attributes
    ----------
    ost_count:
        Number of object storage targets files are striped over.
    stripe_size:
        Stripe width in bytes; consecutive stripes of a file live on
        consecutive OSTs (round robin), as in Lustre's default layout.
    ost_bandwidth:
        Sustained streaming bandwidth of one OST, bytes/second.
    client_bandwidth:
        Injection bandwidth of one compute node.  The paper's 8-core
        runs fit one Lens node; its 128-process scalability runs span
        multiple nodes, whose links aggregate (that is how the paper's
        2 GB/s at 128 processes exceeds a single node link).
    cores_per_node:
        Ranks per node (Lens: four quad-core sockets = 16); a parallel
        access with R ranks is modeled across ``ceil(R / cores_per_node)``
        node links.
    seek_time:
        Cost of one non-contiguous positioning operation, seconds.
    open_time:
        Cost of one file-open metadata operation, seconds.
    byte_scale:
        The dataset magnification factor of DESIGN.md §5: the harness
        runs on datasets ``byte_scale`` times smaller than the paper's
        and multiplies every transferred byte by this factor, so
        reported I/O seconds are *paper-scale-equivalent*.  1.0 means
        physical accounting (the default outside the harness).
    """

    ost_count: int = 16
    stripe_size: int = 1 << 20
    ost_bandwidth: float = 100e6
    client_bandwidth: float = 400e6
    cores_per_node: int = 16
    seek_time: float = 8e-3
    open_time: float = 1e-3
    byte_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.ost_count <= 0:
            raise ValueError(f"ost_count must be positive, got {self.ost_count}")
        if self.stripe_size <= 0:
            raise ValueError(f"stripe_size must be positive, got {self.stripe_size}")
        if self.ost_bandwidth <= 0:
            raise ValueError(f"ost_bandwidth must be positive, got {self.ost_bandwidth}")
        if self.client_bandwidth <= 0:
            raise ValueError(
                f"client_bandwidth must be positive, got {self.client_bandwidth}"
            )
        if self.cores_per_node <= 0:
            raise ValueError(
                f"cores_per_node must be positive, got {self.cores_per_node}"
            )
        if self.seek_time < 0 or self.open_time < 0:
            raise ValueError("seek_time and open_time must be non-negative")
        if self.byte_scale <= 0:
            raise ValueError(f"byte_scale must be positive, got {self.byte_scale}")

    def scaled_bytes(self, n: float) -> float:
        """Bytes in paper-scale-equivalent units."""
        return n * self.byte_scale

    def cpu_seconds(self, counted_bytes: float, throughput: float) -> float:
        """Seconds of CPU work on ``counted_bytes`` at ``throughput``.

        The one conversion from counted work to simulated seconds:
        every decompression and reconstruction term of every system is
        this call on a byte count the code already has, never a
        stopwatch reading (whose per-call overhead on the scaled-down
        blocks ``byte_scale`` would magnify).
        """
        return self.scaled_bytes(counted_bytes) / throughput

    def parallel_time(self, per_rank: list["IOStats"], per_ost_bytes: list[int]) -> float:
        """Seconds for a bulk-synchronous parallel access.

        ``per_rank`` carries each rank's open/seek counts (serial,
        per-client overhead); ``per_ost_bytes`` carries the total bytes
        each OST must stream (shared, bandwidth-bound).  The transfer
        phase is bounded below by the most-loaded OST and by the
        aggregate link bandwidth of the nodes hosting the ranks
        (``ceil(ranks / cores_per_node)`` node links); overhead and
        transfer are additive on the critical path.
        """
        if len(per_ost_bytes) != self.ost_count:
            raise ValueError(
                f"expected {self.ost_count} per-OST byte counts, got {len(per_ost_bytes)}"
            )
        overhead = max(
            (
                s.opens * self.open_time + s.seeks * self.seek_time + s.stall_seconds
                for s in per_rank
            ),
            default=0.0,
        )
        n_nodes = max(
            1, -(-len(per_rank) // self.cores_per_node)
        )  # ceil division
        total_bytes = float(sum(per_ost_bytes))
        transfer = max(
            self.scaled_bytes(max(per_ost_bytes, default=0)) / self.ost_bandwidth,
            self.scaled_bytes(total_bytes) / (self.client_bandwidth * n_nodes),
        )
        return overhead + transfer


@dataclass
class IOStats:
    """Raw I/O counters accumulated by one client (rank) during a query.

    ``stall_seconds`` carries simulated wall time the client spent
    waiting without transferring bytes: injected latency spikes
    (:class:`repro.pfs.faults.FaultyPFS`) and the executor's retry
    backoff.  Stalls are per-client serial time, so the parallel cost
    model folds them into the max-per-rank overhead term.
    """

    opens: int = 0
    seeks: int = 0
    bytes_read: int = 0
    reads: int = 0
    stall_seconds: float = 0.0
    #: Coalesced (vectored) span reads; each one bundles several block
    #: extents into a single seek + contiguous transfer.
    vectored_reads: int = 0

    def merge(self, other: "IOStats") -> None:
        """Fold ``other``'s counters into this one (for aggregation)."""
        self.opens += other.opens
        self.seeks += other.seeks
        self.bytes_read += other.bytes_read
        self.reads += other.reads
        self.stall_seconds += other.stall_seconds
        self.vectored_reads += other.vectored_reads

    def copy(self) -> "IOStats":
        return IOStats(
            self.opens,
            self.seeks,
            self.bytes_read,
            self.reads,
            self.stall_seconds,
            self.vectored_reads,
        )
