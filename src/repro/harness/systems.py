"""System suite: every compared system built over one dataset.

Builds and caches, per :class:`~repro.harness.scales.DatasetSpec`, the
six systems of the paper's evaluation (Section IV-A2) on one shared
simulated PFS:

* ``mloc-col`` — V-M-S order, Zlib byte columns;
* ``mloc-iso`` — whole values, ISOBAR lossless;
* ``mloc-isa`` — whole values, ISABELA lossy;
* ``seqscan`` — row-major raw file;
* ``fastbit`` — precision-binned WAH bitmap index;
* ``scidb``  — overlap-replicated chunk store.

and provides uniform query dispatch with the paper's cold-cache
protocol (the file cache is cleared before every query);
:func:`cold_batch` runs a list of queries on one MLOC store that way.
"""

from __future__ import annotations

from repro.baselines import FastBitStore, SciDBStore, SeqScanStore
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_isa, mloc_iso
from repro.core.result import BatchResult, QueryResult
from repro.harness.scales import DatasetSpec
from repro.harness.workloads import WorkloadGenerator
from repro.pfs import PFSCostModel, SimulatedPFS

__all__ = ["SystemSuite", "get_suite", "cold_batch", "MLOC_SYSTEMS", "ALL_SYSTEMS"]

MLOC_SYSTEMS = ("mloc-col", "mloc-iso", "mloc-isa")
ALL_SYSTEMS = MLOC_SYSTEMS + ("seqscan", "fastbit", "scidb")

#: SciDB chunk-boundary overlap width (cells per side), giving the
#: ~10% footprint overhead of Table I at the harness chunk shapes.
_SCIDB_OVERLAP = 2


class SystemSuite:
    """Lazily-built collection of systems over one dataset.

    The MLOC store handles it builds run with the default execution
    options, which never change a simulated second.
    """

    def __init__(self, spec: DatasetSpec, n_ranks: int = 8) -> None:
        self.spec = spec
        self.n_ranks = n_ranks
        self.fs = SimulatedPFS(PFSCostModel(byte_scale=spec.byte_scale))
        self.data = spec.generate()
        self.flat = self.data.reshape(-1)
        self.workload = WorkloadGenerator.for_data(self.data, seed=spec.seed + 100)
        self._stores: dict[str, object] = {}

    @property
    def block_bytes(self) -> int:
        """Raw compression-block target: one paper-scale stripe.

        The paper aligns the smallest accessed unit with the PFS stripe
        (Section III-C); under dataset magnification one stripe of our
        data corresponds to ``stripe_size / byte_scale`` real bytes,
        floored to keep codec framing overhead negligible.
        """
        stripe = self.fs.cost_model.stripe_size
        return max(4096, int(round(stripe / self.spec.byte_scale)))

    # ------------------------------------------------------------------
    def store(self, system: str):
        """Build (once) and return the named system's store."""
        if system not in self._stores:
            self._stores[system] = self._build(system)
        return self._stores[system]

    def _build(self, system: str):
        spec = self.spec
        root = f"/{spec.name}/{system}"
        if system in MLOC_SYSTEMS:
            maker = {"mloc-col": mloc_col, "mloc-iso": mloc_iso, "mloc-isa": mloc_isa}[
                system
            ]
            config = maker(
                chunk_shape=spec.chunk_shape,
                n_bins=spec.n_bins,
                target_block_bytes=self.block_bytes,
            )
            MLOCWriter(self.fs, root, config).write(
                self.data, variable="field"
            )
            return MLOCStore.open(self.fs, root, "field", n_ranks=self.n_ranks)
        if system == "seqscan":
            return SeqScanStore.build(self.fs, f"{root}/data", self.data, n_ranks=self.n_ranks)
        if system == "fastbit":
            return FastBitStore.build(
                self.fs, root, self.data, n_bins=spec.fastbit_bins, n_ranks=self.n_ranks
            )
        if system == "scidb":
            return SciDBStore.build(
                self.fs,
                f"{root}/data",
                self.data,
                chunk_shape=spec.chunk_shape,
                overlap=_SCIDB_OVERLAP,
                n_ranks=self.n_ranks,
            )
        raise ValueError(f"unknown system {system!r}; expected one of {ALL_SYSTEMS}")

    # ------------------------------------------------------------------
    # Uniform query dispatch (cold cache, as in the paper's protocol)
    # ------------------------------------------------------------------
    def region_query(self, system: str, value_range) -> QueryResult:
        """Value-constrained region-only access."""
        store = self.store(system)
        self.fs.clear_cache()
        if system in MLOC_SYSTEMS:
            return store.query(Query(value_range=tuple(value_range), output="positions"))
        return store.region_query(tuple(value_range))

    def value_query(self, system: str, region, plod_level: int = 7) -> QueryResult:
        """Spatially-constrained value retrieval."""
        store = self.store(system)
        self.fs.clear_cache()
        if system in MLOC_SYSTEMS:
            return store.query(
                Query(region=tuple(region), output="values", plod_level=plod_level)
            )
        return store.value_query(tuple(region))

    def storage_bytes(self, system: str) -> dict[str, int]:
        """``{"data": ..., "index": ...}`` accounting for Table I."""
        store = self.store(system)
        if system in MLOC_SYSTEMS:
            report = store.storage_report()
            return {
                "data": report.data_bytes,
                "index": report.index_bytes + report.meta_bytes,
            }
        return store.storage_bytes()


def cold_batch(store: MLOCStore, queries) -> BatchResult:
    """Run ``queries`` on ``store`` one at a time, each on a freshly
    cleared ``store.fs`` cache (the paper's protocol), summarized as one
    :class:`~repro.core.result.BatchResult`: times summed in order,
    stats folded, plus the store's ``quarantined_blocks``."""
    results = []
    for query in queries:
        store.fs.clear_cache()
        results.append(store.query(query))
    return BatchResult.of(results, quarantined_blocks=len(store.quarantined_blocks))


_SUITES: dict[tuple[str, int, int], SystemSuite] = {}


def get_suite(spec: DatasetSpec, n_ranks: int = 8) -> SystemSuite:
    """Process-wide cache of built suites (shared across benchmarks)."""
    key = (spec.name, spec.n_elements, n_ranks)
    if key not in _SUITES:
        _SUITES[key] = SystemSuite(spec, n_ranks=n_ranks)
    return _SUITES[key]
