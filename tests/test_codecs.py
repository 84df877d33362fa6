"""Cross-codec tests: registry, roundtrips, framing, throughput attrs."""

import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compression.zlib_codec as zlib_codec
from repro.compression import (
    ByteCodec,
    CodecDecodeError,
    codec_names,
    make_codec,
    register_codec,
)
from repro.core import MLOCWriter, mloc_col
from repro.core.writer import _SLAB_ELEMENTS
from repro.datasets import gts_like, s3d_like
from repro.pfs import SimulatedPFS
from repro.plod.byteplanes import split_byte_groups

LOSSLESS_FLOAT = ["zlib-float", "isobar", "fpzip-like", "null-float"]
BYTE_CODECS = ["zlib-bytes", "null-bytes"]


class TestRegistry:
    def test_all_registered(self):
        names = codec_names()
        for expected in LOSSLESS_FLOAT + BYTE_CODECS + ["isabela"]:
            assert expected in names

    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("lzma-mystery")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_codec("zlib-bytes")
            class Dup(ByteCodec):  # pragma: no cover - never instantiated
                def encode(self, data):
                    return data

                def decode(self, payload, raw_len):
                    return payload

    def test_params_forwarded(self):
        codec = make_codec("zlib-bytes", level=1)
        assert codec.level == 1

    def test_throughput_attribute_present(self):
        for name in codec_names():
            codec = make_codec(name)
            assert codec.decode_throughput > 0


@pytest.mark.parametrize("name", LOSSLESS_FLOAT)
class TestLosslessFloatCodecs:
    def test_roundtrip_smooth(self, name, rng):
        codec = make_codec(name)
        v = np.cumsum(rng.normal(0, 0.01, 10_000)) + 300.0
        assert np.array_equal(codec.decode(codec.encode(v), v.size), v)

    def test_roundtrip_random(self, name, rng):
        codec = make_codec(name)
        v = rng.uniform(-1e30, 1e30, 2_000)
        assert np.array_equal(codec.decode(codec.encode(v), v.size), v)

    def test_roundtrip_special_values(self, name):
        codec = make_codec(name)
        v = np.array([0.0, -0.0, 1e-308, -1e308, np.pi, 2.0**1023])
        out = codec.decode(codec.encode(v), v.size)
        assert np.array_equal(out.view(np.uint64), v.view(np.uint64))

    def test_empty(self, name):
        codec = make_codec(name)
        assert codec.decode(codec.encode(np.empty(0)), 0).size == 0

    def test_single_value(self, name):
        codec = make_codec(name)
        v = np.array([42.125])
        assert np.array_equal(codec.decode(codec.encode(v), 1), v)

    def test_rejects_2d(self, name):
        codec = make_codec(name)
        with pytest.raises(ValueError, match="1-D"):
            codec.encode(np.zeros((2, 2)))

    def test_compresses_smooth_data(self, name, rng):
        if name == "null-float":
            pytest.skip("identity codec")
        codec = make_codec(name)
        v = np.cumsum(rng.normal(0, 1e-4, 50_000)) + 1000.0
        assert len(codec.encode(v)) < v.nbytes

    def test_lossless_flag(self, name):
        assert make_codec(name).lossless is True


@pytest.mark.parametrize("name", BYTE_CODECS)
class TestByteCodecs:
    def test_roundtrip(self, name, rng):
        codec = make_codec(name)
        data = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        assert codec.decode(codec.encode(data), len(data)) == data

    def test_compressible_payload(self, name):
        codec = make_codec(name)
        data = b"abcd" * 10_000
        payload = codec.encode(data)
        if name == "zlib-bytes":
            assert len(payload) < len(data)
        assert codec.decode(payload, len(data)) == data

    def test_incompressible_falls_back_to_raw(self, name, rng):
        codec = make_codec(name)
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        payload = codec.encode(data)
        # Bounded expansion: at most one flag byte of overhead.
        assert len(payload) <= len(data) + 1
        assert codec.decode(payload, len(data)) == data

    def test_empty(self, name):
        codec = make_codec(name)
        assert codec.decode(codec.encode(b""), 0) == b""

    def test_length_mismatch_detected(self, name):
        codec = make_codec(name)
        payload = codec.encode(b"hello")
        with pytest.raises(ValueError):
            codec.decode(payload, 3)


class TestZlibByteFraming:
    def test_unknown_mode_rejected(self):
        codec = make_codec("zlib-bytes")
        with pytest.raises(ValueError, match="unknown payload mode"):
            codec.decode(b"\x07junk", 4)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            make_codec("zlib-bytes", level=11)


def _payloads(name):
    """One raw-mode and one deflate-mode payload of ``name``, with the
    element count its ``decode`` takes."""
    rng = np.random.default_rng(7)
    if name == "zlib-bytes":
        raw, deflated = rng.integers(0, 256, 64, dtype=np.uint8).tobytes(), b"abc" * 40
        n_raw, n_deflated = len(raw), len(deflated)
    else:
        raw, deflated = rng.uniform(-1e30, 1e30, 8), np.full(40, 2.5)
        n_raw, n_deflated = raw.size, deflated.size
    codec = make_codec(name)
    out = [(codec.encode(raw), n_raw), (codec.encode(deflated), n_deflated)]
    assert [payload[0] for payload, _ in out] == [0, 1]
    return out


@pytest.mark.parametrize("name", ["zlib-bytes", "zlib-float"])
class TestZlibFramingFuzz:
    """Every malformed frame raises :class:`CodecDecodeError`, nothing else."""

    def test_truncation_at_every_offset(self, name):
        codec = make_codec(name)
        for payload, n in _payloads(name):
            for cut in range(len(payload)):
                with pytest.raises(CodecDecodeError):
                    codec.decode(payload[:cut], n)

    def test_every_unknown_mode_byte(self, name):
        codec = make_codec(name)
        for payload, n in _payloads(name):
            for mode in range(2, 256):
                with pytest.raises(CodecDecodeError):
                    codec.decode(bytes([mode]) + payload[1:], n)

    def test_one_trailing_byte(self, name):
        codec = make_codec(name)
        for payload, n in _payloads(name):
            with pytest.raises(CodecDecodeError):
                codec.decode(payload + b"\x00", n)


#: The plane codecs, with parameters small enough to fuzz every offset.
PLANE_CODECS = {
    "isobar": {},
    "fpzip-like": {},
    "isabela": {"window": 64, "n_coeffs": 16},
}


def _plane_payload(name):
    """A payload of ``name`` holding both deflated and raw sections, its
    element count, and per deflate stream the offset of its section's
    uint32 length field and the offset where the stream ends."""
    codec = make_codec(name, **PLANE_CODECS[name])
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(0, 0.05, 150)) + 100.0 + rng.normal(0, 0.5, 150)
    payload = codec.encode(values)
    if name == "isabela":  # six section lengths; sections 0 and 4 are deflated
        fields_at, n_sections, deflated = 0, 6, [0, 4]
    else:  # eight mode bytes, then eight plane lengths
        fields_at, n_sections = 8, 8
        deflated = [p for p in range(8) if payload[p] == 1]
    header = fields_at + 4 * n_sections
    ends = header + np.cumsum(np.frombuffer(payload[fields_at:header], dtype="<u4"))
    streams = [(fields_at + 4 * i, int(ends[i])) for i in deflated]
    assert streams and len(streams) < n_sections and ends[-1] > ends[deflated[-1]]
    return codec, payload, values.size, streams


def _with_junk(payload, field_at, stream_end, junk=b"xyz"):
    """``payload`` with ``junk`` after a deflate stream, inside its
    section's declared length."""
    out = bytearray(payload[:stream_end] + junk + payload[stream_end:])
    length = int.from_bytes(out[field_at : field_at + 4], "little") + len(junk)
    out[field_at : field_at + 4] = length.to_bytes(4, "little")
    return bytes(out)


@pytest.mark.parametrize("name", list(PLANE_CODECS))
class TestPlaneFramingFuzz:
    """A plane-codec payload must end exactly where its sections say,
    and each deflate stream exactly where its section does."""

    def test_roundtrip_of_the_fixture(self, name):
        codec, payload, n, _ = _plane_payload(name)
        assert codec.decode(payload, n).size == n

    def test_truncation_at_every_offset(self, name):
        codec, payload, n, _ = _plane_payload(name)
        for cut in range(len(payload)):
            with pytest.raises(CodecDecodeError):
                codec.decode(payload[:cut], n)

    @pytest.mark.parametrize("tail", [b"\x00", b"xyz"])
    def test_trailing_bytes(self, name, tail):
        codec, payload, n, _ = _plane_payload(name)
        with pytest.raises(CodecDecodeError):
            codec.decode(payload + tail, n)

    def test_junk_inside_a_deflated_section(self, name):
        codec, payload, n, streams = _plane_payload(name)
        for field_at, stream_end in streams:
            with pytest.raises(CodecDecodeError):
                codec.decode(_with_junk(payload, field_at, stream_end), n)


def _deflate_then_choose(data) -> bytes:
    """The ``zlib-bytes`` encode before the probe: deflate every
    buffer, keep the deflate stream only if it is smaller."""
    compressed = zlib.compress(data, 6)
    if len(compressed) < memoryview(data).nbytes:
        return b"\x01" + compressed
    return b"\x00" + bytes(data)


#: Block buffer sizes the probe is checked at, from one small-timestep
#: bin plane to a large one.
PROBE_SIZES = (300, 700, 4096, 16384)


def _field_bins(field: np.ndarray, size: int) -> list[np.ndarray]:
    """The values of each equal-frequency bin holding ``size`` of them,
    in spatial order, as the writer hands a bin to the codec."""
    values = field.reshape(-1)
    n_bins = values.size // size
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    bin_ids = np.searchsorted(edges, values, side="right")
    return [values[bin_ids == b][:size] for b in range(n_bins)]


def _plane_corpus() -> list[np.ndarray]:
    """Every PLoD group plane of binned ``gts_like`` and ``s3d_like`` values."""
    fields = [gts_like((128, 128), seed=s) for s in (0, 1)]
    fields += [s3d_like((32, 32, 32), seed=s) for s in (0, 1)]
    return [
        plane
        for field in fields
        for size in PROBE_SIZES
        for bin_values in _field_bins(field, size)
        for plane in split_byte_groups(bin_values)
    ]


def _nested_corpus() -> list[bytes]:
    """The blocks V-S-M writes hand the codec: runs of (chunk, bin)
    cells, each cell's byte groups stored together.  Small cells repeat
    byte patterns that only LZ77 matches find."""
    buffers: list[bytes] = []
    encode_many = zlib_codec.ZlibByteCodec.encode_many

    def record(self, batch):
        buffers.extend(bytes(data) for data in batch)
        return encode_many(self, batch)

    stores = [
        (gts_like((256, 256), seed=0), (16, 16)),
        (gts_like((96, 96), seed=1), (32, 32)),
        (s3d_like((32, 32, 32), seed=0), (8, 8, 8)),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlib_codec.ZlibByteCodec, "encode_many", record)
        for field, chunk in stores:
            for size in PROBE_SIZES:
                config = mloc_col(
                    chunk, n_bins=32, level_order="VSM", target_block_bytes=size
                )
                MLOCWriter(SimulatedPFS(), "/g", config).write(field, variable="v")
    return buffers


def _synthetic_corpus() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    out = []
    for size in PROBE_SIZES:
        out += [
            np.zeros(size, dtype=np.uint8),
            np.full(size, 0xA5, dtype=np.uint8),
            np.arange(size).astype(np.uint8),
            np.resize(rng.integers(0, 256, 32, dtype=np.uint8), size),
            rng.integers(0, 256, size, dtype=np.uint8),
        ]
    return out + _flat_alphabet_corpus() + [_on_the_literal_bound()]


def _on_the_literal_bound() -> np.ndarray:
    """64 distinct bytes in 20 runs of byte values: literal bits / 8 +
    code table + frame = 48 + 10 + 6 B is exactly ``n``, which the
    probe does not count as a shrink."""
    starts = np.arange(20) * 12
    values = np.concatenate([s + np.arange(3 + (i >= 16)) for i, s in enumerate(starts)])
    assert values.size == 64
    return np.random.default_rng(2).permutation(values).astype(np.uint8)


def _mixed_batch() -> list[np.ndarray]:
    """One batch across every edge of the batched probe: the sizes it
    never probes (0-3 bytes, 16 KiB and up) and the largest it does,
    and more buffers than one 3-gram sort tags (255)."""
    rng = np.random.default_rng(5)
    out = []
    for size in (0, 1, 2, 3, 4, 5, 16383, 16384):
        out += [np.zeros(size, np.uint8), rng.integers(0, 256, size, dtype=np.uint8)]
    for size in [*rng.integers(4, 400, 100), *rng.integers(4, 24, 400)]:
        kind = rng.integers(3)
        if kind == 0:
            out.append(rng.integers(0, 256, size, dtype=np.uint8))
        elif kind == 1:
            out.append(np.resize(rng.integers(0, 256, 7, dtype=np.uint8), size))
        else:
            out.append(rng.integers(0, 4, size, dtype=np.uint8) + np.uint8(100))
    return out


def _flat_alphabet_corpus() -> list[np.ndarray]:
    """Buffers built to defeat the probe's literal bound.  A run of byte
    values with equal (or near-equal) counts gets equal code lengths,
    which deflate's table codes for a few bits per run, not per value:
    128 values twice each deflate to 253 of 256 bytes.  Past 16 KiB,
    deflate codes the buffer in blocks, and two halves skewed opposite
    ways shrink although their bytes are near-uniform overall."""
    rng = np.random.default_rng(0)

    def shuffled(counts, first=0):
        values = np.arange(first, first + len(counts)) % 256
        return rng.permutation(np.repeat(values, counts).astype(np.uint8))

    out = [shuffled([2] * 128), shuffled([2] * 128, 101), shuffled([2] * 124, 20)]
    out += [shuffled([2] * 120), shuffled([2] * 80 + [4] * 80, 37)]
    out += [shuffled([2, 3] * 68), shuffled([1, 2] * 64)]
    skew = 1 + 0.6 * np.cos(np.arange(256) * np.pi / 128)
    halves = [rng.choice(256, 1 << 15, p=w / w.sum()) for w in (skew, 2 - skew)]
    out.append(np.concatenate(halves).astype(np.uint8))
    out.append(rng.integers(0, 256, 1 << 16, dtype=np.uint8))
    return out


@pytest.fixture()
def deflate_calls(monkeypatch) -> list[int]:
    """Sizes of the buffers ``zlib-bytes`` passes to ``zlib.compress``."""
    calls: list[int] = []

    def compress(data, level):
        calls.append(memoryview(data).nbytes)
        return zlib.compress(data, level)

    monkeypatch.setattr(
        zlib_codec,
        "zlib",
        types.SimpleNamespace(compress=compress, decompressobj=zlib.decompressobj),
    )
    return calls


def _scalar_probe_says_raw(buf: np.ndarray) -> bool:
    """The probe one buffer at a time, as ``zlib-bytes`` ran it before
    it probed batches: the oracle of the batched decision."""
    n = buf.size
    if n < 4:
        return True
    if n >= 1 << 14:
        return False
    log2 = np.log2(np.arange(1 << 14).clip(1)) - (np.arange(1 << 14) == 0)
    counts = np.bincount(buf, minlength=256)
    log2c = log2[counts]
    exps = np.floor(log2c)
    runs = np.count_nonzero(exps[1:] != exps[:-1]) + 1
    literal_bits = n * log2[n] - np.dot(counts, log2c)
    if literal_bits / 8 + 0.25 * runs + 6 < n:
        return False
    grams = np.ndarray((n - 3,), "<u4", buf, strides=(1,)) & 0xFFFFFF
    grams.sort()
    return np.count_nonzero(grams[1:] == grams[:-1]) <= 2 + 2 * n * n / 2**25


def _probe_decisions(batch) -> list[bool]:
    """Whether the batched probe stores each buffer raw."""
    views = [np.frombuffer(data, np.uint8) for data in batch]
    return (~zlib_codec._deflate_may_shrink(views)).tolist()


class TestDeflateProbe:
    """The probe skips deflates whose output ``encode`` would discard,
    and only those: every payload equals the deflate-then-choose one."""

    @pytest.mark.parametrize(
        "corpus", [_plane_corpus, _nested_corpus, _synthetic_corpus, _mixed_batch]
    )
    def test_payload_is_the_deflate_then_choose_payload(self, corpus):
        codec = make_codec("zlib-bytes")
        buffers = corpus()
        assert buffers
        for data in buffers:
            assert codec.encode(data) == _deflate_then_choose(data), len(data)

    @pytest.mark.parametrize(
        "corpus", [_plane_corpus, _nested_corpus, _synthetic_corpus, _mixed_batch]
    )
    def test_one_batch_is_the_deflate_then_choose_payloads(self, corpus):
        """The corpus as one ``encode_many`` batch, as a slab of the
        writer arrives, decides every buffer as the scalar probe did."""
        buffers = corpus()
        assert buffers
        assert _probe_decisions(buffers) == [
            _scalar_probe_says_raw(np.frombuffer(bytes(b), np.uint8)) for b in buffers
        ]
        payloads = make_codec("zlib-bytes").encode_many(buffers)
        assert payloads == [_deflate_then_choose(data) for data in buffers]

    def test_mixed_batch_fills_a_pass(self):
        """The mixed batch holds every unprobed size and fills at least
        one probe pass to its 255 buffers."""
        batch = _mixed_batch()
        assert {0, 1, 2, 3, 4, 16383, 16384} <= {b.size for b in batch}
        sizes = np.array([b.size for b in batch if 4 <= b.size < 1 << 14])
        runs = [hi - lo for lo, hi in zlib_codec._passes(sizes)]
        assert sum(runs) == sizes.size and max(runs) == zlib_codec._PASS_BUFFERS

    def test_most_raw_planes_skip_deflate(self, deflate_calls):
        codec = make_codec("zlib-bytes")
        raw = skipped = 0
        for plane in _plane_corpus():
            before = len(deflate_calls)
            if codec.encode(plane)[0] == 0:
                raw += 1
                skipped += len(deflate_calls) == before
        assert raw > 1000
        assert skipped >= 0.9 * raw, (skipped, raw)

    def test_mloc_col_write_deflate_count(self, deflate_calls):
        """A 96² timestep in 32 bins has 224 data blocks (32 bins × 7
        byte groups), all of which the encode once deflated; its index
        blocks deflate in ``binindex`` and are not counted."""
        fs = SimulatedPFS()
        MLOCWriter(fs, "/g", mloc_col((32, 32), n_bins=32)).write(
            gts_like((96, 96), seed=0), variable="v"
        )
        assert len(deflate_calls) == 53

    @pytest.mark.parametrize("side", [96, 512])
    def test_mloc_col_write_probes_once_per_slab(self, deflate_calls, monkeypatch, side):
        """The writer hands the codec the blocks each slab cuts as one
        batch (the last slab's includes every block still open): a
        write probes at most once per slab plus once at commit, never
        once per block."""
        probe = zlib_codec._deflate_may_shrink
        batches: list[int] = []

        def counted(buffers):
            batches.append(len(buffers))
            return probe(buffers)

        monkeypatch.setattr(zlib_codec, "_deflate_may_shrink", counted)
        field = gts_like((side, side), seed=0)
        MLOCWriter(SimulatedPFS(), "/g", mloc_col((32, 32), n_bins=32)).write(
            field, variable="v"
        )
        n_slabs = -(-field.size // _SLAB_ELEMENTS)
        assert len(batches) <= n_slabs + 1, batches
        assert sum(batches) == 224  # 32 bins x 7 byte groups
        if side == 96:
            assert len(deflate_calls) == 53


class TestDecodeErrorNormalization:
    """Every codec raises :class:`CodecDecodeError` on bad payloads, so
    the read path can catch one exception type across the registry
    (and, being a ``ValueError``, old call sites keep working)."""

    def test_subclasses_value_error(self):
        assert issubclass(CodecDecodeError, ValueError)

    @pytest.mark.parametrize("name", LOSSLESS_FLOAT + ["isabela"])
    def test_truncated_float_payload(self, name, rng):
        codec = make_codec(name)
        v = np.cumsum(rng.normal(0, 0.01, 4096)) + 100.0
        payload = codec.encode(v)
        # Note: the message names the codec that actually failed, which
        # for delegating codecs (zlib-float -> zlib-bytes) is the inner one.
        with pytest.raises(CodecDecodeError, match="cannot decode"):
            codec.decode(payload[: len(payload) // 2], v.size)

    @pytest.mark.parametrize("name", BYTE_CODECS)
    def test_truncated_byte_payload(self, name, rng):
        codec = make_codec(name)
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        payload = codec.encode(data)
        with pytest.raises(CodecDecodeError, match=name):
            codec.decode(payload[: len(payload) // 2], len(data))

    @pytest.mark.parametrize("name", ["zlib-float", "zlib-bytes", "isobar"])
    def test_garbage_payload(self, name):
        codec = make_codec(name)
        garbage = b"\x78\x9c" + b"\xa5" * 500  # zlib header, junk body
        with pytest.raises(CodecDecodeError):
            if isinstance(codec, ByteCodec):
                codec.decode(garbage, 4096)
            else:
                codec.decode(garbage, 512)

    def test_message_names_codec_and_payload_size(self):
        codec = make_codec("zlib-bytes")
        payload = codec.encode(b"hello world" * 100)
        with pytest.raises(CodecDecodeError, match=r"zlib-bytes.*\d+-byte"):
            codec.decode(payload[:5], 1100)


@pytest.mark.parametrize("name", LOSSLESS_FLOAT + ["isabela"])
def test_float_encode_many_is_encode_per_array(name, rng):
    codec = make_codec(name)
    arrays = [rng.normal(size=n) for n in (0, 1, 5, 300)] + [np.full(40, 2.5)]
    assert codec.encode_many(arrays) == [codec.encode(v) for v in arrays]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(LOSSLESS_FLOAT),
    values=st.lists(
        st.floats(allow_nan=False, width=64), min_size=0, max_size=300
    ),
)
def test_lossless_roundtrip_property(name, values):
    codec = make_codec(name)
    v = np.array(values, dtype=np.float64)
    out = codec.decode(codec.encode(v), v.size)
    assert np.array_equal(out.view(np.uint64), v.view(np.uint64))


@st.composite
def _probe_buffers(draw) -> np.ndarray:
    """A buffer of one of the shapes the probe tells apart: uniform or
    skewed bytes, a small or flat alphabet, a repeated pattern."""
    size = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "alphabet", "flat", "pattern", "skew"]))
    if kind == "uniform":
        return rng.integers(0, 256, size, dtype=np.uint8)
    if kind == "alphabet":
        k = draw(st.integers(1, 256))
        return rng.integers(0, k, size, dtype=np.uint8)
    if kind == "flat":
        copies = draw(st.integers(1, 4))
        return rng.permutation(np.resize(np.repeat(np.arange(256), copies), size)).astype(
            np.uint8
        )
    if kind == "pattern":
        period = draw(st.integers(1, 300))
        return np.resize(rng.integers(0, 256, period, dtype=np.uint8), size)
    p = rng.dirichlet(np.full(256, draw(st.floats(0.01, 10.0))))
    return rng.choice(256, size, p=p).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_probe_buffers(), st.binary(max_size=64)), max_size=40))
def test_batched_probe_decides_as_the_scalar_probe(batch):
    assert _probe_decisions(batch) == [
        _scalar_probe_says_raw(np.frombuffer(bytes(b), np.uint8)) for b in batch
    ]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=300), max_size=20))
def test_encode_many_is_encode_per_buffer(batch):
    for name in BYTE_CODECS:
        codec = make_codec(name)
        assert codec.encode_many(batch) == [codec.encode(data) for data in batch]


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=2000))
def test_byte_roundtrip_property(data):
    for name in BYTE_CODECS:
        codec = make_codec(name)
        assert codec.decode(codec.encode(data), len(data)) == data
