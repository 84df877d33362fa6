"""Extension benchmark: codec compression ratio vs throughput.

Not a numbered table, but the trade-off Section III-B4 describes when
motivating pluggable compression ("flexible block and binning size
adjustment for different compression techniques to achieve best
performance in the desired area, such as compression ratio and
throughput").  Measures, on a paper-like turbulence stream, every
registered float codec's encode/decode wall throughput and ratio.
"""

import numpy as np
import pytest

from repro.compression import make_codec
from repro.harness import format_table, record_result

FLOAT_CODECS = ("zlib-float", "isobar", "isabela", "fpzip-like")


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(5)
    return np.cumsum(rng.normal(0, 0.02, 1 << 20)) + 300.0  # 8 MB


@pytest.mark.parametrize("name", FLOAT_CODECS)
def test_encode(benchmark, stream, name):
    codec = make_codec(name)
    payload = benchmark.pedantic(codec.encode, args=(stream,), rounds=3, iterations=1)
    benchmark.extra_info["ratio"] = round(len(payload) / stream.nbytes, 4)


@pytest.mark.parametrize("name", FLOAT_CODECS)
def test_decode(benchmark, stream, name):
    codec = make_codec(name)
    payload = codec.encode(stream)
    out = benchmark.pedantic(
        codec.decode, args=(payload, stream.size), rounds=3, iterations=1
    )
    assert out.size == stream.size
    benchmark.extra_info["ratio"] = round(len(payload) / stream.nbytes, 4)


def test_codec_tradeoff_report(benchmark, stream, capsys):
    import time

    def compute():
        rows = {}
        for name in FLOAT_CODECS:
            codec = make_codec(name)
            t0 = time.perf_counter()
            payload = codec.encode(stream)
            enc = time.perf_counter() - t0
            t0 = time.perf_counter()
            codec.decode(payload, stream.size)
            dec = time.perf_counter() - t0
            rows[name] = [
                round(len(payload) / stream.nbytes, 3),
                round(stream.nbytes / enc / 1e6, 1),
                round(stream.nbytes / dec / 1e6, 1),
                "lossy" if not codec.lossless else "lossless",
            ]
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ext_codec_tradeoff", rows))
    record_result("ext_codec_tradeoff", {"rows": rows})

    # The paper's qualitative trade-off: ISABELA has the best ratio and
    # the worst throughput; ISOBAR trades ratio for speed.
    assert rows["isabela"][0] < rows["isobar"][0]
    assert rows["isabela"][2] < rows["isobar"][2]
