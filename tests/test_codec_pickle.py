"""Codec picklability audit: the ``processes``-backend contract.

The shared-nothing process backends never ship live codec instances —
work travels as ``(name, params)`` specs and workers rebuild codecs
through the registry.  That only works if every registered codec

* round-trips through pickle (spawn pickles anything that slips into
  a task closure, and derived state like ISABELA's design-matrix lock
  must be dropped and rebuilt, not serialized);
* exposes a ``spec()`` that ``make_codec(spec[0], **dict(spec[1]))``
  rebuilds into an *equivalent* codec — identical encode bytes and
  identical decode results, constructor params included.

This suite audits every registered codec against both rules, so a new
codec that breaks the contract fails here rather than deep inside a
spawned worker.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.compression import (
    ByteCodec,
    codec_names,
    make_codec,
)

#: Non-default constructor params per codec, so the audit also proves
#: params survive spec()/pickle round-trips (not just defaults).
PARAMS = {
    "zlib-bytes": {"level": 4},
    "zlib-float": {"level": 4},
    "isobar": {"threshold": 0.8, "level": 4},
    "fpzip-like": {"threshold": 0.9, "level": 4},
    "isabela": {"window": 256, "n_coeffs": 16, "error_rate": 1e-2, "level": 4},
    "null-bytes": {},
    "null-float": {},
}


def _payload_for(codec):
    rng = np.random.default_rng(11)
    if isinstance(codec, ByteCodec):
        return rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    # ISABELA windows need enough smooth samples; a sine sweep decodes
    # deterministically for every registered float codec.
    return np.sin(np.linspace(0.0, 20.0, 2048)) * 10.0


def _decode_arg(codec, raw):
    return len(raw) if isinstance(codec, ByteCodec) else raw.size


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_audit_covers_every_registered_codec(name):
    assert name in codec_names()


def test_no_unaudited_codecs():
    """A codec registered without a PARAMS entry here is a codec whose
    pickle/spec contract nobody checked — fail loudly."""
    assert sorted(codec_names()) == sorted(PARAMS)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_pickle_roundtrip_preserves_behavior(name):
    codec = make_codec(name, **PARAMS[name])
    raw = _payload_for(codec)
    expected = codec.encode(raw)

    clone = pickle.loads(pickle.dumps(codec))
    assert clone.encode(raw) == expected
    decoded = clone.decode(expected, _decode_arg(codec, raw))
    if isinstance(codec, ByteCodec):
        assert bytes(decoded) == bytes(codec.decode(expected, len(raw)))
    else:
        assert np.array_equal(decoded, codec.decode(expected, raw.size))


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_spec_rebuilds_equivalent_codec(name):
    codec = make_codec(name, **PARAMS[name])
    spec = codec.spec()
    assert spec == (name, tuple(sorted(PARAMS[name].items())))
    rebuilt = make_codec(spec[0], **dict(spec[1]))
    assert type(rebuilt) is type(codec)
    raw = _payload_for(codec)
    assert rebuilt.encode(raw) == codec.encode(raw)


def test_spec_params_default_empty():
    codec = make_codec("zlib-bytes")
    assert codec.spec() == ("zlib-bytes", ())
    name, params = codec.spec()
    assert make_codec(name, **dict(params)).encode(b"x" * 64) == codec.encode(b"x" * 64)


def test_isabela_pickle_drops_design_cache_and_lock():
    """ISABELA keeps a thread lock and a per-window design-matrix
    cache; pickling must drop both (locks don't pickle, caches are
    derived state) and unpickling must rebuild a usable instance."""
    codec = make_codec("isabela", window=256, n_coeffs=16)
    raw = _payload_for(codec)
    payload = codec.encode(raw)  # populates the design cache
    assert codec._design  # the cache is actually exercised
    state = codec.__getstate__()
    assert "_design_lock" not in state
    assert state["_design"] == {}
    clone = pickle.loads(pickle.dumps(codec))
    assert clone._design == {}
    assert clone.encode(raw) == payload
    assert np.array_equal(
        clone.decode(payload, raw.size), codec.decode(payload, raw.size)
    )
