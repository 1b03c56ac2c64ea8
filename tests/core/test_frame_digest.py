"""A frame's content digest is computed once per frame object.

Every job submit builds its coalescing key from ``model_fingerprint``, which
hashes the session's frame.  Frames are immutable, so the digest is memoised
on the frame; frames derived from it are new objects with their own digest.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import KPI, cache, frame_fingerprint, model_fingerprint
from repro.frame import DataFrame, add_formula_column


def test_each_frame_object_is_hashed_once(monkeypatch):
    frame = DataFrame({"a": [1.0, 2.0, 3.0], "won": [True, False, True]})
    hashers = []
    blake2b = cache.hashlib.blake2b

    def counting_blake2b(*args, **kwargs):
        hashers.append(kwargs)
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(cache, "hashlib", SimpleNamespace(blake2b=counting_blake2b))
    digest = frame_fingerprint(frame)
    assert frame_fingerprint(frame) == digest
    assert len(hashers) == 1
    kpi = KPI("won", "discrete")
    key = model_fingerprint(frame, kpi, ["a"], None, 0)
    assert model_fingerprint(frame, kpi, ["a"], None, 0) == key
    assert len(hashers) == 3  # one per model key, none for the frame again


def test_derived_frames_get_their_own_digest():
    frame = DataFrame({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    digest = frame_fingerprint(frame)
    derived = [
        frame.with_column(name="a", values=[1.0, 2.0, 4.0]),
        frame.take([0, 1]),
        add_formula_column(frame, "c", "a * 2"),
    ]
    digests = [frame_fingerprint(other) for other in derived]
    assert len(set(digests)) == len(derived) and digest not in digests
    assert frame_fingerprint(frame) == digest
    assert digests[1] == frame_fingerprint(DataFrame({"a": [1.0, 2.0], "b": [4.0, 5.0]}))
