"""Unit tests for the request/response protocol and serialisation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.frame import Column, DataFrame
from repro.server import (
    ACTIONS,
    ProtocolError,
    Request,
    Response,
    dumps,
    frame_preview,
    to_json_safe,
)


class TestRequest:
    def test_valid_actions(self):
        for action in ACTIONS:
            assert Request(action=action).action == action

    def test_unknown_action_rejected(self):
        with pytest.raises(ProtocolError):
            Request(action="drop_tables")


class TestResponse:
    def test_success_and_failure_constructors(self):
        ok = Response.success({"value": 1}, request_id="r1", elapsed_ms=2.0)
        assert ok.ok and ok.data == {"value": 1} and ok.error == ""
        bad = Response.failure("boom", request_id="r1")
        assert not bad.ok and bad.error == "boom"

    def test_to_dict_json_serialisable(self):
        payload = Response.success({"x": 1.5}).to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestSerialization:
    def test_numpy_scalars_and_arrays(self):
        payload = to_json_safe(
            {"a": np.int64(3), "b": np.float64(2.5), "c": np.array([1, 2]), "d": np.bool_(True)}
        )
        assert payload == {"a": 3, "b": 2.5, "c": [1, 2], "d": True}

    def test_nan_and_inf_become_none(self):
        assert to_json_safe(float("nan")) is None
        assert to_json_safe(np.float64("inf")) is None

    def test_nested_structures(self):
        payload = to_json_safe({"list": [np.float32(1.0), {"inner": (1, 2)}]})
        assert payload == {"list": [1.0, {"inner": [1, 2]}]}

    def test_frame_serialisation(self):
        frame = DataFrame({"x": [1, 2], "name": Column("name", ["a", "b"], dtype="string")})
        payload = to_json_safe(frame)
        assert payload["columns"] == ["x", "name"]
        assert payload["records"][0] == {"x": 1, "name": "a"}

    def test_objects_with_to_dict(self):
        class Thing:
            def to_dict(self):
                return {"value": np.int64(7)}

        assert to_json_safe(Thing()) == {"value": 7}

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            to_json_safe(object())

    def test_frame_preview_limits_rows(self):
        frame = DataFrame({"x": list(range(100))})
        preview = frame_preview(frame, max_rows=10)
        assert preview["n_rows"] == 100
        assert len(preview["rows"]) == 10

    def test_dumps_produces_valid_json(self):
        text = dumps({"x": np.arange(3)})
        assert json.loads(text) == {"x": [0, 1, 2]}
