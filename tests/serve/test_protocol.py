"""Wire-protocol contract: parsing, validation, op -> TaskSpec mapping."""

import json

import pytest

from repro.serve import (
    ERROR_CODES,
    FABRIC_OPS,
    INLINE_OPS,
    ProtocolError,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
    to_task_spec,
)


def _frame(**doc) -> bytes:
    return (json.dumps(doc) + "\n").encode()


class TestParseRequest:
    def test_minimal_frame(self):
        req = parse_request(_frame(op="ping"))
        assert req.op == "ping"
        assert req.id is None
        assert req.params == {}
        assert req.deadline_s is None

    def test_full_frame(self):
        req = parse_request(_frame(
            id=7, op="compile",
            params={"workload": "add", "target": "arm-neon"},
            deadline_s=5,
        ))
        assert req.id == 7
        assert req.params["workload"] == "add"
        assert req.deadline_s == 5.0

    def test_id_is_any_scalar_echoed_verbatim(self):
        assert parse_request(_frame(op="ping", id="abc")).id == "abc"

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2]\n",
        b'"just a string"\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_frames_are_bad_request(self, line):
        with pytest.raises(ProtocolError) as exc:
            parse_request(line)
        assert exc.value.code == "bad-request"

    def test_missing_op_is_bad_request(self):
        with pytest.raises(ProtocolError, match="op"):
            parse_request(_frame(id=1))

    @pytest.mark.parametrize("deadline", [0, -1, "5", True])
    def test_bad_deadline_is_bad_request(self, deadline):
        with pytest.raises(ProtocolError, match="deadline_s"):
            parse_request(_frame(op="ping", deadline_s=deadline))

    def test_non_object_params_is_bad_request(self):
        with pytest.raises(ProtocolError, match="params"):
            parse_request(_frame(op="ping", params=[1]))


class TestToTaskSpec:
    def test_compile_maps_to_compile_kind(self):
        req = parse_request(_frame(
            op="compile",
            params={"workload": "add", "target": "arm-neon"},
        ))
        spec = to_task_spec(req)
        assert spec.kind == "compile"
        assert spec.key == ("add", "arm-neon")
        assert spec.params == (True, "greedy")

    def test_every_fabric_op_maps_to_its_kind(self):
        base = {"workload": "add", "target": "arm-neon"}
        cases = {
            "compile": base,
            "coverage": base,
            "lint": base,
            "evaluate": base,
            "verify-rule": {
                "ruleset": "lifting-hand", "rule": "lift-widening-add",
            },
        }
        for op, params in cases.items():
            spec = to_task_spec(parse_request(_frame(op=op, params=params)))
            assert spec.kind == FABRIC_OPS[op]

    def test_evaluate_defaults_mirror_the_sweep_shape(self):
        spec = to_task_spec(parse_request(_frame(
            op="evaluate",
            params={"workload": "mul", "target": "x86-avx2"},
        )))
        # (with_rake, leave_one_out, strategy, backend)
        assert spec.params == (False, False, "greedy", "closure")

    def test_verify_rule_defaults_mirror_the_cli_budget(self):
        spec = to_task_spec(parse_request(_frame(
            op="verify-rule",
            params={"ruleset": "lifting-hand", "rule": "lift-widening-add"},
        )))
        assert spec.key == ("lifting-hand", "lift-widening-add")
        assert spec.params == (0, 6, 4, 400, "closure")

    def test_unknown_workload_fails_eagerly(self):
        req = parse_request(_frame(
            op="compile", params={"workload": "nope", "target": "arm-neon"},
        ))
        with pytest.raises(ProtocolError, match="nope") as exc:
            to_task_spec(req)
        assert exc.value.code == "bad-request"

    def test_unknown_target_fails_eagerly(self):
        req = parse_request(_frame(
            op="compile", params={"workload": "add", "target": "vax-780"},
        ))
        with pytest.raises(ProtocolError, match="vax-780"):
            to_task_spec(req)

    def test_unknown_rule_fails_eagerly(self):
        req = parse_request(_frame(
            op="verify-rule",
            params={"ruleset": "lifting-hand", "rule": "no-such-rule"},
        ))
        with pytest.raises(ProtocolError, match="no-such-rule"):
            to_task_spec(req)

    def test_missing_param_names_the_param(self):
        req = parse_request(_frame(op="compile", params={"workload": "add"}))
        with pytest.raises(ProtocolError, match="'target'"):
            to_task_spec(req)

    def test_wrong_param_type_is_bad_request(self):
        req = parse_request(_frame(
            op="compile",
            params={"workload": "add", "target": "arm-neon",
                    "use_synthesized": "yes"},
        ))
        with pytest.raises(ProtocolError, match="use_synthesized"):
            to_task_spec(req)

    @pytest.mark.parametrize("max_points", [0, -1])
    def test_verify_rule_without_grid_points_is_bad_request(self,
                                                            max_points):
        # the verifier cannot thin a grid below one point, so such a
        # request must not reach a worker
        req = parse_request(_frame(
            op="verify-rule",
            params={"ruleset": "lifting-hand", "rule": "lift-widening-add",
                    "max_points": max_points},
        ))
        with pytest.raises(ProtocolError, match="max_points") as exc:
            to_task_spec(req)
        assert exc.value.code == "bad-request"

    @pytest.mark.parametrize("param", ["max_type_combos",
                                       "max_const_samples"])
    @pytest.mark.parametrize("budget", [0, -1])
    def test_verify_rule_budget_below_one_is_bad_request(self, param,
                                                        budget):
        # such a budget gives a wrong verdict, which the daemon would
        # cache
        req = parse_request(_frame(
            op="verify-rule",
            params={"ruleset": "lifting-hand", "rule": "lift-widening-add",
                    param: budget},
        ))
        with pytest.raises(ProtocolError, match=param) as exc:
            to_task_spec(req)
        assert exc.value.code == "bad-request"

    def test_inline_op_is_not_a_fabric_op(self):
        for op in INLINE_OPS:
            with pytest.raises(ProtocolError) as exc:
                to_task_spec(parse_request(_frame(op=op)))
            assert exc.value.code == "unknown-op"


class TestReplies:
    def test_ok_reply_shape(self):
        reply = ok_reply(3, {"x": 1}, cached=True, seconds=0.5)
        assert reply == {
            "id": 3, "ok": True, "result": {"x": 1},
            "cached": True, "seconds": 0.5,
        }

    def test_error_reply_shape_and_code_vocabulary(self):
        reply = error_reply(None, "deadline", "too slow")
        assert reply["ok"] is False
        assert reply["error"]["code"] in ERROR_CODES
        with pytest.raises(AssertionError):
            error_reply(1, "not-a-code", "boom")

    def test_encode_reply_is_one_compact_line(self):
        data = encode_reply(ok_reply(1, [1, 2]))
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert json.loads(data)["result"] == [1, 2]
