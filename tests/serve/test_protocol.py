"""Wire-protocol contract: parsing, validation, op -> TaskSpec mapping."""

import dataclasses
import json
import tempfile
import typing
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric import (
    ResultCache,
    TaskResult,
    encode_value,
    get_job_kind,
    lookup_task,
    task_key,
)
from repro.fabric.jobs import CellParams, RuntimeParams, VerifyParams
from repro.interp import get_default_backend
from repro.serve import (
    ERROR_CODES,
    FABRIC_OPS,
    INLINE_OPS,
    ProtocolError,
    Request,
    encode_ok,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
    to_task_spec,
)
from repro.serve.daemon import ServeDaemon
from repro.session import CompilerSession


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
        for req_id in ("abc", 7, -1.5, True, None):
            assert parse_request(_frame(op="ping", id=req_id)).id == req_id

    @pytest.mark.parametrize("line", [
        b'{"id": {"b": [1, NaN]}, "op": "ping"}',
        b'{"id": [1], "op": "ping"}',
        b'{"id": {}, "op": "ping"}',
        b'{"id": NaN, "op": "ping"}',
        b'{"id": 1e400, "op": "ping"}',
        b'{"op": "ping", "deadline_s": NaN}',
        b'{"op": "ping", "deadline_s": Infinity}',
        b'{"op": "ping", "deadline_s": 1e999}',
        b'{"op": "compile", "params": {"seed": -Infinity}}',
    ])
    def test_non_json_numbers_and_non_scalar_ids_are_bad_request(
        self, line
    ):
        # Such an id cannot be echoed in a strict JSON reply, and such a
        # deadline never expires: the frame is refused as a whole.
        with pytest.raises(ProtocolError) as exc:
            parse_request(line)
        assert exc.value.code == "bad-request"

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
        assert spec.params == CellParams(
            use_synthesized=True, lift_strategy="greedy"
        )

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
        # the runtime params' defaults: no Rake, not leave-one-out (unlike
        # Figure 5), on the process-default backend
        assert spec.params == RuntimeParams(
            with_rake=False, leave_one_out=False, lift_strategy="greedy",
            eval_backend=get_default_backend(),
        )

    def test_verify_rule_defaults_mirror_the_cli_budget(self):
        spec = to_task_spec(parse_request(_frame(
            op="verify-rule",
            params={"ruleset": "lifting-hand", "rule": "lift-widening-add"},
        )))
        assert spec.key == ("lifting-hand", "lift-widening-add")
        assert spec.params == VerifyParams(
            seed=0, max_type_combos=6, max_const_samples=4, max_points=400,
            eval_backend=get_default_backend(),
        )

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

    @pytest.mark.parametrize("op, param, value", [
        ("verify-rule", "seed", True),  # a bool is not an int ...
        ("lint", "use_synthesized", 1),  # ... nor an int a bool
        ("evaluate", "eval_backend", "fortran"),
        ("coverage", "lift_strategy", "greedy "),
    ])
    def test_bad_value_names_the_param(self, op, param, value):
        req = Request(op=op, params=dict(_KEYS[op], **{param: value}))
        with pytest.raises(ProtocolError, match=param) as exc:
            to_task_spec(req)
        assert exc.value.code == "bad-request"

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


#: valid key params of each fabric op
_KEYS = {
    op: {"workload": "add", "target": "arm-neon"} for op in FABRIC_OPS
}
_KEYS["verify-rule"] = {
    "ruleset": "lifting-hand", "rule": "lift-widening-add",
}

#: JSON values of every type
_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _values(f: dataclasses.Field):
    """Any JSON value, plus the field's choices and, for a bounded
    field, its minimum - 1, its minimum and a huge int."""
    options = [_json]
    if f.metadata.get("choices"):
        options.append(st.sampled_from(f.metadata["choices"]))
    minimum = f.metadata.get("minimum")
    if minimum is not None:
        options.append(st.sampled_from([minimum - 1, minimum, 10 ** 30]))
    return st.one_of(options)


@st.composite
def _requests(draw):
    """``(op, params, unknown names)`` drawn from the op's fields; now
    and then a key param is any JSON value instead."""
    op = draw(st.sampled_from(sorted(FABRIC_OPS)))
    fields = dataclasses.fields(get_job_kind(FABRIC_OPS[op]).params)
    params = dict(_KEYS[op])
    for name in _KEYS[op]:
        if draw(st.integers(0, 9)) == 0:
            params[name] = draw(_json)
    for f in fields:
        if draw(st.booleans()):
            params[f.name] = draw(_values(f))
    known = set(params) | {f.name for f in fields}
    unknown = draw(st.lists(
        st.text(min_size=1, max_size=12).filter(lambda n: n not in known),
        max_size=2, unique=True,
    ))
    for name in unknown:
        params[name] = draw(_json)
    return op, params, unknown


class TestParamSpace:
    @given(_requests())
    @example(("compile",
              dict(_KEYS["compile"], **{"lift-strategy": "egraph"}),
              ["lift-strategy"]))
    @example(("verify-rule", dict(_KEYS["verify-rule"], backend="numpy"),
              ["backend"]))
    @settings(max_examples=300, deadline=None)
    def test_every_request_maps_or_is_bad_request(self, case):
        op, params, unknown = case
        try:
            spec = to_task_spec(Request(op=op, params=params))
        except ProtocolError as exc:
            assert exc.code == "bad-request"
            if unknown and all(params[k] == v
                               for k, v in _KEYS[op].items()):
                # past the key, an unknown name is rejected first
                assert any(n in exc.message for n in unknown)
            return
        assert not unknown, "an unknown param must be a bad-request"
        assert spec.kind == FABRIC_OPS[op]
        assert type(spec.params) is get_job_kind(spec.kind).params


def _spellings(value):
    """The JSON spellings of a number: ``false``, ``0`` and ``0.0`` for
    zero, ``true``, ``1`` and ``1.0`` for one, else int and float."""
    if not (isinstance(value, (int, float)) and abs(value) < 2 ** 53
            and value == int(value)):
        return [value]
    number = int(value)
    spellings = [number, float(number)]
    if number in (0, 1):
        spellings.append(bool(number))
    return spellings


@st.composite
def _boundary_requests(draw):
    """``(op, params)`` of a valid request, each param it sets at a
    boundary: a choice, a bounded int's minimum or one past it, another
    int's 0 or 1, either bool."""
    op = draw(st.sampled_from(sorted(FABRIC_OPS)))
    params = dict(_KEYS[op])
    cls = get_job_kind(FABRIC_OPS[op]).params
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if not draw(st.booleans()):
            continue
        minimum = f.metadata.get("minimum")
        if f.metadata.get("choices"):
            values = f.metadata["choices"]
        elif hints[f.name] is bool:
            values = (False, True)
        elif minimum is not None:
            values = (minimum, minimum + 1)
        else:
            values = (0, 1)
        params[f.name] = draw(st.sampled_from(values))
    return op, params


@st.composite
def _streams(draw):
    """Requests drawn again and again from a few valid ones
    (:func:`_boundary_requests`) and a few of any kind
    (:func:`_requests`), now and then with each number respelled."""
    base = draw(st.lists(
        _boundary_requests() | _requests().map(lambda case: case[:2]),
        min_size=1, max_size=3,
    ))
    stream = []
    for op, params in draw(st.lists(st.sampled_from(base), min_size=1,
                                    max_size=20)):
        if draw(st.booleans()):
            params = {name: draw(st.sampled_from(_spellings(value)))
                      for name, value in params.items()}
        stream.append(Request(op=op, params=params))
    return stream


class TestHitMemo:
    """The daemon's admission, through its memo of hits, is a fresh
    :func:`to_task_spec` plus :func:`task_key` for every request."""

    @given(_streams())
    @example([Request(op="verify-rule", params=dict(
        _KEYS["verify-rule"], seed=seed)) for seed in (0, 0, False, 0.0, 0)])
    @settings(max_examples=200, deadline=None)
    def test_admission_equals_a_fresh_derivation(self, stream):
        with tempfile.TemporaryDirectory() as root, \
                mock.patch("repro.serve.daemon.HIT_MEMO_ENTRIES", 1):
            cache = ResultCache(root=root)
            daemon = ServeDaemon(session=CompilerSession(cache=cache))
            try:
                for req in stream:
                    try:
                        spec = to_task_spec(req)
                        fresh = (spec, task_key(spec, cache))
                    except ProtocolError as exc:
                        fresh = exc.code
                    try:
                        spec, key, hit = daemon._admit(req)
                        admitted = (spec, key)
                    except ProtocolError as exc:
                        admitted, hit = exc.code, None
                    assert admitted == fresh
                    # the memo holds only hits, within its bound
                    assert len(daemon._hits) <= 1
                    for held, held_key in daemon._hits.values():
                        assert cache.get(held.kind, held_key)[0]
                    if isinstance(admitted, tuple) and hit is None:
                        cache.put(spec.kind, key, {"stub": True})
            finally:
                daemon._pump.shutdown()


@pytest.fixture
def sweep_cells(monkeypatch):
    """The specs the sweeps build; no cell runs (each one fails)."""
    specs = []

    def run_tasks(batch, **_kw):
        specs.extend(batch)
        return [TaskResult(s, ok=False, error="not run") for s in batch]

    # every sweep reaches the scheduler through CompilerSession.run_tasks
    monkeypatch.setattr("repro.fabric.run_tasks", run_tasks)
    return specs


class TestDefaultsAreShared:
    """A default daemon request is the matching sweep's cell: the same
    task, hence the same cache entry."""

    def _same_task(self, op, params, cell, tmp_path):
        spec = to_task_spec(Request(op=op, params=params))
        assert spec == cell
        cache = ResultCache(root=str(tmp_path))
        assert lookup_task(spec, cache)[1] == lookup_task(cell, cache)[1]

    def test_cell_ops_match_coverage_and_lint(self, sweep_cells, tmp_path):
        from repro.evaluation.coverage import run_coverage
        from repro.lint.machinelint import run_machine_lint

        run_coverage(workload_names=["add"])
        run_machine_lint(workload_names=["add"])
        coverage, lint = (
            next(s for s in sweep_cells
                 if s.kind == kind and s.key == ("add", "arm-neon"))
            for kind in ("coverage", "machinelint")
        )
        params = dict(_KEYS["compile"])
        self._same_task("coverage", params, coverage, tmp_path)
        self._same_task("lint", params, lint, tmp_path)
        self._same_task(
            "compile", params,
            dataclasses.replace(coverage, kind="compile"), tmp_path,
        )

    def test_verify_rule_matches_rules_verify(self, sweep_cells, tmp_path,
                                              capsys):
        from repro.__main__ import main

        main(["rules", "--verify"])  # fails: no verdict was computed
        capsys.readouterr()
        cell = next(s for s in sweep_cells
                    if s.key == ("lifting-hand", "lift-widening-add"))
        assert cell.params.eval_backend == get_default_backend()
        self._same_task("verify-rule", dict(_KEYS["verify-rule"]), cell,
                        tmp_path)

    def test_evaluate_matches_figure5(self, sweep_cells, tmp_path):
        from repro.evaluation.runtime import run_runtime_evaluation

        # Figure 5 stops at its first failed cell, after building them all
        with pytest.raises(RuntimeError, match="runtime cell"):
            run_runtime_evaluation(workload_names=["add"])
        cell = next(s for s in sweep_cells if s.key == ("add", "arm-neon"))
        assert cell.params.eval_backend == get_default_backend()
        self._same_task(
            "evaluate",
            dict(_KEYS["evaluate"], with_rake=True, leave_one_out=True),
            cell, tmp_path,
        )


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


#: request ids: JSON scalars of every type
_ids = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([10 ** 30, -(2 ** 70)]) | st.floats() | st.text()
)
#: results: nested dicts (keys drawn unsorted), lists, floats, text
_results = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.characters(), max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=20,
)


class TestOkFrame:
    @given(req_id=_ids, value=_results,
           seconds=st.floats(min_value=0.0, allow_infinity=False))
    @example(req_id="\u00e9\"\n",
             value={"z": [0.1, "\u2603"], "a": {"y": 1, "b": None}},
             seconds=0.0)
    @settings(max_examples=300, deadline=None)
    def test_spliced_frame_is_the_encoded_reply(self, req_id, value,
                                                 seconds):
        for cached in (True, False):
            assert encode_ok(
                req_id, encode_value(value), cached, seconds
            ) == encode_reply(ok_reply(req_id, value, cached, seconds))
