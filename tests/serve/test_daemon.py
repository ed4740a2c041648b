"""Daemon contract: per-miss tasks, byte-identity, deadlines, drain,
/metrics.

The daemon under test runs a real asyncio event loop on a background
thread; clients talk to it over real sockets, exactly as production
does.  One warm daemon (module scope) serves most tests; lifecycle
tests that must observe a shutdown start their own.
"""

import asyncio
import gc
import json
import os
import socket
import threading
import time
import types
import urllib.request
import weakref

import pytest

from repro.__main__ import main
from repro.fabric import ResultCache, TaskSpec, run_tasks
from repro.fabric.jobs import CellParams
from repro.serve import ServeClient, ServeDaemon, ServeError
from repro.serve import daemon as daemon_module
from repro.serve.daemon import CACHE_COUNTS, LINE_LIMIT, OP_LABELS
from repro.serve.protocol import encode_reply
from repro.session import CompilerSession

#: verify-rule seeds from here on sleep under the ``slow_verify`` fixture
SLOW_SEEDS = 10_000


def _verify(seed, **frame):
    """A small verify-rule request frame; a fresh seed makes a miss."""
    return dict(frame, op="verify-rule", params={
        "ruleset": "lifting-hand", "rule": "lift-widening-add",
        "seed": seed, "max_type_combos": 2, "max_const_samples": 2,
        "max_points": 50,
    })


def _start_daemon(**daemon_kwargs):
    """Run a ServeDaemon on its own thread; returns a handle dict."""
    holder = {}
    ready = threading.Event()

    async def amain():
        daemon = ServeDaemon(**daemon_kwargs)
        await daemon.start(metrics_port=0)
        holder["daemon"] = daemon
        holder["loop"] = asyncio.get_running_loop()
        ready.set()
        await daemon._stopped.wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(amain()), daemon=True
    )
    thread.start()
    assert ready.wait(120), "daemon failed to start"
    holder["thread"] = thread
    return holder


def _task_pids(trace, kind):
    """The pids of the ``task:<kind>`` spans in a Chrome trace file."""
    events = json.loads(trace.read_text())
    if isinstance(events, dict):
        events = events["traceEvents"]
    return {ev["pid"] for ev in events if ev.get("name") == f"task:{kind}"}


def _stop_daemon(holder) -> None:
    daemon = holder["daemon"]
    if not daemon._stopped.is_set():
        asyncio.run_coroutine_threadsafe(
            daemon.shutdown(), holder["loop"]
        ).result(timeout=60)
    holder["thread"].join(timeout=60)
    assert not holder["thread"].is_alive()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache = ResultCache(
        root=str(tmp_path_factory.mktemp("serve-cache"))
    )
    holder = _start_daemon(session=CompilerSession(cache=cache))
    yield holder
    _stop_daemon(holder)


@pytest.fixture
def client(served):
    with ServeClient(port=served["daemon"].address[1]) as c:
        yield c


class TestRequestReply:
    def test_ping_round_trip(self, client):
        pong = client.ping()
        assert pong["pong"] is True
        assert pong["protocol"] == 1

    def test_compile_reply_matches_cli_bytes(self, client, capsys):
        # THE golden contract: a daemon compile reply is byte-identical
        # to the one-shot CLI output for the same request.
        result = client.compile("gaussian3x3", "arm-neon")
        assert main(["compile", "gaussian3x3", "--target", "arm-neon"]) == 0
        assert capsys.readouterr().out == result["listing"] + "\n\n"

    def test_client_cli_is_byte_identical_too(self, served, capsys):
        port = str(served["daemon"].address[1])
        assert main(["compile", "sobel3x3", "--target", "x86-avx2"]) == 0
        oneshot = capsys.readouterr().out
        assert main(["client", "--port", port,
                     "compile", "sobel3x3", "--target", "x86-avx2"]) == 0
        assert capsys.readouterr().out == oneshot

    def test_replies_match_by_id_not_position(self, client):
        # An inline ping answered instantly must not steal the reply
        # slot of a slower compile pipelined before it.
        replies = client.batch([
            ("compile", {"workload": "add", "target": "arm-neon"}),
            ("ping", {}),
            ("compile", {"workload": "mul", "target": "arm-neon"}),
        ])
        assert [r["ok"] for r in replies] == [True, True, True]
        assert replies[0]["result"]["workload"] == "add"
        assert replies[1]["result"]["pong"] is True
        assert replies[2]["result"]["workload"] == "mul"

    def test_warm_cache_round_trip(self, client):
        params = {"workload": "l2norm", "target": "arm-neon"}
        first = client.request("compile", dict(params))
        second = client.request("compile", dict(params))
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_cache_stats_op(self, client):
        stats = client.cache_stats()
        assert stats["entries"] >= 1
        assert "compile" in stats["by_kind"]
        assert stats["kind_bytes"]["compile"] > 0

    def test_verify_rule_op(self, client):
        reply = client.request("verify-rule", {
            "ruleset": "lifting-hand", "rule": "lift-widening-add",
            "max_type_combos": 2, "max_const_samples": 2,
            "max_points": 50,
        })
        assert reply["ok"] is True

    def test_verify_rule_op_takes_lowering_sets(self, client):
        # verified only at its edge constant, c0 = 31
        reply = client.request("verify-rule", {
            "ruleset": "arm-neon", "rule": "arm-sqrdmulh-32", "seed": 1,
        })
        assert reply["ok"] is True and reply["result"]["ok"] is True
        assert reply["result"]["notes"] == [
            "predicate satisfied only at edge constants"]

    def test_coverage_reply_is_the_fire_table(self, client):
        params = {"workload": "sobel3x3", "target": "arm-neon"}
        first = client.request("coverage", dict(params))
        (inproc,) = run_tasks([
            TaskSpec("coverage", ("sobel3x3", "arm-neon"), CellParams())
        ])
        assert first["cached"] is False
        assert first["result"] == inproc.value
        assert ["lower", "arm-uabd", "hand", 2] in first["result"]
        second = client.request("coverage", dict(params))
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_lint_op(self, client):
        reply = client.request("lint", {
            "workload": "add", "target": "arm-neon",
        })
        assert reply["ok"] is True


class TestMemoryTier:
    def test_warm_hit_survives_its_entry_file(self, served):
        # The first warm hit reads the entry file and keeps its text in
        # memory; with the file gone, the next hit is the same bytes.
        cache = served["daemon"].session.cache
        line = (json.dumps({"id": "w", "op": "compile", "params": {
            "workload": "max_pool", "target": "x86-avx2"}}) + "\n").encode()

        def entries():
            return {os.path.join(d, f) for d, _s, files in os.walk(cache.root)
                    for f in files if f.endswith(".json")}

        before = entries()
        with socket.create_connection(served["daemon"].address) as sock, \
                sock.makefile("rwb") as stream:

            def ask():
                stream.write(line)
                stream.flush()
                return stream.readline()

            cold = ask()
            (entry,) = entries() - before
            warm = ask()
            memory_hits = cache.memory_hits
            os.unlink(entry)
            again = ask()
        assert json.loads(cold)["cached"] is False
        assert json.loads(warm)["cached"] is True
        assert again == warm
        assert cache.memory_hits == memory_hits + 1


class TestHitMemo:
    """A hit's spec and key are derived once per distinct request: the
    daemon keeps them in a bounded memo of the requests that hit."""

    def test_memoized_hit_is_the_first_hit_and_types_stay_apart(
        self, served, monkeypatch
    ):
        derived = []
        task_key = daemon_module.task_key
        monkeypatch.setattr(daemon_module, "task_key",
                            lambda *a: derived.append(a) or task_key(*a))
        frame = _verify(0, id="m")

        def respelled(seed):
            return dict(frame, params=dict(frame["params"], seed=seed))

        with socket.create_connection(served["daemon"].address) as sock, \
                sock.makefile("rwb") as stream:

            def ask(doc):
                stream.write((json.dumps(doc) + "\n").encode())
                stream.flush()
                return stream.readline()

            ask(frame)  # a miss, unless an earlier test cached it
            first = ask(frame)
            before = len(derived)
            memoized = ask(frame)
            spelled = [json.loads(ask(respelled(s))) for s in (False, 0.0)]
            again = ask(frame)
        assert json.loads(first)["cached"] is True
        assert memoized == again == first
        assert len(derived) == before  # neither derived its key again
        assert [r["error"]["code"] for r in spelled] == ["bad-request"] * 2
        assert "must be int" in spelled[0]["error"]["message"]

    def test_memo_holds_only_hits_within_its_bound(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(daemon_module, "HIT_MEMO_ENTRIES", 2)
        cache = ResultCache(root=str(tmp_path))
        holder = _start_daemon(session=CompilerSession(cache=cache))
        daemon = holder["daemon"]
        cells = [("compile", {"workload": w, "target": "arm-neon"})
                 for w in ("add", "mul", "max_pool")]
        try:
            with ServeClient(port=daemon.address[1]) as c:
                c.batch(cells)
                after_misses = len(daemon._hits)
                warm = [c.batch(cells) for _ in range(3)]
                held = list(daemon._hits.values())
                cache.clear()
                cold_again = c.batch(cells)
                after_clear = len(daemon._hits)
        finally:
            _stop_daemon(holder)
        assert after_misses == 0
        assert all(r["cached"] for batch in warm for r in batch)
        results = [[r["result"] for r in batch] for batch in warm]
        assert results[0] == results[1] == results[2]
        assert len(held) == 2
        assert all(cache.get(spec.kind, key)[0] for spec, key in held)
        # a memoized request that misses leaves the memo
        assert not any(r["cached"] for r in cold_again)
        assert after_clear == 0


class TestPerRequestReplies:
    """Each request is answered when its own work is done: a hit at
    admission, a miss when its own task finishes, never held behind
    another miss while a worker is idle."""

    @pytest.fixture
    def slow_verify(self, monkeypatch):
        """Verifications with a seed >= SLOW_SEEDS sleep first.  The
        returned ``finished`` event is set once a slow one has finished,
        and ``seeds`` lists the seeds whose body ran in this process."""
        import repro.verify as verify_mod

        real = verify_mod.verify_rule
        spy = types.SimpleNamespace(finished=threading.Event(), seeds=[])

        def verify_rule(rule, seed=0, **kwargs):
            spy.seeds.append(seed)
            if seed < SLOW_SEEDS:
                return real(rule, seed=seed, **kwargs)
            time.sleep(0.5)
            try:
                return real(rule, seed=seed, **kwargs)
            finally:
                spy.finished.set()

        monkeypatch.setattr(verify_mod, "verify_rule", verify_rule)
        return spy

    def test_hit_is_never_held_behind_a_miss(self, served, slow_verify):
        params = {"workload": "softmax", "target": "hexagon-hvx"}
        with ServeClient(port=served["daemon"].address[1]) as c:
            cold = c.request("compile", params)
            assert cold["cached"] is False
            c.send(_verify(SLOW_SEEDS + 1, id="slow"))
            c.send({"id": "hit", "op": "compile", "params": params})
            hit = c.recv()
            assert hit["id"] == "hit"
            assert not slow_verify.finished.is_set()
            assert encode_reply(hit) == encode_reply(
                dict(cold, id="hit", cached=True, seconds=0.0)
            )
            slow = c.recv()
        assert slow["id"] == "slow" and slow["ok"] is True
        assert slow_verify.finished.is_set()

    def test_miss_is_answered_when_its_own_task_finishes(
        self, served, slow_verify
    ):
        with ServeClient(port=served["daemon"].address[1]) as c:
            c.send(_verify(7001, id="fast"))
            c.send(_verify(SLOW_SEEDS + 2, id="slow"))
            fast = c.recv()
            assert fast["id"] == "fast"
            assert not slow_verify.finished.is_set()
            slow = c.recv()
        assert fast["ok"] is True and fast["cached"] is False
        assert slow["id"] == "slow" and slow["ok"] is True

    def test_pool_answers_each_miss_when_its_worker_finishes(
        self, tmp_path, slow_verify
    ):
        # Patched before the pool forks, so the workers inherit the slow
        # verifier; the fast miss finishes on the other worker first.
        trace = tmp_path / "serve-trace.json"
        holder = _start_daemon(
            session=CompilerSession(jobs=2),
            trace_path=str(trace),
        )
        daemon = holder["daemon"]
        try:
            with ServeClient(port=daemon.address[1]) as c:
                c.send(_verify(SLOW_SEEDS + 3, id="slow"))
                c.send(_verify(7002, id="fast"))
                replies = [c.recv(), c.recv()]
        finally:
            _stop_daemon(holder)
        assert [r["id"] for r in replies] == ["fast", "slow"]
        assert all(r["ok"] for r in replies)
        workers = _task_pids(trace, "verify-rule")
        assert len(workers) == 2 and os.getpid() not in workers

    def test_pooled_lone_miss_runs_in_a_worker(self, tmp_path):
        # A pooled daemon sends every miss to a worker, even one alone.
        trace = tmp_path / "serve-trace.json"
        holder = _start_daemon(
            session=CompilerSession(jobs=2),
            trace_path=str(trace),
        )
        try:
            with ServeClient(port=holder["daemon"].address[1]) as c:
                reply = c.request("verify-rule", _verify(7003)["params"])
        finally:
            _stop_daemon(holder)
        assert reply["ok"] is True
        workers = _task_pids(trace, "verify-rule")
        assert len(workers) == 1 and os.getpid() not in workers

    def test_pool_forks_only_after_warm_up(self, monkeypatch):
        # The workers inherit the warm indexes only if the pool is built
        # after the session has warmed up.
        from repro.fabric import WorkerPool

        session = CompilerSession(jobs=2)
        warm_at_fork = []
        init = WorkerPool.__init__

        def spy(pool, jobs):
            warm_at_fork.append(session._warmed)
            init(pool, jobs)

        monkeypatch.setattr(WorkerPool, "__init__", spy)
        holder = _start_daemon(session=session)
        _stop_daemon(holder)
        assert warm_at_fork == [True]

    def test_pooled_miss_never_waits_behind_another(self, slow_verify):
        # A fast miss sent while a slow one runs takes the idle worker
        # and is answered first.
        holder = _start_daemon(session=CompilerSession(jobs=2))
        daemon = holder["daemon"]
        try:
            with ServeClient(port=daemon.address[1]) as c:
                c.send(_verify(SLOW_SEEDS + 4, id="slow"))
                time.sleep(0.1)
                c.send(_verify(7004, id="fast"))
                replies = [c.recv(), c.recv()]
            assert daemon.metrics.gauge_value("serve_queue_depth") == 0
        finally:
            _stop_daemon(holder)
        assert [r["id"] for r in replies] == ["fast", "slow"]
        assert all(r["ok"] for r in replies)

    def test_miss_expiring_behind_a_busy_pump_never_runs(
        self, served, slow_verify
    ):
        # With jobs=1 the one pump thread runs misses in arrival order;
        # one whose deadline passes while it waits is refused when the
        # pump takes it, and its body never runs.
        with ServeClient(port=served["daemon"].address[1]) as c:
            c.send(_verify(SLOW_SEEDS + 5, id="slow"))
            c.send(_verify(7005, id="late", deadline_s=0.1))
            replies = {r["id"]: r for r in (c.recv(), c.recv())}
        assert replies["slow"]["ok"] is True
        late = replies["late"]
        assert late["ok"] is False and late["error"]["code"] == "deadline"
        assert "before dispatch" in late["error"]["message"]
        assert slow_verify.seeds == [SLOW_SEEDS + 5]


class TestAccounting:
    def test_one_cache_lookup_per_request(self, tmp_path):
        # k hits and m misses read exactly k hits and m misses in the
        # cache's own counts, and k cached outcomes in both counters.
        holder = _start_daemon(
            session=CompilerSession(cache=ResultCache(root=str(tmp_path))),
        )
        daemon = holder["daemon"]
        misses = [
            {"op": "compile",
             "params": {"workload": "add", "target": "arm-neon"}},
            {"op": "compile",
             "params": {"workload": "mul", "target": "x86-avx2"}},
            {"op": "coverage",
             "params": {"workload": "add", "target": "arm-neon"}},
            _verify(1),
        ]
        hits = misses * 2
        try:
            with ServeClient(port=daemon.address[1]) as c:
                cold = c.batch(misses)
                warm = c.batch(hits)
                session = c.cache_stats()["session"]
        finally:
            _stop_daemon(holder)
        assert [r["cached"] for r in cold] == [False] * len(misses)
        assert [r["cached"] for r in warm] == [True] * len(hits)
        assert (session["hits"], session["misses"]) == (
            len(hits), len(misses)
        )
        # each key is hit twice: the first hit reads disk, then memory
        assert session["memory_hits"] == len(misses)

        def cached(name):
            return sum(
                c.value for c in daemon.metrics.counters(name)
                if dict(c.labels)["outcome"] == "cached"
            )

        assert cached("fabric_tasks") == len(hits)
        assert cached("serve_requests") == len(hits)

    def test_unknown_ops_share_one_series(self, served):
        # An op is the client's own string: 500 distinct ones must not
        # make 500 series, in the registry or on /metrics.
        daemon = served["daemon"]
        with ServeClient(port=daemon.address[1]) as c:
            replies = c.batch([(f"junk-{i}", {}) for i in range(500)])
        assert {r["error"]["code"] for r in replies} == {"unknown-op"}
        counters = list(daemon.metrics.counters("serve_requests"))
        histograms = list(daemon.metrics.histograms("serve_request_seconds"))
        labels = {dict(i.labels)["op"] for i in counters + histograms}
        assert labels <= OP_LABELS | {"<unknown>"}
        (unknown,) = [c for c in counters
                      if dict(c.labels)["op"] == "<unknown>"]
        assert unknown.value >= 500


class TestConnections:
    def test_finished_requests_are_released_before_close(
        self, served, monkeypatch
    ):
        # A long-lived connection must not keep every request's task:
        # once answered, each is garbage while the connection is open.
        daemon = served["daemon"]
        refs = []
        handle_line = daemon._handle_line

        async def spy(*args):
            refs.append(weakref.ref(asyncio.current_task()))
            await handle_line(*args)

        monkeypatch.setattr(daemon, "_handle_line", spy)
        with ServeClient(port=daemon.address[1]) as c:
            replies = c.batch([("ping", {})] * 300)
            assert all(r["ok"] for r in replies)
            # The reader holds its newest line's task until the next
            # line arrives, so one more request lets go of the 300th.
            c.ping()
            answered = refs[:300]
            give_up = time.monotonic() + 5.0
            while True:
                gc.collect()
                alive = sum(ref() is not None for ref in answered)
                if not alive or time.monotonic() > give_up:
                    break
                time.sleep(0.01)
            assert len(answered) == 300
            assert alive == 0


class TestErrors:
    def test_unknown_workload_is_bad_request(self, client):
        with pytest.raises(ServeError) as exc:
            client.compile("nope", "arm-neon")
        assert exc.value.code == "bad-request"

    def test_unknown_op(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "unknown-op"

    def test_malformed_line_gets_null_id_error(self, client):
        client._file.write(b"this is not json\n")
        client._file.flush()
        reply = client.recv()
        assert reply["ok"] is False
        assert reply["id"] is None
        assert reply["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("line", [
        b'{"id": {"b": [1, NaN]}, "op": "ping"}',
        b'{"id": 3, "op": "ping", "deadline_s": Infinity}',
    ])
    def test_non_json_frame_gets_one_null_id_error(self, client, line):
        # Exactly one null-id bad-request, then the same connection
        # serves on: the next reply is the ping's own.
        client._file.write(line + b"\n")
        client._file.flush()
        reply = client.recv()
        assert (reply["ok"], reply["id"], reply["error"]["code"]) == (
            False, None, "bad-request"
        )
        pong = client.request("ping")
        assert (pong["id"], pong["result"]["pong"]) == (
            client._next_id, True
        )

    def test_oversize_line_gets_one_reply_then_close(self, served):
        # A line past the stream limit cannot be resynchronised: one
        # null-id bad-request naming the limit, then the connection
        # closes; other connections keep being served.
        port = served["daemon"].address[1]
        with ServeClient(port=port) as c:
            c.send({"id": 1, "op": "ping",
                    "params": {"pad": "x" * 70_000}})
            reply = c.recv()
            assert reply["ok"] is False
            assert reply["id"] is None
            assert reply["error"]["code"] == "bad-request"
            assert str(LINE_LIMIT) in reply["error"]["message"]
            with pytest.raises(ConnectionError):
                c.recv()
        with ServeClient(port=port) as c:
            assert c.ping()["pong"] is True

    def test_expired_deadline_is_refused_not_executed(self, client):
        # Earlier tests cached this cell, so it is answered at
        # admission, where 1 microsecond has always expired by the
        # time the lookup is done.
        with pytest.raises(ServeError) as exc:
            client.request(
                "compile",
                {"workload": "add", "target": "arm-neon"},
                deadline_s=1e-6,
            )
        assert exc.value.code == "deadline"

    def test_result_json_cannot_hold_is_an_internal_error(
        self, served, client, monkeypatch
    ):
        # A job body that returns what JSON cannot hold fails its store
        # and its reply, not the daemon.
        import repro.verify as verify_mod

        class Report:
            ok, checked_points = True, 2

            def to_dict(self):
                return {"points": {1, 2}}

        monkeypatch.setattr(verify_mod, "verify_rule",
                            lambda rule, **kw: Report())
        cache = served["daemon"].session.cache
        store_errors = cache.store_errors
        with pytest.raises(ServeError) as exc:
            client.request("verify-rule", _verify(20_000)["params"])
        assert exc.value.code == "internal", exc.value
        assert "TypeError" in str(exc.value)
        assert cache.store_errors == store_errors + 1
        assert client.ping()["pong"] is True

    def test_error_replies_do_not_poison_the_batch(self, client):
        replies = client.batch([
            ("compile", {"workload": "add", "target": "arm-neon"}),
            ("compile", {"workload": "nope", "target": "arm-neon"}),
            ("compile", {"workload": "mul", "target": "arm-neon"}),
        ])
        assert [r["ok"] for r in replies] == [True, False, True]
        assert replies[1]["error"]["code"] == "bad-request"


class TestMetricsEndpoint:
    def _get(self, served, path):
        host, port = served["daemon"].metrics_address
        return urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30
        )

    def test_metrics_scrape_is_prometheus_text(self, served, client):
        client.ping()
        client.compile("add", "arm-neon")  # the op="compile" series
        resp = self._get(served, "/metrics")
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        body = resp.read().decode()
        assert "# TYPE repro_serve_requests counter" in body
        assert "# TYPE repro_serve_request_seconds summary" in body
        assert 'repro_serve_request_seconds{op="compile",quantile="0.5"}' \
            in body
        assert "# TYPE repro_serve_queue_depth gauge" in body
        assert "repro_serve_batch" not in body

    def test_cache_counts_are_read_at_scrape_time(self, tmp_path):
        holder = _start_daemon(
            session=CompilerSession(cache=ResultCache(root=str(tmp_path))),
        )
        daemon = holder["daemon"]
        try:
            with ServeClient(port=daemon.address[1]) as c:
                for _ in range(3):  # one cold request, two warm ones
                    c.compile("add", "arm-neon")
                session = c.cache_stats()["session"]
            host, port = daemon.metrics_address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=30
            ).read().decode()
        finally:
            _stop_daemon(holder)
        scraped = {
            name[len("repro_cache_"):]: float(value)
            for name, value in (line.split() for line in body.splitlines()
                                if line.startswith("repro_cache_"))
        }
        assert scraped == {
            name: session[name] for name in (*CACHE_COUNTS, "memory_bytes")
        }
        assert (session["hits"], session["memory_hits"], session["misses"],
                session["stores"]) == (2, 1, 1, 1)
        assert "# TYPE repro_cache_hits counter" in body
        assert "# TYPE repro_cache_memory_bytes gauge" in body

    def test_healthz(self, served):
        assert self._get(served, "/healthz").read() == b"ok\n"

    def test_unknown_path_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(served, "/nope")
        assert exc.value.code == 404

    def test_oversize_request_line_is_400(self, served, caplog):
        # A line past the stream limit is answered, not dropped with a
        # traceback, and the listener keeps serving.
        with socket.create_connection(
            served["daemon"].metrics_address
        ) as sock:
            sock.sendall(b"GET /" + b"x" * 70_000 + b" HTTP/1.0\r\n\r\n")
            status = sock.makefile("rb").readline()
        assert status.startswith(b"HTTP/1.0 400 ")
        assert self._get(served, "/healthz").read() == b"ok\n"
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestLifecycle:
    def test_graceful_drain_replies_then_reports(self, tmp_path):
        # Queue several compiles and a shutdown in one burst, without
        # reading: every queued request must still get its reply (the
        # drain contract), then the daemon writes report + trace.
        report = tmp_path / "serve-report.json"
        trace = tmp_path / "serve-trace.json"
        holder = _start_daemon(
            report_path=str(report),
            trace_path=str(trace),
        )
        daemon = holder["daemon"]
        with ServeClient(port=daemon.address[1]) as c:
            frames = [
                {"id": i, "op": "compile",
                 "params": {"workload": "add", "target": t}}
                for i, t in enumerate(
                    ["arm-neon", "x86-avx2", "hexagon-hvx"]
                )
            ] + [{"id": 99, "op": "shutdown"}]
            for frame in frames:
                c.send(frame)
            replies = {c.recv()["id"]: None for _ in frames}
        assert set(replies) == {0, 1, 2, 99}
        holder["thread"].join(timeout=60)
        assert not holder["thread"].is_alive()

        doc = json.loads(report.read_text())
        assert doc["command"] == "serve"
        assert doc["extra"]["requests_served"] >= 4
        # each compile's worker-side span is merged onto the timeline
        assert _task_pids(trace, "compile") == {os.getpid()}

    def test_idle_connections_do_not_hold_shutdown_open(self):
        # From Python 3.12.1 a listener's wait_closed() waits for every
        # connection to drop: an idle client of either listener must
        # not keep a draining daemon alive.
        holder = _start_daemon()
        daemon = holder["daemon"]
        idle = [socket.create_connection(daemon.address),
                socket.create_connection(daemon.metrics_address)]
        try:
            give_up = time.monotonic() + 10.0
            while len(daemon._writers) < 2 and time.monotonic() < give_up:
                time.sleep(0.01)
            assert len(daemon._writers) == 2
            asyncio.run_coroutine_threadsafe(
                daemon.shutdown(), holder["loop"]
            ).result(timeout=10)
        finally:
            for sock in idle:
                sock.close()
        holder["thread"].join(timeout=60)
        assert not holder["thread"].is_alive()

    def test_draining_daemon_refuses_new_fabric_work(self, served):
        # Against the warm daemon: flip the drain flag, check the
        # structured refusal, flip it back (the fixture still needs a
        # live daemon afterwards).
        daemon = served["daemon"]
        daemon._draining = True
        try:
            with ServeClient(port=daemon.address[1]) as c:
                with pytest.raises(ServeError) as exc:
                    c.compile("add", "arm-neon")
                assert exc.value.code == "shutting-down"
                # Inline ops still answer while draining.
                assert c.ping()["draining"] is True
        finally:
            daemon._draining = False
