"""Daemon contract: batching, byte-identity, deadlines, drain, /metrics.

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
import urllib.request
import weakref

import pytest

from repro.__main__ import main
from repro.fabric import ResultCache, TaskSpec, run_tasks
from repro.fabric.jobs import CellParams
from repro.serve import ServeClient, ServeDaemon, ServeError
from repro.serve.daemon import LINE_LIMIT
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
    holder = _start_daemon(
        session=CompilerSession(cache=cache),
        batch_window_s=0.02,
    )
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
        # slot of a slower batched compile pipelined before it.
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


class TestBatching:
    def test_concurrent_requests_coalesce(self, served):
        daemon = served["daemon"]
        before = daemon.batches_run
        targets = ["arm-neon", "x86-avx2", "hexagon-hvx"]
        with ServeClient(port=daemon.address[1]) as c:
            replies = c.batch([
                ("compile", {"workload": "mean", "target": t})
                for t in targets * 2
            ])
        assert all(r["ok"] for r in replies)
        assert [r["result"]["target"] for r in replies] == targets * 2
        # Six pipelined requests must not take six dispatches.
        assert daemon.batches_run - before < 6
        sizes = list(
            daemon.metrics.histograms("serve_batch_size")
        )
        assert sizes and sizes[0].max >= 2


class TestPerRequestReplies:
    """Each request is answered when its own work is done: a hit at
    admission, a miss when its task finishes, not when its batch does."""

    @pytest.fixture
    def slow_verify(self, monkeypatch):
        """Verifications with a seed >= SLOW_SEEDS sleep first; the
        returned event is set once the slow one has finished."""
        import repro.verify as verify_mod

        real = verify_mod.verify_rule
        finished = threading.Event()

        def verify_rule(rule, seed=0, **kwargs):
            if seed < SLOW_SEEDS:
                return real(rule, seed=seed, **kwargs)
            time.sleep(0.5)
            try:
                return real(rule, seed=seed, **kwargs)
            finally:
                finished.set()

        monkeypatch.setattr(verify_mod, "verify_rule", verify_rule)
        return finished

    def test_hit_is_never_held_behind_a_miss(self, served, slow_verify):
        params = {"workload": "softmax", "target": "hexagon-hvx"}
        with ServeClient(port=served["daemon"].address[1]) as c:
            cold = c.request("compile", params)
            assert cold["cached"] is False
            c.send(_verify(SLOW_SEEDS + 1, id="slow"))
            c.send({"id": "hit", "op": "compile", "params": params})
            hit = c.recv()
            assert hit["id"] == "hit"
            assert not slow_verify.is_set()
            assert encode_reply(hit) == encode_reply(
                dict(cold, id="hit", cached=True, seconds=0.0)
            )
            slow = c.recv()
        assert slow["id"] == "slow" and slow["ok"] is True
        assert slow_verify.is_set()

    def test_miss_is_answered_when_its_own_task_finishes(
        self, served, slow_verify
    ):
        daemon = served["daemon"]
        before = daemon.batches_run
        with ServeClient(port=daemon.address[1]) as c:
            c.send(_verify(7001, id="fast"))
            c.send(_verify(SLOW_SEEDS + 2, id="slow"))
            fast = c.recv()
            assert fast["id"] == "fast"
            assert not slow_verify.is_set()
            slow = c.recv()
        assert daemon.batches_run - before == 1  # one batch held both
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
            batch_window_s=0.02,
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
        assert daemon.batches_run == 1
        events = json.loads(trace.read_text())
        if isinstance(events, dict):
            events = events["traceEvents"]
        workers = {
            ev["pid"] for ev in events if ev.get("name") == "task:verify-rule"
        }
        assert len(workers) == 2 and os.getpid() not in workers


class TestAccounting:
    def test_one_cache_lookup_per_request(self, tmp_path):
        # k hits and m misses read exactly k hits and m misses in the
        # cache's own counts, and k cached outcomes in both counters.
        holder = _start_daemon(
            session=CompilerSession(cache=ResultCache(root=str(tmp_path))),
            batch_window_s=0.01,
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
        resp = self._get(served, "/metrics")
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        body = resp.read().decode()
        assert "# TYPE repro_serve_requests counter" in body
        assert "# TYPE repro_serve_request_seconds summary" in body
        assert 'repro_serve_request_seconds{op="compile",quantile="0.5"}' \
            in body
        assert "# TYPE repro_serve_queue_depth gauge" in body

    def test_healthz(self, served):
        assert self._get(served, "/healthz").read() == b"ok\n"

    def test_unknown_path_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(served, "/nope")
        assert exc.value.code == 404


class TestLifecycle:
    def test_graceful_drain_replies_then_reports(self, tmp_path):
        # Queue several compiles and a shutdown in one burst, without
        # reading: every queued request must still get its reply (the
        # drain contract), then the daemon writes report + trace.
        report = tmp_path / "serve-report.json"
        trace = tmp_path / "serve-trace.json"
        holder = _start_daemon(
            batch_window_s=0.01,
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
        assert doc["extra"]["batches_run"] >= 1
        chrome = json.loads(trace.read_text())
        events = (
            chrome if isinstance(chrome, list)
            else chrome.get("traceEvents", [])
        )
        assert any(
            ev.get("name") == "serve:batch" for ev in events
            if isinstance(ev, dict)
        )

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
