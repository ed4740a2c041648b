"""Daemon contract: batching, byte-identity, deadlines, drain, /metrics.

The daemon under test runs a real asyncio event loop on a background
thread; clients talk to it over real sockets, exactly as production
does.  One warm daemon (module scope) serves most tests; lifecycle
tests that must observe a shutdown start their own.
"""

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.__main__ import main
from repro.fabric import ResultCache
from repro.serve import ServeClient, ServeDaemon, ServeError
from repro.serve.daemon import LINE_LIMIT
from repro.session import CompilerSession


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

    def test_lint_op(self, client):
        reply = client.request("lint", {
            "workload": "add", "target": "arm-neon",
        })
        assert reply["ok"] is True


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
        # 1 microsecond always expires inside the 20ms batch window.
        with pytest.raises(ServeError) as exc:
            client.request(
                "compile",
                {"workload": "add", "target": "arm-neon"},
                deadline_s=1e-6,
            )
        assert exc.value.code == "deadline"

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
