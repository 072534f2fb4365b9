"""The benchmark's server subprocess: port 0, READY, always reaped."""

import pytest

from perfbench import serve


def test_server_starts_on_port_zero_and_is_reaped(tmp_path, bench_env):
    from repro.serve.client import ServerClient

    server = serve.ServerProcess(str(tmp_path / "srv"))
    with server:
        proc = server.proc
        assert server.url.startswith("http://127.0.0.1:")
        assert not server.url.endswith(":0")
        assert ServerClient(server.url).health()["ok"] is True
        counts = serve.scrape(ServerClient(server.url))
        assert counts["silo_serve_submitted"] == 0
    assert proc.poll() is not None
    assert server.proc is None


def test_server_is_reaped_when_it_fails_before_ready(tmp_path,
                                                     bench_env):
    server = serve.ServerProcess(str(tmp_path / "srv"),
                                 ["--cache-max-bytes", "not-a-size"])
    with pytest.raises(RuntimeError, match="before READY"):
        server.start()
    assert server.proc is None


def test_traced_server_writes_spans_on_interrupt(tmp_path, bench_env):
    from repro.serve.client import ServerClient

    out = tmp_path / "spans.json"
    work = serve.Warm(2, 4)
    with serve.ServerProcess(str(tmp_path / "srv"), (), str(out)) as srv:
        client = ServerClient(srv.url)
        doc, _ = client.submit(work.pool[0], fmt="pickle")
        assert doc["status"] == "complete"
    import json
    names = {row["name"] for row in json.loads(out.read_text())}
    assert {"serve.proto.read", "serve.proto.parse", "serve.proto.render",
            "sim.engine.key", "sim.engine.run",
            "analytic.estimate"} <= names
