"""Command-line interface."""

import pytest

from repro.experiments.cli import main
from repro.serve import __main__ as serve_cli


def test_cli_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "area_efficiency" in out
    assert "access_latency" in out


def test_cli_runs_fig7(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "1024x1024" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_sampling():
    with pytest.raises(SystemExit):
        main(["fig10", "--sampling", "bogus"])


@pytest.mark.parametrize("variable,value", [
    ("REPRO_SAMPLING", "bogus"),
    ("REPRO_JOBS", "abc"),
    ("REPRO_CACHE_MAX_BYTES", "-5"),
])
def test_cli_refuses_a_malformed_environment(variable, value, capsys,
                                             monkeypatch):
    monkeypatch.setenv(variable, value)
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--scale", "1024", "--no-cache"])
    assert exc.value.code == 2
    assert variable in capsys.readouterr().err


@pytest.mark.parametrize("cli", ["experiments", "serve"])
def test_both_clis_refuse_an_empty_cache_cap(cli, capsys, monkeypatch):
    # one run-cache policy: an explicit empty --cache-max-bytes is a
    # malformed size in either CLI, not "no cap"
    async def serve(_server, ready=None):
        raise AssertionError("bad settings reached the server")

    monkeypatch.setattr(serve_cli, "run_server", serve)
    argv = {"experiments": ["fig3", "--scale", "1024"],
            "serve": ["--port", "0"]}[cli]
    entry = main if cli == "experiments" else serve_cli.main
    with pytest.raises(SystemExit) as exc:
        entry(argv + ["--no-cache", "--cache-max-bytes", ""])
    assert exc.value.code == 2
    assert "invalid byte size ''" in capsys.readouterr().err


def test_cli_reads_sampling_variable_only_where_it_is_used(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "bogus")
    assert main(["table1"]) == 0


def test_cli_quick_simulation(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "quick")
    assert main(["fig3", "--scale", "1024"]) == 0
    out = capsys.readouterr().out
    assert "Web Search" in out


def test_cli_characterize(capsys):
    assert main(["characterize", "--scale", "128"]) == 0
    out = capsys.readouterr().out
    assert "web_search" in out and "tpcc" in out


def test_cli_validate_tech(capsys):
    assert main(["validate_tech"]) == 0
    out = capsys.readouterr().out
    assert "SILO-CO" in out


def test_cli_json_output(capsys):
    assert main(["table1", "--json"]) == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "table1"
    assert doc["elapsed_s"] >= 0.0
    assert doc["rows"][0]["metric"] == "area_efficiency"


def test_cli_json_honors_chart(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "quick")
    assert main(["fig4", "--scale", "1024", "--json", "--chart"]) == 0
    out = capsys.readouterr().out
    # JSON object first, then the ASCII chart
    assert out.lstrip().startswith("{")
    assert "multiplier" in out


def test_cli_custom_sampling_pair(capsys):
    assert main(["fig3", "--scale", "1024",
                 "--sampling", "2000:1000"]) == 0
    assert "Web Search" in capsys.readouterr().out


def test_cli_rejects_bad_sampling_pair():
    with pytest.raises(SystemExit):
        main(["fig3", "--sampling", "1000:zero"])


@pytest.mark.parametrize("scale", ["3", "5", "48", "100"])
def test_cli_rejects_scales_no_system_builds_at(scale, capsys):
    """A usage error naming the cache, not a traceback from inside the
    first simulation."""
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "at scale %s" % scale in err


@pytest.mark.parametrize("flag,value", [
    ("--scale", "0"), ("--scale", "-4"), ("--scale", "big"),
    ("--seed", "-1"), ("--seed", "1.5"),
])
def test_cli_rejects_bad_scale_and_seed(flag, value, capsys):
    """A usage error (exit 2), not a ValueError traceback from the
    config or from numpy's seeding."""
    with pytest.raises(SystemExit) as exc:
        main(["fig3", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err


def test_cli_stats_dump(capsys):
    assert main(["fig3", "--scale", "1024", "--sampling", "2000:1000",
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "system.caches.llc_accesses" in out
    assert "system.coherence.invalidations" in out
    assert "system.memory.reads" in out


def test_cli_stats_dump_names_fault_counters(capsys):
    assert main(["fig3", "--scale", "1024", "--sampling", "2000:1000",
                 "--fault-stalls", "0.01", "--no-cache", "--stats"]) == 0
    out = capsys.readouterr().out
    paths = {line.split()[0] for line in out.splitlines()
             if line.startswith("system.faults.")}
    assert "system.faults.stall_events" in paths
    assert paths == {"system.faults." + name for name in (
        "accesses", "injected", "corrected", "uncorrectable",
        "data_loss_events", "refetches", "directory_rebuilds",
        "remapped_accesses", "write_throughs", "broadcast_snoops",
        "stall_events", "stall_cycles", "offline_events",
        "online_events", "drained_dirty")}


def test_cli_trace_summary(capsys):
    assert main(["fig11", "--scale", "1024", "--sampling", "2000:1000",
                 "--trace", "64"]) == 0
    out = capsys.readouterr().out
    assert "trace summary" in out


def test_cli_manifest(tmp_path, capsys):
    assert main(["fig3", "--scale", "1024", "--sampling", "2000:1000",
                 "--manifest", str(tmp_path)]) == 0
    import json
    path = tmp_path / "fig3-manifest.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "fig3"
    assert doc["runs"], "simulation runs should be recorded"
    run = doc["runs"][0]
    assert run["config"]["num_cores"] > 0
    assert run["seed"] == 7
    assert run["sampling"] == {"warmup_events": 2000,
                               "measure_events": 1000}
    assert run["throughput"]["events_per_sec"] > 0
    assert "p99" in next(iter(run["latency_percentiles"].values()))


def test_cli_chart_flag(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "quick")
    assert main(["fig4", "--scale", "1024", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "multiplier" in out


def test_cli_fault_flags_on_sim_experiment(capsys):
    assert main(["fig3", "--scale", "1024", "--sampling", "1500:800",
                 "--faults", "0.05", "--fault-seed", "3",
                 "--no-cache", "--json"]) == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "fig3"


def test_cli_resilience_with_rate_override(capsys):
    assert main(["resilience", "--scale", "128",
                 "--sampling", "1500:800", "--faults", "0.05",
                 "--no-cache", "--json"]) == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    rates = {r["flips_per_M"] for r in doc["rows"]
             if r["scenario"] == "bit_flips"}
    assert rates == {0.0, 0.05 * 1e6}


def test_cli_rejects_out_of_range_fault_rate():
    with pytest.raises(SystemExit):
        main(["fig3", "--faults", "1.5"])


@pytest.mark.parametrize("target", ["-1", "16", "99"])
@pytest.mark.parametrize("experiment", ["fig3", "resilience"])
def test_cli_rejects_fault_target_outside_the_system(experiment, target,
                                                     capsys):
    # every experiment builds 16-core systems: vaults/banks 0..15
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--faults", "0.001", "--fault-target", target])
    assert exc.value.code == 2
    assert "--fault-target must be a vault/bank id in [0, 16)" \
        in capsys.readouterr().err


def test_cli_rejects_fault_flags_for_static_experiments():
    with pytest.raises(SystemExit):
        main(["table1", "--faults", "0.1"])


def test_cli_rejects_stalls_for_resilience():
    with pytest.raises(SystemExit):
        main(["resilience", "--fault-stalls", "0.1"])


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--cache-dir", "x"],
                                  ["--cache-max-bytes", "1m"]],
                         ids=lambda flag: flag[0])
def test_cli_server_rejects_local_engine_flags(flag, capsys):
    # the server owns its workers and cache: refuse, don't ignore
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--server", "http://127.0.0.1:1"] + flag)
    assert exc.value.code == 2
    assert "%s does not apply to --server" % flag[0] \
        in capsys.readouterr().err


@pytest.mark.parametrize("port", ["abc", "70000"])
def test_cli_refuses_a_server_url_with_a_bad_port(port, capsys):
    # a port past 65535 would reach port 70000 - 65536 = 4464
    url = "http://127.0.0.1:" + port
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--server", url])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: silo-repro")
    assert "error: --server %s: " % url in err


def test_cli_without_a_server_exits_1_with_one_line(capsys):
    import socket
    import threading

    with socket.create_server(("127.0.0.1", 0)) as sock:
        url = "http://127.0.0.1:%d" % sock.getsockname()[1]
    assert main(["fig3", "--scale", "1024", "--sampling", "1500:800",
                 "--server", url]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("silo-repro: error: %s: " % url)
    # the transport stopped: none of its connection threads is left
    assert not [t for t in threading.enumerate()
                if t.name.startswith("silo-http")]


@pytest.mark.parametrize("port", ["70000", "-5", "65536"])
def test_serve_refuses_a_port_out_of_range(port, capsys):
    with pytest.raises(SystemExit) as exc:
        serve_cli.main(["--port", port, "--no-cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.serve")
    assert "expected a port in [0, 65535]" in err


@pytest.mark.parametrize("failure", ["port-in-use", "unknown-host"])
def test_serve_exits_1_with_one_line_when_it_cannot_bind(failure, capsys,
                                                          monkeypatch):
    import socket

    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        if failure == "unknown-host":
            # the resolver's answer for a host that does not resolve
            async def unresolved(_server, ready=None):
                raise socket.gaierror(-2, "Name or service not known")

            monkeypatch.setattr(serve_cli, "run_server", unresolved)
            port = 0
        assert serve_cli.main(["--port", str(port), "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "READY" not in captured.out
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "python -m repro.serve: error: 127.0.0.1:%d: " % port)
