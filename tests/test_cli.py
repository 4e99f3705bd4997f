"""Integration tests for the slif command-line interface."""

import json

import pytest

from repro.api.frontends import FRONTENDS
from repro.cli import main


def test_build_writes_json(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["build", "vol", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "slif-json"
    assert doc["name"] == "vol"


def test_build_to_stdout(capsys):
    assert main(["build", "vol"]) == 0
    out = capsys.readouterr().out
    assert '"slif-json"' in out


def test_estimate(capsys):
    assert main(["estimate", "vol"]) == 0
    out = capsys.readouterr().out
    assert "system time" in out
    assert "CPU" in out


def test_partition(capsys):
    assert main(["partition", "vol", "--algorithm", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out


def test_stats_shows_figure4_shape(capsys):
    assert main(["stats", "fuzzy"]) == 0
    out = capsys.readouterr().out
    assert "350 lines" in out
    assert "bv: 35" in out
    assert "channels: 56" in out
    assert "cdfg" in out


def test_check_clean(capsys):
    assert main(["check", "vol"]) == 0
    assert "no issues" in capsys.readouterr().out


def test_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["dot", "vol", "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_dot_plain(capsys):
    assert main(["dot", "vol", "--plain"]) == 0
    assert "f=" not in capsys.readouterr().out


def test_file_input(tmp_path, capsys):
    source = tmp_path / "tiny.vhd"
    source.write_text(
        """entity T is port ( a : in integer ); end;
        Main: process
            variable v : integer;
        begin
            v := a;
            wait;
        end process;"""
    )
    assert main(["stats", str(source)]) == 0
    assert "tiny" in capsys.readouterr().out


def test_unknown_spec_errors(capsys):
    assert main(["build", "no-such-thing"]) == 2
    assert "error:" in capsys.readouterr().err


def test_stats_with_basic_block_granularity(capsys):
    assert main(["stats", "fuzzy", "--granularity", "basic_block"]) == 0
    out = capsys.readouterr().out
    # the split adds one block behavior to fuzzy
    assert "bv: 36" in out


def test_transform_inlines(capsys):
    assert main(["transform", "vol"]) == 0
    out = capsys.readouterr().out
    assert "inlined 7 single-caller procedures" in out


def test_transform_writes_json(tmp_path):
    out = tmp_path / "t.json"
    assert main(["transform", "vol", "-o", str(out)]) == 0
    import json as _json

    doc = _json.loads(out.read_text())
    assert doc["format"] == "slif-json"


def test_build_text_format(capsys):
    assert main(["build", "vol", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slif 1 vol")
    assert "channel VolMain -> " in out


def test_build_with_profile_override(tmp_path, capsys):
    profile = tmp_path / "p.prof"
    profile.write_text("VolMain if0.arm0 1.0\n")
    assert main(
        ["build", "vol", "--profile", str(profile), "--format", "text"]
    ) == 0
    out = capsys.readouterr().out
    # calibration now happens every tick: the call channel's freq is 1
    assert "VolMain -> Calibrate call freq 1" in out


def test_estimate_timing_line_from_span(capsys):
    assert main(["estimate", "vol"]) == 0
    err = capsys.readouterr().err
    assert "-- estimated in" in err and "ms" in err


def test_estimate_stats_summary(capsys):
    assert main(["estimate", "vol", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "== instrumentation summary ==" in err
    assert "estimate.report" in err
    assert "vhdl.parse" in err
    assert "exectime memo hit rate" in err


def test_partition_stderr_echoes_seed_iterations_and_timing(capsys):
    assert main(["partition", "vol", "--algorithm", "greedy", "--seed", "7"]) == 0
    err = capsys.readouterr().err
    assert "-- partition greedy seed=7:" in err
    assert "iterations" in err
    assert "cost evaluations" in err
    assert "s" in err.split("in ")[-1]   # the wall-time suffix


def test_partition_annealing_stats_reports_search_telemetry(capsys):
    assert main(
        ["partition", "vol", "--algorithm", "annealing", "--stats"]
    ) == 0
    err = capsys.readouterr().err
    assert "exectime memo hit rate" in err
    assert "cost evaluations" in err
    assert "annealing acceptance rate" in err
    assert "partition.annealing.iterations" in err


def test_trace_out_covers_build_estimate_and_search(tmp_path, capsys):
    import json as _json

    trace = tmp_path / "trace.jsonl"
    assert main(
        ["partition", "vol", "--algorithm", "greedy", "--trace-out", str(trace)]
    ) == 0
    docs = [_json.loads(line) for line in trace.read_text().splitlines()]
    assert docs[0]["type"] == "meta"
    span_names = {d["name"] for d in docs if d["type"] == "span"}
    # the trace covers build -> estimate -> search
    assert {"system.build", "vhdl.parse", "estimate.report",
            "partition.greedy", "cli.partition"} <= span_names
    counter_names = {d["name"] for d in docs if d["type"] == "counter"}
    assert "partition.cost.evaluations" in counter_names
    assert f"wrote {len(docs)} trace lines" in capsys.readouterr().err


def test_obs_disabled_after_cli_run(capsys):
    from repro import obs

    assert main(["estimate", "vol", "--stats"]) == 0
    assert not obs.enabled()


def test_explore_prints_pareto_front(capsys):
    assert main(
        ["explore", "vol", "--steps", "2", "--random-starts", "1"]
    ) == 0
    captured = capsys.readouterr()
    assert "Pareto front" in captured.out
    assert "-- explore seed=0 jobs=1:" in captured.err


def test_breakdown_all_processes(capsys):
    assert main(["breakdown", "vol"]) == 0
    out = capsys.readouterr().out
    assert "time breakdown for VolMain" in out


def test_breakdown_single_behavior(capsys):
    assert main(["breakdown", "fuzzy", "Convolve"]) == 0
    out = capsys.readouterr().out
    assert "Convolve" in out and "%" in out


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.strip() == f"slif {repro.__version__}"


class TestExitCodes:
    """The normalized exit-code contract (docs/cli.md)."""

    def test_expected_failure_exits_2(self, capsys):
        assert main(["estimate", "no-such-spec"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_os_error_exits_2(self, tmp_path, capsys):
        # an unwritable output path is an expected failure, not a bug
        target = tmp_path / "not-a-dir" / "out.json"
        assert main(["build", "vol", "-o", str(target)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_recovery_exhaustion_exits_3_not_2(self, capsys, monkeypatch):
        """ChunkTimeoutError subclasses SlifError: the 3-branch must win."""
        from repro import api
        from repro.errors import ChunkTimeoutError

        def exhausted(request, session=None, **kwargs):
            raise ChunkTimeoutError("chunk 0 timed out after 2 retries")

        monkeypatch.setattr(api, "explore", exhausted)
        assert main(["explore", "vol", "--steps", "1"]) == 3
        err = capsys.readouterr().err
        assert "error: chunk 0 timed out" in err

    def test_injected_fault_exits_3(self, capsys, monkeypatch):
        from repro import api
        from repro.errors import FaultInjectedError

        def faulted(request, session=None, **kwargs):
            raise FaultInjectedError("injected transient fault (budget spent)")

        monkeypatch.setattr(api, "partition", faulted)
        assert main(["partition", "vol", "--algorithm", "greedy"]) == 3

    def test_sigint_exits_130(self, capsys, monkeypatch):
        from repro import api

        def interrupted(request, session=None, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(api, "estimate", interrupted)
        assert main(["estimate", "vol"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestObsSubcommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["explore", "vol", "--steps", "2", "--random-starts", "1",
             "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()   # drop the explore output
        return str(trace)

    def test_waterfall(self, trace_file, capsys):
        assert main(["obs", "waterfall", trace_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "cli.explore" in out
        assert "explore.chunk" in out and "[pid " in out
        assert "[#" in out or "[ " in out   # timeline bars

    def test_waterfall_trace_filter(self, trace_file, capsys):
        assert main(
            ["obs", "waterfall", trace_file, "--trace-id", "ffff"]
        ) == 0
        assert "no trace matching" in capsys.readouterr().out

    def test_slow(self, trace_file, capsys):
        assert main(["obs", "slow", trace_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 slowest spans" in out
        assert "trace=" in out

    def test_diff(self, trace_file, capsys):
        assert main(["obs", "diff", trace_file, trace_file]) == 0
        out = capsys.readouterr().out
        assert "== metric diff" in out
        assert "+0" in out   # identical runs diff to zero

    def test_missing_file_is_a_clean_error(self, capsys):
        assert main(["obs", "slow", "/nonexistent.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_corrupt_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["obs", "slow", str(bad)]) == 2
        assert "not a JSONL trace export" in capsys.readouterr().err


# ----------------------------------------------------------------------
# every graph-taking subcommand accepts every registered front end

TINY_VHDL = """entity T is port ( a : in integer ); end;
Main: process
    variable v : integer;
begin
    v := a;
    wait;
end process;"""

GRAPH_COMMANDS = [
    ["build"],
    ["stats"],
    ["check"],
    ["dot"],
    ["transform"],
    ["estimate"],
    ["breakdown"],
    ["simulate"],
    ["partition", "--algorithm", "greedy"],
    ["explore", "--steps", "2", "--random-starts", "1"],
]


def frontend_spec(name, tmp_path):
    """A spec argument that resolves through front end ``name``."""
    from repro.synth.gen import GenConfig, generate_text

    if name == "benchmark":
        return "vol"
    if name == "synth":
        path = tmp_path / "g.json"
        text = generate_text(GenConfig(behaviors=20))
    elif name == "vhdl":
        path, text = tmp_path / "tiny.vhd", TINY_VHDL
    else:
        raise AssertionError(f"no sample spec for front end {name!r}")
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("frontend", FRONTENDS.names())
@pytest.mark.parametrize("command", GRAPH_COMMANDS, ids=lambda c: c[0])
def test_graph_commands_accept_every_frontend(
    command, frontend, tmp_path, capsys
):
    spec = frontend_spec(frontend, tmp_path)
    assert FRONTENDS.resolve(spec).frontend == frontend
    assert main([command[0], spec] + command[1:]) == 0, (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("flag", [
    ["--granularity", "basic_block"], ["--profile", "p.prof"],
])
def test_vhdl_only_flags_are_refused_for_other_frontends(
    flag, tmp_path, capsys
):
    spec = frontend_spec("synth", tmp_path)
    assert main(["build", spec] + flag) == 2
    assert "'synth' spec" in capsys.readouterr().err


def test_stats_compares_formats_only_for_vhdl(tmp_path, capsys):
    assert main(["stats", frontend_spec("synth", tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "bv: 25" in out
    assert "cdfg" not in out
