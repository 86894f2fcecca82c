"""Tests for the ``python -m repro`` command-line interface."""

import os
import socket
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.examples import example_source

LITTLE_SOURCE = """
(def [x y] [10 20])
(svg [(rect 'lightblue' x y 30 40)])
"""

@pytest.fixture
def little_file(tmp_path):
    path = tmp_path / "boxes.little"
    path.write_text(LITTLE_SOURCE, encoding="utf-8")
    return path


class TestRun:
    def test_run_prints_svg(self, little_file, capsys):
        assert main(["run", str(little_file)]) == 0
        out = capsys.readouterr().out
        assert "<rect" in out and 'x="10"' in out

    def test_run_writes_file(self, little_file, tmp_path, capsys):
        out_file = tmp_path / "out.svg"
        assert main(["run", str(little_file), "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("<svg")
        assert "1 shapes" in capsys.readouterr().out

    def test_run_include_hidden(self, tmp_path, capsys):
        path = tmp_path / "ghost.little"
        path.write_text("(svg [(ghost (rect 'r' 1 2 3 4))])",
                        encoding="utf-8")
        main(["run", str(path)])
        assert "<rect" not in capsys.readouterr().out
        main(["run", str(path), "--include-hidden"])
        assert "<rect" in capsys.readouterr().out

    def test_run_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.little")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro run: cannot read")
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_non_utf8_file_one_line(self, tmp_path, capsys):
        path = tmp_path / "binary.little"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro run: cannot read")
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_into_closed_pipe_ends_without_traceback(self, tmp_path,
                                                         repro_env):
        # ``repro run FILE | head``: the reader closes the pipe first.
        path = tmp_path / "three_boxes.little"
        path.write_text(example_source("three_boxes"), encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "run", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=repro_env,
                timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr.decode()
        assert result.returncode == 1

    def test_run_unparsable_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.little"
        path.write_text("(svg [(rect", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro run: {path}:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_overflow_to_infinity_renders(self, tmp_path, capsys):
        big = "1" + "0" * 200
        path = tmp_path / "overflow.little"
        path.write_text(f"(svg [(rect 'red' (* {big} {big}) 0 5 5)])",
                        encoding="utf-8")
        assert main(["run", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert 'x="inf"' in captured.out

    def test_run_runtime_error_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "unbound.little"
        path.write_text("(svg [(rect 'red' nope 1 2 3)])", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert "repro run:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [
        "(svg [['polygon' [['points' [[1 2] 3]]] []]])",
        "(svg [['path' [['d' 5]] []]])",
    ], ids=["polygon-points", "path-d"])
    def test_run_improper_list_attribute_one_line(self, tmp_path, capsys,
                                                  source):
        path = tmp_path / "improper.little"
        path.write_text(source, encoding="utf-8")
        assert main(["run", str(path), "--heuristic", "fair"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro run: {path}: improper list")
        assert len(captured.err.strip().splitlines()) == 1


    def test_run_point_without_y_one_line(self, tmp_path, capsys):
        path = tmp_path / "short.little"
        path.write_text("(svg [['polygon' [['points' [[1]]]] []]])",
                        encoding="utf-8")
        assert main(["run", str(path), "--heuristic", "fair"]) == 1
        captured = capsys.readouterr()
        assert captured.err == \
            f"repro run: {path}: point 0 of shape 0 is not numeric\n"


class TestCheck:
    def test_check_ok_prints_one_line(self, little_file, capsys):
        assert main(["check", str(little_file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.strip() == \
            f"{little_file}: ok (1 shapes, 4 constants)"

    def test_check_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.little")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro check: cannot read")
        assert len(captured.err.strip().splitlines()) == 1

    def test_check_non_utf8_file_one_line(self, tmp_path, capsys):
        path = tmp_path / "binary.little"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro check: cannot read")
        assert "not valid UTF-8" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_check_parse_error_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.little"
        path.write_text("(svg [(rect", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro check: {path}:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_check_runtime_error_one_line_diagnostic(self, tmp_path,
                                                     capsys):
        path = tmp_path / "unbound.little"
        path.write_text("(svg [(rect 'red' nope 1 2 3)])", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "repro check:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestServe:
    def test_serve_wires_options_through(self, monkeypatch):
        calls = {}

        def fake_run_server(host, port, *, max_sessions, shards,
                            verbose, state_dir, eval_budget, faults):
            calls.update(host=host, port=port, max_sessions=max_sessions,
                         shards=shards, verbose=verbose,
                         state_dir=state_dir, eval_budget=eval_budget,
                         faults=faults)
            return 0

        import repro.serve.http as serve_http
        monkeypatch.setattr(serve_http, "run_server", fake_run_server)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert main(["serve", "--port", "0", "--max-sessions", "5",
                     "--shards", "2"]) == 0
        assert calls == {"host": "127.0.0.1", "port": 0,
                         "max_sessions": 5, "shards": 2,
                         "verbose": False, "state_dir": None,
                         "eval_budget": None, "faults": None}

    def test_serve_wires_fault_options_through(self, monkeypatch,
                                               tmp_path):
        calls = {}

        def fake_run_server(host, port, **kwargs):
            calls.update(kwargs)
            return 0

        import repro.serve.http as serve_http
        monkeypatch.setattr(serve_http, "run_server", fake_run_server)
        monkeypatch.setenv("REPRO_FAULTS", "dispatch.*:0.5")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        state = str(tmp_path / "state")
        assert main(["serve", "--port", "0", "--eval-budget", "123456",
                     "--state-dir", state]) == 0
        assert calls["state_dir"] == state
        assert calls["eval_budget"].max_fuel == 123456
        assert calls["faults"].seed == 3
        assert calls["faults"].rate_for("dispatch.drag") == 0.5


class TestServeSetupErrors:
    """A bad option value or an unusable port or state dir ends in one
    line, never a traceback."""

    def serve(self, repro_env, *args):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args],
            capture_output=True, text=True, env=repro_env, timeout=60)
        assert "Traceback" not in result.stderr, result.stderr
        return result

    @pytest.mark.parametrize("option, value", [("--max-sessions", "0"),
                                               ("--shards", "0"),
                                               ("--port", "99999")])
    def test_out_of_range_option_exits_2(self, repro_env, option, value):
        result = self.serve(repro_env, option, value)
        assert result.returncode == 2
        assert f"error: argument {option}: must be" in result.stderr

    def test_port_in_use_exits_1(self, repro_env):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            result = self.serve(repro_env, "--port", str(port))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"repro serve: cannot listen on 127.0.0.1:{port}: "
            f"Address already in use"]

    def test_state_dir_that_is_a_file_exits_1(self, repro_env, tmp_path):
        state = tmp_path / "state"
        state.write_text("not a directory")
        result = self.serve(repro_env, "--port", "0", "--state-dir",
                            str(state))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"repro serve: cannot use state dir {state}: File exists"]

    def test_defaults_are_unchanged(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.max_sessions, args.shards,
                args.eval_budget, args.state_dir, args.verbose) == \
            ("127.0.0.1", 8000, 64, 4, 0, None, False)


@pytest.mark.parametrize("command", ["run", "check", "serve", "import"])
def test_negative_eval_budget_exits_2(command, monkeypatch, capsys):
    import repro.serve.http as serve_http
    monkeypatch.setattr(serve_http, "run_server", lambda *a, **k: 0)
    argv = [command] + ([] if command == "serve" else ["prog.little"])
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--eval-budget", "-1"])
    assert exited.value.code == 2
    assert "argument --eval-budget: must be at least 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["study", "--resamples", "0"],
                                  ["study", "--resamples", "-5"],
                                  ["tables", "--perf", "--runs", "0"]])
def test_count_below_one_exits_2(argv, repro_env):
    result = subprocess.run([sys.executable, "-m", "repro", *argv],
                            capture_output=True, text=True, env=repro_env,
                            timeout=60)
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 2
    assert (f"error: argument {argv[-2]}: must be at least 1, "
            f"not {argv[-1]}") in result.stderr


class TestExamples:
    def test_list(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "sine_wave_of_boxes" in out
        assert "ferris_wheel" in out

    def test_render(self, tmp_path, capsys):
        assert main(["examples", "--render", str(tmp_path / "g")]) == 0
        rendered = list((tmp_path / "g").glob("*.svg"))
        assert len(rendered) >= 50


class TestStudy:
    def test_study_prints_figure9(self, capsys):
        assert main(["study", "--resamples", "500"]) == 0
        out = capsys.readouterr().out
        assert "Ferris" in out and "paper" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
