"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main

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

    def test_run_unparsable_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.little"
        path.write_text("(svg [(rect", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro run: {path}:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_runtime_error_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "unbound.little"
        path.write_text("(svg [(rect 'red' nope 1 2 3)])", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert "repro run:" in capsys.readouterr().err


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

        def fake_run_server(host, port, *, max_sessions, shards, workers,
                            verbose, state_dir, eval_budget, faults):
            calls.update(host=host, port=port, max_sessions=max_sessions,
                         shards=shards, workers=workers, verbose=verbose,
                         state_dir=state_dir, eval_budget=eval_budget,
                         faults=faults)
            return 0

        import repro.serve.http as serve_http
        monkeypatch.setattr(serve_http, "run_server", fake_run_server)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert main(["serve", "--port", "0", "--max-sessions", "5",
                     "--shards", "2", "--workers", "8"]) == 0
        assert calls == {"host": "127.0.0.1", "port": 0,
                         "max_sessions": 5, "shards": 2, "workers": 8,
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
