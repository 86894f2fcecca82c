"""Every script under ``examples/`` runs to completion from any working
directory and writes nothing into the checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.examples import example_names

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "examples").glob("*.py"))


def checkout_files() -> dict:
    """Every file under the checkout (``.git`` aside) with its mtime."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [name for name in dirnames if name != ".git"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            files[path] = os.stat(path).st_mtime_ns
    return files


def test_every_script_is_collected():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_script_runs(script, tmp_path, repro_env):
    gallery = tmp_path / "gallery"
    args = [str(gallery)] if script.name == "logo_gallery.py" else []
    before = checkout_files()
    result = subprocess.run(
        [sys.executable, str(script), *args], cwd=tmp_path,
        env=dict(repro_env, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert checkout_files() == before
    if args:
        assert len(list(gallery.glob("*.svg"))) == len(example_names())
