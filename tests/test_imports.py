"""Every ``repro`` subpackage imports as the first import of a fresh
interpreter.

``repro.lang`` and ``repro.trace`` import each other's modules, so which
of them a process imports first decides the order the cycle resolves in.
A test run imports everything up front and would not notice an order
that fails; each case here starts a new interpreter instead.
"""

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

SUBPACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", f"import {name}"],
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
