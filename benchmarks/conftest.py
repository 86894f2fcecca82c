"""Shared fixtures for the benchmark suite.

Every benchmark module regenerates one of the paper's tables or figures.
Tables are printed to stdout and also written under ``benchmarks/out/``.
"""

import pathlib

import pytest

from repro.bench import prepare_corpus

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def corpus():
    """The full example corpus, parsed / evaluated / assigned once."""
    return prepare_corpus()


@pytest.fixture(scope="session")
def write_table():
    """Write one formatted benchmark table to ``benchmarks/out/<name>.txt``
    and echo it to stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print("\n" + text)

    return _write
