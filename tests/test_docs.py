"""The documentation is executable: markdown examples and public-API
docstrings run as doctests, and relative links must resolve.

``README.md`` and ``docs/*.md`` embed Python-console sessions; this
module extracts and runs them, so a behavior change that invalidates the
docs fails the suite instead of silently rotting.  The same applies to
the doctest examples of every ``repro`` module that has them.
"""

import doctest
import importlib
import pathlib
import pkgutil
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).parent.parent

MARKDOWN_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md")))


def doctest_modules():
    """Every ``repro`` module with a docstring example (module, class and
    entry-point level docstrings alike — DocTestFinder walks them all),
    found by walking the package, so a new example runs without being
    listed.  ``repro.__main__`` runs the CLI when imported."""
    finder = doctest.DocTestFinder(exclude_empty=True)
    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        if any(test.examples for test in finder.find(module)):
            names.append(info.name)
    return names


DOCTEST_MODULES = doctest_modules()


def run_examples(test: doctest.DocTest) -> None:
    runner = doctest.DocTestRunner(
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS)
    runner.run(test, out=sys.stdout.write)
    results = runner.summarize(verbose=False)
    assert results.failed == 0, \
        f"{results.failed} doctest failure(s) in {test.name}"


@pytest.mark.parametrize(
    "path", MARKDOWN_FILES, ids=[p.name for p in MARKDOWN_FILES])
def test_markdown_examples_run(path):
    parser = doctest.DocTestParser()
    test = parser.get_doctest(path.read_text(encoding="utf-8"),
                              {"__name__": "__main__"}, path.name,
                              str(path), 0)
    assert test.examples, f"{path.name} has no runnable examples"
    run_examples(test)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    finder = doctest.DocTestFinder(exclude_empty=True)
    tests = [test for test in finder.find(module) if test.examples]
    assert tests, f"{module_name} has no doctest examples"
    for test in tests:
        run_examples(test)


def test_no_dead_relative_links():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        check_links = importlib.import_module("check_links")
    finally:
        sys.path.pop(0)
    dead = []
    for path in check_links.collect([REPO_ROOT / "README.md",
                                     REPO_ROOT / "docs"]):
        dead.extend((str(path), target, reason)
                    for target, reason in check_links.check_file(path))
    assert not dead, f"dead links: {dead}"


def test_readme_and_docs_exist_and_are_linked():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/little-language.md" in readme
    for name in ("architecture.md", "little-language.md"):
        assert (REPO_ROOT / "docs" / name).is_file()
