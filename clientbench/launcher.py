"""Start ``repro serve`` with the benchmark's span wrappers installed.

A traced ``http`` run starts the server through this launcher instead of
``python -m repro serve``: it installs the wrappers of
:mod:`tracing` (plus the HTTP handler and its JSON codec), runs the CLI's
``serve`` command with the arguments after ``--``, and writes its spans
when the server exits (``SIGTERM`` drains it)::

    python3 clientbench/launcher.py --spans spans.json -- --port 0
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "clientbench"))

from repro.cli import main as repro_main  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the spans at exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="arguments for `repro serve` after --")
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracer = Tracer()
    install(tracer, http=True)
    try:
        return repro_main(["serve"] + serve_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
