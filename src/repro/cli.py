"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE.little [-o OUT.svg]`` — evaluate a little program and emit SVG;
* ``check FILE.little`` — parse + run, exit nonzero with a one-line
  diagnostic (the editor-integration hook: cheap enough for on-save);
* ``serve [--port N]`` — run the multi-session sync service over HTTP;
* ``examples [--render DIR]`` — list or render the example corpus;
* ``import FILE.svg [-o OUT.little]`` / ``import --bulk DIR`` — convert
  SVG to little and round-trip verify the result through the shared run
  path (parse + run + render + draggable zones); failures quarantine
  with one-line diagnostics and per-class counters;
* ``tables [--out DIR]`` — regenerate the paper's evaluation tables;
* ``study`` — print the Figure 9 user-study analysis.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional


def _read_source(path: str, command: str) -> Optional[str]:
    """Read a little file for ``command``, or print the one-line
    diagnostic and return ``None``."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or "not valid UTF-8"
        print(f"repro {command}: cannot read {path}: {reason}",
              file=sys.stderr)
        return None


def _eval_budget(steps: Optional[int]):
    """An :class:`~repro.lang.eval.EvalBudget` capping fuel at ``steps``
    (with the default depth/size caps riding along), or ``None`` when
    the flag is absent or 0 (unlimited)."""
    if not steps:
        return None
    from .lang.eval import EvalBudget

    return EvalBudget(max_fuel=steps)


def _cmd_run(args) -> int:
    from .core.run import run_source
    from .lang.errors import LittleError, ResourceExhausted

    source = _read_source(args.file, "run")
    if source is None:
        return 1
    # The same staged pipeline the editor runs on; --heuristic additionally
    # exercises the Prepare stages (assignments/triggers/sliders).
    try:
        pipeline = run_source(source,
                              heuristic=args.heuristic or "fair",
                              prepare=args.heuristic is not None,
                              auto_freeze=args.auto_freeze,
                              prelude_frozen=not args.prelude_unfrozen,
                              budget=_eval_budget(args.eval_budget))
    except ResourceExhausted as error:
        print(f"repro run: {args.file}: program_limit: {error}",
              file=sys.stderr)
        return 1
    except LittleError as error:
        print(f"repro run: {args.file}: {error}", file=sys.stderr)
        return 1
    rendered = pipeline.render(include_hidden=args.include_hidden)
    if args.output:
        pathlib.Path(args.output).write_text(rendered + "\n",
                                             encoding="utf-8")
        print(f"wrote {args.output} ({len(pipeline.canvas)} shapes)")
    else:
        print(rendered)
    if args.heuristic is not None:
        print(f"active zones: {len(pipeline.assignments.chosen)} "
              f"(heuristic={args.heuristic}, "
              f"sliders={len(pipeline.sliders)})", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    from .core.run import run_source
    from .lang.errors import LittleError, ResourceExhausted

    source = _read_source(args.file, "check")
    if source is None:
        return 1
    # Parse and run through the same pipeline (and hence the same error
    # path) as ``repro run``, but never render: the output is one line
    # either way, so editors can surface it verbatim.
    try:
        pipeline = run_source(source, auto_freeze=args.auto_freeze,
                              prelude_frozen=not args.prelude_unfrozen,
                              budget=_eval_budget(args.eval_budget))
    except ResourceExhausted as error:
        print(f"repro check: {args.file}: program_limit: {error}",
              file=sys.stderr)
        return 1
    except LittleError as error:
        print(f"repro check: {args.file}: {error}", file=sys.stderr)
        return 1
    print(f"{args.file}: ok ({len(pipeline.canvas)} shapes, "
          f"{len(pipeline.program.user_locs())} constants)")
    return 0


def _cmd_serve(args) -> int:
    from .serve.faults import plan_from_env
    from .serve.http import run_server

    return run_server(host=args.host, port=args.port,
                      max_sessions=args.max_sessions, shards=args.shards,
                      workers=args.workers, verbose=args.verbose,
                      state_dir=args.state_dir,
                      eval_budget=_eval_budget(args.eval_budget),
                      faults=plan_from_env())


def _cmd_examples(args) -> int:
    from .core.run import run_program
    from .examples.registry import (example_info, example_names,
                                    load_example)

    if args.render:
        out_dir = pathlib.Path(args.render)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in example_names():
            pipeline = run_program(load_example(name))
            (out_dir / f"{name}.svg").write_text(
                pipeline.render() + "\n", encoding="utf-8")
        print(f"rendered {len(example_names())} examples to {out_dir}/")
        return 0
    for name in example_names():
        info = example_info(name)
        print(f"{name:28s} {info.title:24s} {info.description}")
    return 0


def _cmd_import(args) -> int:
    from .svg.ingest import ingest_file

    budget = _eval_budget(args.eval_budget)
    if args.bulk:
        return _import_bulk(args, budget)
    result = ingest_file(args.file, budget=budget)
    if not result.ok:
        # Quarantine: one line, nonzero exit, and never a partial file.
        print(f"repro import: {result.diagnostic()}", file=sys.stderr)
        return 1
    if args.output:
        pathlib.Path(args.output).write_text(result.source,
                                             encoding="utf-8")
        print(f"wrote {args.output} ({result.shapes} shapes, "
              f"{result.zones} zones, {result.constants} constants)")
    else:
        print(result.source, end="")
        print(result.diagnostic(), file=sys.stderr)
    return 0


def _import_bulk(args, budget) -> int:
    from .bench.report import format_ingest_table
    from .svg.ingest import ingest_directory

    directory = pathlib.Path(args.file)
    if not directory.is_dir():
        print(f"repro import: {directory} is not a directory",
              file=sys.stderr)
        return 1
    report = ingest_directory(directory, budget=budget)
    if not report.results:
        print(f"repro import: no .svg files in {directory}",
              file=sys.stderr)
        return 1
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for result in report.results:
        print(result.diagnostic())
        if result.ok and out_dir:
            # Only verified programs reach disk — a quarantined document
            # never leaves a partial file behind.
            name = pathlib.Path(result.name).stem + ".little"
            (out_dir / name).write_text(result.source, encoding="utf-8")
    print()
    print(format_ingest_table(report))
    if not report.ok:
        return 1                    # nothing ingested at all
    if args.strict and report.failed:
        return 1
    return 0


def _cmd_tables(args) -> int:
    from .bench import (corpus_loc_stats, corpus_zone_stats,
                        equation_totals, format_equation_table,
                        format_loc_rows, format_perf_table,
                        format_zone_rows, format_zone_table, loc_totals,
                        measure_corpus, prepare_corpus, zone_totals)

    corpus = prepare_corpus(heuristic=args.heuristic)
    sections = {
        "zone_table": format_zone_table(
            zone_totals(corpus_zone_stats(corpus))),
        "solvability_table": format_equation_table(
            equation_totals(corpus)),
        "appendix_g_zones": format_zone_rows(corpus_zone_stats(corpus)),
        "appendix_g_locs": format_loc_rows(
            corpus_loc_stats(corpus),
            loc_totals(corpus_loc_stats(corpus))),
    }
    if args.perf:
        sections["perf_table"] = format_perf_table(
            measure_corpus(corpus, runs=args.runs))
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in sections.items():
        print(text)
        print()
        if out_dir:
            (out_dir / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
    return 0


def _cmd_study(args) -> int:
    from .study.analysis import format_figure9

    print(format_figure9(resamples=args.resamples))
    return 0


def _add_parse_mode_options(parser) -> None:
    """The parse-mode flags ``run`` and ``check`` share."""
    parser.add_argument("--auto-freeze", action="store_true",
                        help="freeze all literals except ?-thawed ones")
    parser.add_argument("--prelude-unfrozen", action="store_true",
                        help="treat Prelude literals as thawed, as the "
                             "editor and tests can")
    parser.add_argument("--eval-budget", type=int, default=0,
                        metavar="STEPS",
                        help="cap evaluation at STEPS interpreter steps "
                             "(plus default recursion-depth and value-"
                             "size caps); a runaway program fails with a "
                             "one-line program_limit diagnostic instead "
                             "of hanging (0 = unlimited)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sketch-n-Sketch reproduction (PLDI 2016)")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="evaluate a little program and emit SVG")
    run_parser.add_argument("file")
    run_parser.add_argument("-o", "--output")
    run_parser.add_argument("--include-hidden", action="store_true",
                            help="include 'HIDDEN' helper shapes")
    _add_parse_mode_options(run_parser)
    run_parser.add_argument("--heuristic", choices=("fair", "biased"),
                            help="also run the Prepare stages with this "
                                 "assignment heuristic and report zone "
                                 "counts on stderr")
    run_parser.set_defaults(handler=_cmd_run)

    check_parser = commands.add_parser(
        "check", help="parse + run a program; nonzero exit and a one-line "
                      "diagnostic on any error (editor hook)")
    check_parser.add_argument("file")
    _add_parse_mode_options(check_parser)
    check_parser.set_defaults(handler=_cmd_check)

    serve_parser = commands.add_parser(
        "serve", help="run the multi-session sync service over HTTP")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="TCP port (0 picks a free one)")
    serve_parser.add_argument("--max-sessions", type=int, default=64,
                              help="live sessions kept before LRU "
                                   "eviction to snapshots")
    serve_parser.add_argument("--shards", type=int, default=4,
                              help="independent session shards (each with "
                                   "its own lock, LRU budget, and "
                                   "snapshot store)")
    serve_parser.add_argument("--workers", type=int, default=0,
                              help="max requests dispatched concurrently "
                                   "(0 = unbounded; same-session requests "
                                   "always serialize)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every request to stderr")
    serve_parser.add_argument("--eval-budget", type=int, default=0,
                              metavar="STEPS",
                              help="per-command evaluation budget: a "
                                   "runaway program gets a structured "
                                   "program_limit error (HTTP 422) and "
                                   "the session rolls back "
                                   "(0 = unlimited)")
    serve_parser.add_argument("--state-dir", metavar="DIR", default=None,
                              help="spill session state to DIR (write-"
                                   "behind) and replay it on boot: "
                                   "restarts are warm, SIGTERM drains "
                                   "and persists before exiting")
    serve_parser.set_defaults(handler=_cmd_serve)

    examples_parser = commands.add_parser(
        "examples", help="list or render the example corpus")
    examples_parser.add_argument("--render", metavar="DIR")
    examples_parser.set_defaults(handler=_cmd_examples)

    ingest_parser = commands.add_parser(
        "import",
        help="convert SVG to little and round-trip verify the result "
             "(parse + run + render + draggable zones); failures are "
             "quarantined with a one-line diagnostic")
    ingest_parser.add_argument("file",
                               help="an .svg file, or a directory with "
                                    "--bulk")
    ingest_parser.add_argument("-o", "--output",
                               help="write the verified program here "
                                    "(single-file mode; nothing is "
                                    "written on quarantine)")
    ingest_parser.add_argument("--bulk", action="store_true",
                               help="ingest every *.svg directly under "
                                    "FILE (a directory): per-document "
                                    "one-line statuses, a summary table "
                                    "and per-failure-class counters")
    ingest_parser.add_argument("--out-dir", metavar="DIR", default=None,
                               help="with --bulk, write each verified "
                                    "program as DIR/<name>.little")
    ingest_parser.add_argument("--strict", action="store_true",
                               help="with --bulk, exit nonzero if any "
                                    "document was quarantined (CI mode)")
    ingest_parser.add_argument("--eval-budget", type=int, default=0,
                               metavar="STEPS",
                               help="cap verification evaluation at STEPS "
                                    "interpreter steps (0 = unlimited)")
    ingest_parser.set_defaults(handler=_cmd_import)

    tables_parser = commands.add_parser(
        "tables", help="regenerate the paper's evaluation tables")
    tables_parser.add_argument("--out", metavar="DIR")
    tables_parser.add_argument("--heuristic", choices=("fair", "biased"),
                               default="fair",
                               help="assignment heuristic for the corpus")
    tables_parser.add_argument("--perf", action="store_true",
                               help="also run the timing table")
    tables_parser.add_argument("--runs", type=int, default=3)
    tables_parser.set_defaults(handler=_cmd_tables)

    study_parser = commands.add_parser(
        "study", help="print the Figure 9 user-study analysis")
    study_parser.add_argument("--resamples", type=int, default=10_000)
    study_parser.set_defaults(handler=_cmd_study)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
