#!/usr/bin/env python3
"""Render the whole example corpus to SVG files (Appendix C, "Exporting
to SVG").

Run:  python examples/logo_gallery.py [output-dir]
"""

import pathlib
import sys

from repro.core import run_program
from repro.examples import example_info, example_names, load_example


def main():
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                           else "examples/gallery")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in example_names():
        pipeline = run_program(load_example(name))
        path = out_dir / f"{name}.svg"
        path.write_text(pipeline.render() + "\n", encoding="utf-8")
        info = example_info(name)
        print(f"{path}  ({len(pipeline.canvas)} shapes)  - {info.title}")
    print(f"\nwrote {len(example_names())} SVG files to {out_dir}/")


if __name__ == "__main__":
    main()
