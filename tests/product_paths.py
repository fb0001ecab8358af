"""Which statements of src/mtcforge the product itself reaches.

    python3 tests/product_paths.py

Traces, with sys.settrace and in this one process, every `sfs` and `torus`
command in every format (with and without --oracle, the reseated unit, a
rank-129 `sfs`, a `--monodromy` value given as a separate argument, and the
refused inputs the CLI names), `verify` at default bounds and its json
report, the four demos, and one traced operation of each workload of the
benchmark under perfbench/, with its output check.  It then prints every
statement of src/mtcforge that none of these reach, and a count.  Pytest
does not collect it.

A statement is a simple statement, or the header of an if, while, for or
with; it is reached when a traced line falls within it.  Docstrings,
`global` and `nonlocal` run no code and are left out; so are def, class and
try headers, whose bodies are counted.  Code that only a process-pool
worker or a subprocess runs (`verify --jobs 2`) is not traced.  Takes
about 15 seconds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import random
import runpy
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtcforge"

SFS = [
    ["5,1", "3,2", "5,4"],
    ["4,3", "5,2", "3,2"],
    ["2,1", "2,1", "3,1"],
    ["2,1", "2,1", "4,1"],
    ["6,1", "7,3", "18,5"],   # rank 129: a partial last band, source-backed references
]
TORUS = ["--monodromy=2,1,1,1", "--monodromy=-10,9,-19,17"]
REFUSED = [
    ["sfs", "--fiber", "5,1", "--fiber", "3,2"],
    ["sfs", "--fiber", "4,2", "--fiber", "3,1", "--fiber", "3,1"],
    ["sfs", "--fiber", "5,1", "--fiber", "3,2", "--fiber", "5", "--format", "csv"],
    ["sfs", "--fiber", "2001,1", "--fiber", "2003,1", "--fiber", "2005,1"],
    ["sfs", "--fiber", "5,1", "--fiber", "3,2", "--fiber", "5,4", "--unit", "reseated"],
    ["torus", "--monodromy", "3,1,1,0"],
    ["torus", "--monodromy", "3,1,2,1"],
    ["torus", "--monodromy", "2,3,3,5"],
    ["torus", "--monodromy", "2,1,9,5"],
    ["torus", "--monodromy", "2,1,1"],
    ["torus", "--monodromy=2,1,1,1", "--oracle", "--format", "csv"],
    ["torus", "--monodromy", "9996,1,9995,1"],
    ["torus", "--monodromy", "712,-1,500537,-703", "--oracle", "--format", "json"],
    ["verify", "--max-p", "2"],
    ["verify", "--max-p", "30"],
    ["verify", "--jobs", "0"],
]


def commands() -> list[list[str]]:
    out = []
    for fibers in SFS:
        sfs = ["sfs"] + [a for f in fibers for a in ("--fiber", f)]
        out += [sfs + ["--format", fmt] for fmt in ("json", "csv", "pretty")]
    out += [["sfs", "--fiber", "3,1", "--fiber", "3,1", "--fiber", "6,1", "--unit", "reseated",
             "--format", fmt] for fmt in ("json", "csv", "pretty")]
    for mono in TORUS:
        out += [["torus", mono, "--format", fmt] for fmt in ("json", "csv", "pretty")]
        out += [["torus", mono, "--oracle", "--format", fmt] for fmt in ("json", "pretty")]
    out += [["torus", "--monodromy", "-10,9,-19,17", "--oracle", "--format", "json"]]
    return out + REFUSED + [["verify"], ["verify", "--suite", "rank6-table", "--format", "json"]]


def run_product() -> None:
    """Everything traced, with its output thrown away."""
    from mtcforge import cli

    for argv in commands():
        try:
            cli.main(argv)
        except SystemExit:   # argparse refused the arguments
            pass
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    t = bench.Tracer()
    triple = ((5, 1), (3, 2), (5, 4))
    for w, x in ((bench.SfsSweep(), triple), (bench.SfsLarge(), triple),
                 (bench.TorusOracle(), (2, 1, 1, 1)), (bench.Verify(), None)):
        x = w.inputs(0)[0] if x is None else x
        problems = w.check(x, w.op(x, t), random.Random(0))
        if problems:
            raise AssertionError(f"{w.name}: {problems}")


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that runs code, as above."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
                             ast.Global, ast.Nonlocal)) or not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        if isinstance(node, (ast.If, ast.While)):
            last = node.test.end_lineno
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            last = node.iter.end_lineno
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            last = node.items[-1].context_expr.end_lineno
        else:
            last = node.end_lineno
        out.append((node.lineno, last))
    return sorted(out)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # for the `verify` subprocess of the benchmark
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")]))
    if any(m == "mtcforge" or m.startswith("mtcforge.") for m in sys.modules):
        raise RuntimeError("mtcforge was imported before tracing began")
    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sink = io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            run_product()
    finally:
        sys.settrace(None)
    total = unreached = 0
    for path in sorted(SRC.glob("*.py")):
        lines, text = hits[str(path)], path.read_text().splitlines()
        for first, last in statements(path):
            total += 1
            if not any(i in lines for i in range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{unreached} of {total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
