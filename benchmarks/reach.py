"""Lines of `src/icecache` that no program path runs.

    python3 benchmarks/reach.py [--workload NAME|all]

Run from the repository root. It traces every path a program takes through
the package:

  perfbench  each workload's set-up and one decode of its window, through
             perfbench's own `Runner` and `verify`
  icecache   every subcommand on a small stream in a temporary directory:
             gen; bench with --csv; bench --trace; compare-baseline with a
             reuse stride; sweep --baseline; a planted-needle bench with two
             query heads per kv head; pipeline-est

The tracer (`sys.settrace`, limited to `src/icecache`) is installed before
the package is imported, so import-time lines count; `threading.settrace`
installs it in the package's helper thread too. BLAS runs on one thread.
Tests are not traced: a line that only a test reaches is listed.

It prints one line per module, its executable lines that never ran as
ranges, and a last line with the totals. A line is executable if the
compiled module attributes bytecode to it.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import runpy
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icecache"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402,F401  (imported untraced: only the package is traced)

_PREFIX = str(SRC) + os.sep
_ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_PREFIX):
        return None
    _ran.setdefault(path, set())
    return _local


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled module attributes bytecode to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: "3-5, 9"."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_perfbench(names: list[str]) -> None:
    from perfbench.bench import Runner, verify
    from perfbench.workloads import WORKLOADS
    for name in names:
        runner = Runner(WORKLOADS[name], seed=0)
        engine, _ = runner.setup()
        run = runner.decode(engine)
        verify(run)
        if run.failed:
            sys.exit(f"reach: {name} failed: {run.problems[:3]}")


def run_cli(tmp: Path) -> None:
    from icecache.cli import main
    small = ["--tokens", "720", "--d", "16", "--d-prime", "8", "--clusters", "8",
             "--layers", "3", "--kv-heads", "1"]
    trace, report = str(tmp / "w.icet"), ["--report", str(tmp / "report.json")]
    commands = [
        ["gen", *small, "--out", trace],
        ["bench", *small, "--steps", "4", "--budget", "16", "--csv", str(tmp / "rows.csv"),
         *report],
        ["bench", "--trace", trace, "--layers", "3", "--kv-heads", "1", "--d", "16",
         "--d-prime", "8", "--steps", "4", "--budget", "16", *report],
        ["compare-baseline", *small, "--steps", "4", "--budget", "16",
         "--skip-layers", "1", "--reuse-stride", "2", *report],
        ["sweep", *small, "--steps", "4", "--budgets", "8,16", "--baseline", *report],
        ["bench", "--kind", "planted_needle", "--tokens", "400", "--d", "16", "--d-prime", "8",
         "--layers", "3", "--kv-heads", "2", "--group-size", "2", "--steps", "4",
         "--budget", "16", *report],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--seed", "0", *argv])
        if code:
            sys.exit(f"reach: icecache {' '.join(argv)} exited {code}")
    # pipeline-est through `python -m icecache`, so the entry module runs too
    saved, sys.argv = sys.argv, ["icecache", "--seed", "0", "pipeline-est", "--prefill", "1",
                                 "--offload", "2", "--index", "3", "--layers", "4", *report]
    try:
        runpy.run_module("icecache", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            sys.exit(f"reach: icecache {' '.join(sys.argv[1:])} exited {exc.code}")
    finally:
        sys.argv = saved


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a perfbench workload name, or all (the default)")
    args = parser.parse_args()

    sys.settrace(_global)
    threading.settrace(_global)  # the helper thread starts on first use, after this
    try:
        from perfbench.workloads import WORKLOADS
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            sys.exit(f"reach: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
        run_perfbench(names)
        with tempfile.TemporaryDirectory() as tmp:
            run_cli(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - _ran.get(str(path), set()))
        total, unrun_total = total + len(lines), unrun_total + len(unrun)
        print(f"{path.name:<14} {len(unrun):>4} of {len(lines):>4} unrun: {ranges(unrun) or '-'}")
    print(f"{'total':<14} {unrun_total:>4} of {total:>4} unrun")


if __name__ == "__main__":
    main()
