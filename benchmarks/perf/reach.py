"""Which lines of ``src/repro`` does production actually run?

Drives every production entry point the repo has under a line tracer —
all registry evals (``runall.run_all(jobs=1)`` into a temp dir), each
hostperf workload once quick and once full at the default seed,
``micro.run_all(repeats=1)`` and ``examples/*.py`` — and prints, per
file, the executable lines inside function bodies, how many of them
never ran, and how many of those sit in functions that were never
entered; then the never-entered functions by name.  A list, set or
dict comprehension counts toward the function it is written in, as on
Python 3.12, which inlines them (PEP 709): the table is the same on
every Python.  So does a generator expression, which no Python inlines:
one on a branch production never takes leaves lines of its function
unreached, not a function never entered.

Usage (from the repo root, about five minutes on two cores)::

    PYTHONPATH=src python -m benchmarks.perf.reach [--check]

``--check`` exits 1 when a never-entered function is not listed in
``reach_allow.txt`` (one ``module:qualname  # reason`` per line): a new
feature only tests reach needs a caller, a reason, or a deletion.  It
also exits 1 when a listed function is entered by production or no
longer exists, so no reason outlives what it explains.

The tracer keeps, per code object, the set of lines not yet seen and
stops tracing a code object once that set is empty — the hot paths go
quiet after their first few calls, which is what makes a full pass
minutes rather than hours.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import runpy
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"
ALLOW_PATH = pathlib.Path(__file__).with_name("reach_allow.txt")
CO_OPTIMIZED = 0x1  # set on function bodies, not on module or class bodies
#: code objects whose lines count toward the function they are written in.
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def function_bodies() -> dict:
    """``{(file, first line, name): [module:qualname, unseen lines,
    executable count, entered]}`` for every function body under
    ``src/repro`` (lambdas and nested functions too).  A comprehension's
    or generator expression's key maps to the record of the function it
    is written in, which counts its lines; one outside any function is
    not counted, as its module or class body is not."""
    table = {}
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC_ROOT).with_suffix("").parts)
        stack = [(compile(path.read_text(), str(path), "exec"), None)]
        while stack:
            code, enclosing = stack.pop()  # enclosing: (record, its def line)
            key = code.co_filename, code.co_firstlineno, code.co_name
            if code.co_name in COMPREHENSIONS:
                if enclosing is not None:
                    record, first = enclosing
                    record[1].update(line for _, _, line in code.co_lines()
                                     if line is not None and line != first)
                    record[2] = len(record[1])
                    table[key] = record
            elif code.co_flags & CO_OPTIMIZED:
                lines = {line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno}
                table[key] = [
                    f"{module}:{code.co_qualname}", lines, len(lines), False]
                enclosing = table[key], code.co_firstlineno
            else:
                enclosing = None
            stack.extend((c, enclosing) for c in code.co_consts
                         if hasattr(c, "co_code"))
    return table


def install(table: dict) -> None:
    """Trace every call into ``src/repro`` until its body is all seen."""
    records = {}  # id(code) -> (code, record or None); the code stays alive
    prefix = str(SRC_ROOT)

    def on_call(frame, event, arg):
        code = frame.f_code
        known = records.get(id(code))
        if known is None:
            record = None
            if code.co_filename.startswith(prefix):
                record = table.get(
                    (code.co_filename, code.co_firstlineno, code.co_name))
            known = records[id(code)] = (code, record)
        record = known[1]
        if record is None:
            return None
        record[3] = True
        unseen = record[1]
        if not unseen:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                unseen.discard(frame.f_lineno)
            return on_line if unseen else None

        return on_line

    sys.settrace(on_call)


def drive() -> None:
    """Every production entry point, once, output discarded."""
    from benchmarks.hostperf import micro, workloads
    from repro.eval import runall

    with contextlib.redirect_stdout(io.StringIO()):
        with tempfile.TemporaryDirectory() as directory:
            runall.run_all(jobs=1, results_dir=directory)
        for workload in workloads.WORKLOADS.values():
            workload(workloads.DEFAULT_SEED, quick=True)
            workload(workloads.DEFAULT_SEED, quick=False)
        micro.run_all(repeats=1)
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")


def report(table: dict) -> list:
    """Print the per-file table; return the never-entered functions
    (not the ones nested in one already listed, nor a body that shares
    its ``def`` or ``lambda`` line, which no line event tells apart).
    A record a comprehension shares with its function counts once."""
    files: dict = {}
    never, dead, counted = [], set(), set()
    for (filename, _, _), record in sorted(table.items()):
        if id(record) in counted:
            continue
        counted.add(id(record))
        name, unseen, count, entered = record
        row = files.setdefault(filename, [0, 0, 0])
        row[0] += count
        row[1] += len(unseen)
        if not entered:
            row[2] += count
            outer = name.rsplit(".<locals>.", 1)[0]
            if count and (outer == name or outer not in dead):
                never.append((name, count))
            dead.add(name)
    print(f"{'file':<44} {'executable':>10} {'unreached':>10} "
          f"{'never-entered':>14}")
    for filename, row in files.items():
        short = str(pathlib.Path(filename).relative_to(SRC_ROOT))
        print(f"{short:<44} {row[0]:>10} {row[1]:>10} {row[2]:>14}")
    total = [sum(row[i] for row in files.values()) for i in range(3)]
    print(f"{'total':<44} {total[0]:>10} {total[1]:>10} {total[2]:>14}")
    print(f"\nnever entered ({len(never)} functions):")
    for name, count in never:
        print(f"  {name}  ({count} lines)")
    return [name for name, _ in never]


def read_allowed() -> set:
    """The functions ``reach_allow.txt`` keeps on purpose."""
    names = (line.split("#")[0].strip()
             for line in ALLOW_PATH.read_text().splitlines())
    return {name for name in names if name}


def check(never: set, allowed: set) -> list:
    """What ``--check`` fails on, one line each: a never-entered function
    the allow-list does not name, and a listed one that production
    enters or that is gone.  Empty when the list is exact."""
    return ([f"never entered and not in {ALLOW_PATH.name}: {name}"
             for name in sorted(never - allowed)]
            + [f"in {ALLOW_PATH.name} but entered, or gone: {name}"
               for name in sorted(allowed - never)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.reach")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the never-entered functions are "
                             f"exactly those {ALLOW_PATH.name} lists")
    options = parser.parse_args(argv)
    table = function_bodies()
    install(table)
    try:
        drive()
    finally:
        sys.settrace(None)
    never = set(report(table))
    if not options.check:
        return 0
    problems = check(never, read_allowed())
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
