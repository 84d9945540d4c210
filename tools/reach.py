"""Print every function under ``src/hjreg`` that no reference run reaches,
and how many lines of the reached ones the runs leave unrun.

The reference runs are the ones ``tools/digests.py`` makes (its digest
lines are discarded; its runs write under a temporary root) and the tests
of ``tests/test_acceptance.py``.  A ``sys.settrace`` hook follows only the
frames whose code lives in ``src/hjreg`` and records, per code object,
every line they ran (all in this thread: the digest runs run their
ensemble serially).  The functions of the package are the code objects of
its ``def`` statements, found by compiling each module, and one counts as
reached when its code object ran.  Lambdas, comprehensions and
dataclass-generated methods are not counted.  A reached function's
executable lines are the distinct line numbers of its own code object's
``co_lines()``, its ``def`` line included; the lines of the lambdas and
comprehensions inside it belong to their own code objects and are not
counted.

Output: one ``module.qualname`` per unreached function, sorted, marked
``(perfbench)`` when ``perfbench/spans.py`` traces it and ``(cli)`` when
it handles a ``hjreg`` command, so the unmarked names are the deletable
ones; then a count line; then ``unreached lines: N of M in reached
functions``; then ``<module>.py code lines: N`` per module, then ``src/
code lines: N``, the lines of the package's modules that are not blank,
comment-only or inside a docstring (the leading string of the module, a
class or a function), then ``src/ lines: N``, their whole line count,
which every change reports.  When a reference run fails, neither the
unreached list nor the unreached lines are printed (a partial run reaches
less), the tail of the runs' captured output goes to stderr, and the exit
code is 1; the line counts are still printed last.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "hjreg"
# Lines of the reference runs' output shown when one of them fails.
TAIL_LINES = 40


def package_functions() -> dict[tuple[str, int, str], str]:
    """``(file, first line, name)`` of every ``def`` in the package, mapped
    to its ``module.qualname``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            is_def = not code.co_name.startswith("<")
            if is_def and code.co_flags & inspect.CO_OPTIMIZED:
                key = (str(path), code.co_firstlineno, code.co_name)
                out[key] = f"{path.stem}.{code.co_qualname}"
    return out


def code_lines(path: Path) -> int:
    """The lines of ``path`` that are not blank, comment-only or inside a
    docstring."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def reference_runs() -> tuple[bool, str]:
    """Run the digest runs and the acceptance tests: whether all pass, and
    the output they printed."""
    import pytest

    digests = runpy.run_path(str(REPO / "tools" / "digests.py"), run_name="digests")
    captured = io.StringIO()
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        digest_code = digests["main"](["--out", root])
        test_code = pytest.main(["-q", "-p", "no:cacheprovider",
                                 str(REPO / "tests" / "test_acceptance.py")])
    return digest_code == 0 and test_code == 0, captured.getvalue()


def bound_names() -> dict[str, str]:
    """The ``module.qualname`` of every function perfbench traces and of
    every CLI command handler, mapped to its mark."""
    from hjreg import cli

    spans = runpy.run_path(str(REPO / "perfbench" / "spans.py"))
    marks = {f"{module}.{path}": "perfbench" for module, path in spans["TARGETS"]}
    marks.update({f"cli.{fn.__qualname__}": "cli" for fn in cli._COMMANDS.values()})
    return marks


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    # the lines each called code object of the package ran, its first
    # line (the ``def``, which gets no line event) included
    ran: dict = {}
    package = str(PACKAGE)

    def trace_lines(frame, event, arg):
        ran[frame.f_code].add(frame.f_lineno)
        return trace_lines

    def hook(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            ran.setdefault(frame.f_code, set()).add(frame.f_lineno)
            return trace_lines
        return None

    sys.settrace(hook)
    try:
        ok, output = reference_runs()
    finally:
        sys.settrace(None)
    if ok:
        reached = {(c.co_filename, c.co_firstlineno, c.co_name): c for c in ran}
        functions = package_functions()
        unreached = sorted(name for key, name in functions.items()
                           if key not in reached)
        marks = bound_names()
        for name in unreached:
            print(f"{name} ({marks[name]})" if name in marks else name)
        print(f"{len(unreached)} unreached functions")
        executable = {code: {line for *_, line in code.co_lines() if line is not None}
                      for key, code in reached.items() if key in functions}
        missed = sum(len(lines - ran[code]) for code, lines in executable.items())
        total = sum(len(lines) for lines in executable.values())
        print(f"unreached lines: {missed} of {total} in reached functions")
    else:
        tail = "\n".join(output.splitlines()[-TAIL_LINES:])
        print(f"{tail}\na reference run failed; no unreached list", file=sys.stderr)
        sys.stderr.flush()
    for path in sorted(PACKAGE.glob("*.py")):
        print(f"{path.name} code lines: {code_lines(path)}")
    print(f"src/ code lines: {sum(code_lines(p) for p in PACKAGE.glob('*.py'))}")
    lines = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    print(f"src/ lines: {lines}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
