"""Count the package's lines, or list the statements that no benchmark or default run executes.

    python3 tools/census.py --lines
    python3 tools/census.py --traffic

--lines prints, per module of src/wealthgas and in total, the physical lines and the code
lines.  The rule: a code line is a physical line that some token covers, other than a
comment, a line break, an indent or a dedent; the string of a module, class or function
docstring is no token, and a token that spans several lines covers each of them.

--traffic runs, in a temporary directory and under a line tracer limited to src/, each
benchmark workload's setup and job at the sizes of perfbench/test_smoke.py (TINY, seed 3),
then `iterate`, `verify` and `families` at their defaults and `simulate` at its defaults with
--agents 1000 --transactions 10000.  It lists every simple statement inside a function (not a
docstring, and not the header of an if, for, while, try, with or def) that none of these runs
executed, those that are not a `raise` first.  A statement counts as executed when the tracer
saw any of its lines.  Forked children inherit the tracer and report to the same file, so a
child's statements count too.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wealthgas"
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With, ast.AsyncWith,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Match)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def _docstrings(tree: ast.Module) -> set[int]:
    """First lines of the module's, its classes' and its functions' docstrings."""
    return {node.body[0].lineno for node in ast.walk(tree)
            if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}


def count_lines(source: str) -> tuple[int, int]:
    """Physical lines and code lines of ``source``, by the rule of ``--lines``."""
    docstrings = _docstrings(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NO_CODE or tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def print_lines() -> None:
    total = [0, 0]
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in modules():
        physical, code = count_lines(path.read_text())
        total = [total[0] + physical, total[1] + code]
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total[0]:>10}{total[1]:>8}")


def statements(source: str) -> list[ast.stmt]:
    """The simple statements inside a function of ``source``, docstrings left out."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not isinstance(child, _COMPOUND):
                if in_function and child.lineno not in docstrings:
                    found.append(child)
            else:
                visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _runs(workdir: Path) -> None:
    """The traced runs: the workloads' jobs at TINY sizes, then the subcommands at their defaults."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import test_smoke
    import workloads

    from wealthgas import cli

    for name in workloads.WORKLOADS:
        workload = workloads.make(name, test_smoke.TINY)
        inputs = workload.setup(3, workdir / name)
        outdir = workdir / name / "out"
        outdir.mkdir(parents=True, exist_ok=True)
        result = workload.job(inputs, outdir)
        bad, _ = workload.check(inputs, outdir, result)
        if bad:
            raise RuntimeError(f"workload {name}: {bad[:3]}")
    for argv in (["iterate"], ["simulate", "--agents", "1000", "--transactions", "10000"],
                 ["verify"], ["families"]):
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                code = cli.main([*argv, "--out", str(workdir / argv[0])])
            finally:
                sys.stdout = stdout
        if code:
            raise RuntimeError(f"wealthgas {argv[0]} exited {code}")


def trace_lines() -> set[tuple[str, int]]:
    """(file, line) of every line of src/ that the runs executed, in this process or a forked child."""
    prefix = str(PACKAGE) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        hits = Path(tmp) / "hits"
        fd = os.open(hits, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        seen = set()

        def on_line(frame, event, arg):
            if event == "line":
                key = (frame.f_code.co_filename, frame.f_lineno)
                if key not in seen:  # one small O_APPEND write per new line, shared with the children
                    seen.add(key)
                    os.write(fd, f"{key[1]} {key[0]}\n".encode())
            return on_line

        def on_call(frame, event, arg):
            return on_line if frame.f_code.co_filename.startswith(prefix) else None

        sys.settrace(on_call)
        try:
            _runs(Path(tmp))
        finally:
            sys.settrace(None)
            os.close(fd)
        return {(name, int(line)) for line, name in
                (row.split(" ", 1) for row in hits.read_text().splitlines())}


def print_traffic() -> None:
    executed = trace_lines()
    unrun = {False: [], True: []}
    for path in modules():
        source = path.read_text()
        lines = source.splitlines()
        for stmt in statements(source):
            if not any((str(path), k) in executed for k in range(stmt.lineno, stmt.end_lineno + 1)):
                row = f"{path.name}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}"
                unrun[isinstance(stmt, ast.Raise)].append(row)
    for is_raise, heading in ((False, "statements never executed"), (True, "raise statements never executed")):
        print(f"{heading}: {len(unrun[is_raise])}")
        print("".join(f"  {row}\n" for row in unrun[is_raise]), end="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lines", action="store_true", help="physical and code lines per module")
    mode.add_argument("--traffic", action="store_true", help="statements no traced run executes")
    args = parser.parse_args(argv)
    if args.lines:
        print_lines()
    else:
        print_traffic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
