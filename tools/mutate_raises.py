"""Mutation sweep over the `raise` statements of one module.

Each `raise` in the module is replaced by `pass`, one at a time, in a
temporary copy of the repository (the working tree is never edited).
The tier-1 suite then runs on the copy with `-x`, for at most TIMEOUT
seconds per mutant, and one line per mutant reports "killed by <test>",
"killed by timeout", "killed (pytest exit N)" when the run failed
without naming a test, or "survived".  A surviving mutant is a check that no test
observes.  Line numbers are those of the unmutated module.

Needs only the standard library and pytest.  Run from anywhere:

    python tools/mutate_raises.py src/riley/realroots.py

The sweep runs one pytest process at a time; a module with n raises
costs up to n runs of the suite.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
TIMEOUT = 300.0  # seconds per mutant; tier-1 takes about 20
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?: - |$)", re.MULTILINE)


def raises(source: str) -> list[ast.Raise]:
    return sorted(
        (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)),
        key=lambda n: (n.lineno, n.col_offset),
    )


def mutate(source: str, node: ast.Raise) -> str:
    """source with the statement `node` replaced by `pass`, padded with
    newlines so that every later line keeps its number.  ast's column
    offsets count UTF-8 bytes, so the splice is made on bytes."""
    data = source.encode()
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    pad = b"\n" * (node.end_lineno - node.lineno)
    return (data[:start] + b"pass" + pad + data[end:]).decode()


def run_suite(copy: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "killed by timeout"
    if done.returncode == 0:
        return "survived"
    failed = FAILED.search(done.stdout)
    return f"killed by {failed.group(1)}" if failed else f"killed (pytest exit {done.returncode})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/, e.g. src/riley/realroots.py")
    args = parser.parse_args()
    rel = args.module.resolve().relative_to(REPO)
    source = (REPO / rel).read_text(encoding="utf-8")
    nodes = raises(source)
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutate-raises-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=IGNORED)
        target = copy / rel
        for node in nodes:
            target.write_text(mutate(source, node), encoding="utf-8")
            verdict = run_suite(copy)
            survived += verdict == "survived"
            first = source.splitlines()[node.lineno - 1].strip()
            print(f"{rel}:{node.lineno}  {first}  {verdict}", flush=True)
        target.write_text(source, encoding="utf-8")
    print(f"{len(nodes)} mutants, {len(nodes) - survived} killed, {survived} survived")


if __name__ == "__main__":
    main()
