"""Show, for every entry of the tolerance table, what notices when it moves.

    python3 tools/tolerance_sweep.py

The table is the block of assignments that opens with "# The tolerance
table" in src/orthosfm/geometry.py and ends at its first blank line.  For
each entry, and for each of two rewrites (the value times 100, then divided
by 100), the tool copies the repository into a temporary directory, rewrites
the entry there, runs the tier-1 tests and tools/answer_digest.py in the
copy, and prints the tests that failed and the digest layers whose lines
differ from an unmodified copy's.  The checkout itself is never written.
An entry neither moves is one that no test and no digest line can see.
Standard library only; one sweep runs the tier-1 suite 25 times.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path("src", "orthosfm", "geometry.py")
MARKER = "# The tolerance table"
REWRITES = (("x100", "* 100"), ("/100", "/ 100"))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", ".orthobench")


def table_entries(source: str) -> list:
    """(name, first line, last line, value source) of every assignment in
    the table block of geometry's source, in order; lines count from 1."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(MARKER))
    end = next((i for i in range(start, len(lines)) if not lines[i].strip()), len(lines))
    entries = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and start < node.lineno <= end:
            (target,) = node.targets
            entries.append((target.id, node.lineno, node.end_lineno,
                            ast.get_source_segment(source, node.value)))
    return entries


def rewritten(source: str, name: str, op: str) -> str:
    """source with the table entry name's value v replaced by (v) op."""
    lines = source.splitlines(keepends=True)
    for entry, first, last, value in table_entries(source):
        if entry == name:
            text = "".join(lines[first - 1:last])
            new = text.replace(value, f"({value}) {op}", 1)
            return "".join(lines[:first - 1]) + new + "".join(lines[last:])
    raise KeyError(name)


def run_copy(copy: Path) -> tuple:
    """(failed test ids, digest lines by layer) of the repository at copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = sorted(set(re.findall(r"^(?:FAILED|ERROR) (\S+)", tests.stdout, re.M)))
    digest = subprocess.run([sys.executable, str(copy / "tools" / "answer_digest.py")],
                            cwd=copy, env=env, capture_output=True, text=True)
    layers = dict(line.split(" ", 1) for line in digest.stdout.splitlines())
    if digest.returncode:
        layers["(digest failed)"] = digest.stderr.strip().splitlines()[-1:]
    return failed, layers


def main() -> int:
    source = (ROOT / TABLE).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        base_failed, base_layers = run_copy(copy)
        print(f"unmodified: {len(base_failed)} tests failed", flush=True)
        for name, *_ in table_entries(source):
            for label, op in REWRITES:
                (copy / TABLE).write_text(rewritten(source, name, op), encoding="utf-8")
                failed, layers = run_copy(copy)
                failed = [t for t in failed if t not in base_failed]
                moved = sorted(k for k in base_layers.keys() | layers.keys()
                               if base_layers.get(k) != layers.get(k))
                seen = "seen" if failed or moved else "NOT SEEN"
                print(f"{name} {label}: {seen}; {len(failed)} tests failed"
                      f"{': ' + ', '.join(failed) if failed else ''}; digest layers moved: "
                      f"{', '.join(moved) or 'none'}", flush=True)
            (copy / TABLE).write_text(source, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
