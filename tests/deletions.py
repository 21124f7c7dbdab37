"""Statement deletions over ``src/relci``, each run against all of tier-1.

A site is a statement of a module under ``src/relci`` that begins its
line, other than a ``def``, a ``class``, an import, a docstring (a bare
string) and ``pass``; compound statements count, and so do the
statements inside them.  Its mutant replaces the statement's lines with
``pass`` at the same indent.  The script copies the tree as
``tests/mutants.py`` does and first runs tier-1 there unmutated, which
must pass; then it runs tier-1 once per mutant, each in a fresh copy and
a fresh pytest process::

    pytest -x -q -p no:cacheprovider --hypothesis-seed=0 \\
        --ignore=tests/test_mutants.py tests

``tests/test_mutants.py`` is left out because it reads the sites and the
hand-written mutants off the source, so it would fail on every copy that
deletes one of their lines, the listed survivor's included.  One child
runs per CPU this process may use, each under a timeout and an
address-space cap (tier-1 passes well inside both; a deletion can loop
forever or grow a list without bound).  A mutant is caught when pytest
exits 1 (tests failed), 2 (a collection error) or 4 (the conftest failed
to import), runs past the timeout, or hits the cap (a ``MemoryError`` in
its output); it survives when pytest exits 0.  Run from the repository
root::

    python3 tests/deletions.py

It prints one line per mutant as it finishes, then the counts.  The exit
status is 1 when a mutant survives that ``JUSTIFIED`` does not list, a
listed one is caught or no longer a site, or pytest ends any other way.
This file is not a test module; ``tests/test_mutants.py`` checks in
tier-1, without running pytest, that the sites are deterministic, that
every mutated module compiles and that ``JUSTIFIED`` names current sites.
"""

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

try:
    from tests.mutants import ROOT, TIMEOUT_S, copy_tree
except ModuleNotFoundError:  # run as a script: tests/ is on the path, the root is not
    from mutants import ROOT, TIMEOUT_S, copy_tree

SRC = ROOT / "src" / "relci"
MEMORY_CAP = 1536 * 2**20  # bytes of address space per pytest process
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--ignore=tests/test_mutants.py", "tests")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Pass)

# site name: why its mutant survives every test
JUSTIFIED = {
    "cli.py:341 raise": "unreachable: a margin past the digit limit makes the largest |margin| "
    "pass it too, so the ``_num`` call before it raises the exit 2 first",
}


class Site(namedtuple("Site", "path start end text")):
    """Lines ``start``..``end`` (1-based, inclusive) of one statement of ``path``; ``text``
    is its first line, stripped."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.path.name}:{self.start} {self.text}"


def sites() -> list[Site]:
    """Every deletion site of ``src/relci``, by file name and then by line."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if (isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)
                    and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                             and isinstance(node.value.value, str))
                    and not lines[node.lineno - 1][:node.col_offset].strip()):
                out.append(Site(path, node.lineno, node.end_lineno, lines[node.lineno - 1].strip()))
    return sorted(out, key=lambda site: (site.path.name, site.start))


def mutate(site: Site) -> str:
    """The text of ``site.path`` with the statement at ``site`` replaced by ``pass``."""
    lines = site.path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = lines[site.start - 1]
    indent = first[: len(first) - len(first.lstrip())]
    return "".join([*lines[: site.start - 1], f"{indent}pass\n", *lines[site.end:]])


def _cap_memory() -> None:  # in the child, before pytest starts
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _start(site: Site | None) -> tuple[subprocess.Popen, str, float]:
    """A pytest process over a fresh copy of the tree, ``site`` deleted unless ``None``."""
    tmp = tempfile.mkdtemp(prefix="relci-deletion-")
    copy_tree(tmp)
    if site is not None:
        target = Path(tmp) / site.path.relative_to(ROOT)
        target.write_text(mutate(site), encoding="utf-8")
    with open(Path(tmp) / "pytest.out", "w", encoding="utf-8") as out:
        proc = subprocess.Popen([sys.executable, *PYTEST], cwd=tmp, stdout=out,
                                stderr=subprocess.STDOUT, env={**os.environ, "PYTHONPATH": "src"},
                                preexec_fn=_cap_memory, start_new_session=True)
    return proc, tmp, time.perf_counter()


def _stop(proc: subprocess.Popen, tmp: str) -> str:
    """The output of ``proc``, killed with its own children if still running; removes its copy."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    output = (Path(tmp) / "pytest.out").read_text(encoding="utf-8", errors="replace")
    shutil.rmtree(tmp)
    return output


def _verdict(returncode: int, seconds: float, output: str) -> str:
    if returncode == 0:
        return "survived"
    if returncode in (1, 2, 4):
        return "caught"
    if seconds > TIMEOUT_S:
        return "timeout"
    if "MemoryError" in output:
        return "memory"
    return f"exit {returncode}"


def _sweep(todo: list[Site | None]):
    """Run the mutants of ``todo`` (``None``: the unmutated tree), one per CPU at a time;
    yield (site, verdict, seconds, output) as each finishes."""
    todo, running = list(todo), []
    try:
        while todo or running:
            while todo and len(running) < len(os.sched_getaffinity(0)):
                site = todo.pop(0)
                running.append((site, *_start(site)))
            time.sleep(0.2)
            for job in running[:]:
                site, proc, tmp, started = job
                seconds = time.perf_counter() - started
                if proc.poll() is not None or seconds > TIMEOUT_S:
                    running.remove(job)
                    output = _stop(proc, tmp)
                    yield site, _verdict(proc.returncode, seconds, output), seconds, output
    finally:  # interrupted: no child outlives the script
        for _, proc, tmp, _ in running:
            _stop(proc, tmp)


def main() -> int:
    wall = time.perf_counter()
    for _, verdict, seconds, output in _sweep([None]):
        if verdict != "survived":
            raise SystemExit(f"tier-1 fails on the unmutated copy ({verdict}):\n{output}")
        print(f"{'(unmutated)':72} {'passed':9} {seconds:6.1f} s", flush=True)
    todo = sites()
    names = {site.name for site in todo}
    counts, wrong = {}, [name for name in JUSTIFIED if name not in names]
    for site, verdict, seconds, output in _sweep(todo):
        counts[verdict] = counts.get(verdict, 0) + 1
        note = ""
        if (verdict == "survived") != (site.name in JUSTIFIED) or verdict.startswith("exit"):
            wrong.append(site.name)
            note = "  UNEXPECTED" + (f"\n{output}" if verdict.startswith("exit") else "")
        print(f"{site.name[:72]:72} {verdict:9} {seconds:6.1f} s{note}", flush=True)
    print(f"{len(names)} sites: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
          + f"; {time.perf_counter() - wall:.0f} s wall, {len(os.sched_getaffinity(0))} workers")
    for name in wrong:
        print(f"UNEXPECTED: {name}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
