"""Line gate: every executable line of the package runs under Tier-1.

    python tests/coverage.py

The script runs Tier-1 (the ROADMAP command, with ``src/`` first on
``PYTHONPATH``) in a subprocess, with this file loaded as a pytest plugin
(``-p coverage``, ``tests/`` being on the path too).
The plugin sets a trace function in the main thread and, through
``threading.settrace``, in every thread started after it, and sets it again
before each test, since a test or a library may replace it.  The trace
function asks for line events only in frames whose code lies under
``src/streamreg``, so a frame outside the package costs one call event.
When the run ends the plugin writes the lines it saw to a file.

The executable lines of each module are those of its code objects'
``co_lines``.  The script prints every one that never ran, and exits
non-zero if one is not in ALLOWED, if Tier-1 does not pass under the
tracer, or if an ALLOWED entry matches no unreached line (an entry that
outlived what it excused).  It uses the standard library only: no coverage
tool is a dependency.  The file has no ``test_`` prefix, so pytest does not
collect it.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamreg"

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


class Allowed(NamedTuple):
    path: str  # under src/streamreg
    name: str  # the qualified name of the line's function, or its text
    reason: str


# Lines no Tier-1 process runs in the traced interpreter.  Each entry gives
# its reason; a line that a test could reach belongs in a test, not here.
ALLOWED = [
    Allowed("cli.py", "_cmd_serve",
            "`streamreg serve` blocks in serve_forever until SIGINT, so "
            "its tests run it in a subprocess"),
    Allowed("cli.py", "sys.exit(main())",
            "runs only when cli.py is the main module, in a subprocess"),
]

OUT_OPTION = "--line-trace-out"


def pytest_addoption(parser):
    parser.addoption(OUT_OPTION, help="file to write the traced lines to")


def _tracer(prefix, hits):
    """A global trace function that records (file, line) in ``hits`` for
    each line run in a frame whose file starts with ``prefix``.  Both are
    bound here, not read from module globals, which are cleared at
    interpreter shutdown while daemon threads may still run."""
    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        # a frame with no file name is skipped, so that the tracer cannot
        # raise while the interpreter shuts down
        if name is not None and name.startswith(prefix):
            return on_line
        return None

    return on_call


_trace = None
_hits = set()


def _install():
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_configure(config):
    global _trace
    if config.getoption(OUT_OPTION) is None:
        return
    _trace = _tracer(str(PACKAGE) + os.sep, _hits)
    _install()


def pytest_runtest_setup(item):
    if _trace is not None:
        _install()


def pytest_unconfigure(config):
    out = config.getoption(OUT_OPTION)
    if out is None:
        return
    sys.settrace(None)
    threading.settrace(None)
    Path(out).write_text(json.dumps(sorted(_hits)))


def executable_lines(path):
    """{line: qualified name of the innermost function that holds it} for
    every line that one of the module's code objects runs an instruction
    of; the module's own lines are named ``<module>``."""
    found = {}

    def walk(code):
        for _, _, line in code.co_lines():
            if line:  # None or 0 marks an instruction of no source line
                found[line] = code.co_qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return found


def unreached(hits):
    """[(path, line, qualified name, text)] of every executable line of the
    package that is not in ``hits``, a set of (file, line)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line, name in sorted(executable_lines(path).items()):
            if (str(path), line) not in hits:
                out.append((path.name, line, name, text[line - 1].strip()))
    return out


def allowed(path, name, text):
    """The ALLOWED entry that excuses a line, or None."""
    for entry in ALLOWED:
        if entry.path == path and entry.name in (name, text):
            return entry
    return None


def main():
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="lines-") as tmp:
        out = Path(tmp) / "lines.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests"),
             *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run(
            [sys.executable, *TIER1, "-p", "coverage", f"{OUT_OPTION}={out}"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        tail = (run.stdout.strip().splitlines() or [""])[-1]
        if run.returncode != 0 or not out.exists():
            print(f"Tier-1 does not pass under the tracer:\n"
                  f"{(run.stdout + run.stderr)[-3000:]}")
            return 1
        hits = {tuple(hit) for hit in json.loads(out.read_text())}
    print(f"Tier-1 under the tracer: {tail}")
    missed = unreached(hits)
    excused = []
    for path, line, name, text in missed:
        entry = allowed(path, name, text)
        print(f"{'allowed' if entry else 'UNREACHED':9} {path}:{line} "
              f"({name}): {text}")
        excused += [entry] if entry else []
    stale = [entry for entry in ALLOWED if entry not in excused]
    for entry in stale:
        print(f"STALE     allowed entry {entry.path}: {entry.name} "
              f"matches no unreached line")
    failed = len(missed) - len(excused) + len(stale)
    print(f"{len(missed)} unreached lines, {len(excused)} of them allowed, "
          f"{failed} failures, in {time.monotonic() - began:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
