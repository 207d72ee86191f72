#!/usr/bin/env python
"""Coverage gate: line coverage of ``src/repro`` under the fast test suite.

Fails (non-zero exit) if line coverage drops below the floor, so a PR
cannot silently shed tests.  Two measurement backends:

* **pytest-cov**, when installed (``pip install -e '.[cov]'``): the suite
  runs under ``pytest --cov=repro --cov-fail-under=<floor>``.
* **stdlib fallback**, otherwise: the suite runs in-process under a
  ``sys.settrace`` line tracer restricted to ``src/repro`` frames, and the
  executable-line universe comes from compiling each module and walking its
  code objects (``co_lines``).  Zero dependencies, so the gate is live even
  in environments where nothing can be installed.

The two backends count slightly differently (docstrings, worker
subprocesses), so the floor is calibrated *per backend*: ``REPRO_COV_FLOOR``
overrides both; the defaults below are pinned to what each backend last
reported green on the reference environment.  The suite measured is
``tests/``; the repo benchmark's smoke test under ``bench/`` is not part of
it.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: modules the gate refuses to run without — a rename or an accidental
#: deletion must fail loudly instead of silently shrinking the universe
REQUIRED_MODULES = (
    os.path.join("metrics", "flows.py"),
    os.path.join("simulation", "queues.py"),
    os.path.join("experiments", "policy.py"),
    os.path.join("experiments", "batched.py"),
    os.path.join("experiments", "analytic.py"),
    os.path.join("experiments", "report.py"),
    os.path.join("testing", "faults.py"),
    os.path.join("transport", "wire.py"),
    os.path.join("transport", "reliable.py"),
    os.path.join("transport", "endpoint.py"),
    os.path.join("transport", "harness.py"),
    os.path.join("transport", "impair.py"),
    "cache.py",
)

#: pinned floor for the pytest-cov backend (line coverage, percent)
DEFAULT_FLOOR = 85.0
#: pinned floor for the stdlib fallback backend.  Calibrated 2026-07-31 on
#: the reference container (measured 94.7%); pinned a few points under so
#: an environment-sized wobble does not fail the gate, while a real shed
#: of tests still does.
DEFAULT_FALLBACK_FLOOR = 90.0


def _pytest_cov_gate(floor: float) -> int:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{existing}" if existing else SRC_ROOT
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "--cov=repro",
        f"--cov-fail-under={floor:g}",
        "tests",
    ]
    print("coverage gate:", " ".join(command[1:]), f"(floor {floor:g}%)")
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


# ------------------------------------------------------- stdlib fallback


def _executable_lines(path: str) -> set:
    """Line numbers the compiler marks executable in one source file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    lines: set = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _stdlib_gate(floor: float) -> int:
    import threading

    import pytest

    if SRC_ROOT not in sys.path:
        sys.path.insert(0, SRC_ROOT)
    prefix = os.path.join(SRC_ROOT, "repro") + os.sep
    executed: dict = {}

    def line_tracer(frame, event, arg):
        if event == "line":
            lines = executed.get(frame.f_code.co_filename)
            if lines is None:
                lines = executed[frame.f_code.co_filename] = set()
            lines.add(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return line_tracer
        return None  # don't trace frames outside src/repro

    print(
        f"coverage gate: stdlib fallback (pytest-cov not installed), "
        f"floor {floor:g}%"
    )
    os.chdir(REPO_ROOT)
    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)

    total = hit = 0
    for directory, _, names in os.walk(os.path.join(SRC_ROOT, "repro")):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            lines = _executable_lines(path)
            total += len(lines)
            hit += len(lines & executed.get(path, set()))
    percent = 100.0 * hit / total if total else 0.0
    print(
        f"coverage gate: {hit}/{total} executable lines hit "
        f"({percent:.1f}%, floor {floor:g}%)"
    )
    if percent < floor:
        print(f"coverage gate FAILED: {percent:.1f}% < {floor:g}%", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    for module in REQUIRED_MODULES:
        path = os.path.join(SRC_ROOT, "repro", module)
        if not os.path.exists(path):
            print(f"coverage gate: required module missing: {path}", file=sys.stderr)
            return 1
    override = os.environ.get("REPRO_COV_FLOOR")
    if importlib.util.find_spec("pytest_cov") is not None:
        floor = float(override) if override else DEFAULT_FLOOR
        return _pytest_cov_gate(floor)
    floor = float(override) if override else DEFAULT_FALLBACK_FLOOR
    return _stdlib_gate(floor)


if __name__ == "__main__":
    sys.exit(main())
