"""Run the tracked mutants of ``table.py`` and report each as killed, survived or timed out.

Run from anywhere, with the test requirements (pytest, hypothesis, numpy) installed:

    python mutants/run.py

First the tests the table names run on an unchanged copy of the tree, and
each must pass; otherwise a kill would show nothing, and the run exits 2.
Then each mutant is applied to a fresh temporary copy of ``src/``,
``tests/`` and ``pyproject.toml``, and its named tests run there, one child
pytest per test file, each within ``TIMEOUT_S``.  A mutant is killed when
each named test fails or errors, or its test file fails to collect ("killed
at collection").  It survived when one of them passed, and it timed out
when a child ran past ``TIMEOUT_S``; the child's whole process group is
then stopped.  The exit status is 0 when every mutant was killed and 1
otherwise.  Only the standard library is imported here.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from table import MUTANTS  # noqa: E402

#: Seconds allowed to one child pytest; every named test runs in a few seconds.
TIMEOUT_S = 180

#: A short-summary line of pytest: outcome, then the node ID (a test file alone for a collection error).
_SUMMARY = re.compile(r"^(FAILED|ERROR) (\S+)", re.MULTILINE)


def copy_tree(dest):
    """Copy what the package tests need into dest, leaving caches behind."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(mutant, dest):
    """Write the mutant's edit into the copy at dest; its old text must occur exactly once."""
    path = dest / "src" / "adjointalg" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_pytest(dest, node_ids):
    """(pytest's status, or None on a timeout, and its output) for the node IDs in the copy at dest.

    The node IDs go to one pytest per test file: pytest runs no node at all
    once one file named by a node ID fails to collect.
    """
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    files = {}
    for node in node_ids:
        files.setdefault(node.split("::")[0], []).append(node)
    codes, outs = [], []
    for nodes in files.values():
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *nodes]
        child = subprocess.Popen(argv, cwd=dest, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            return None, child.communicate()[0]
        codes.append(child.returncode)
        outs.append(out)
    return max(codes), "".join(outs)


def verdict(code, out, killers):
    """killed, killed at collection, survived or timed out, and the named tests that passed."""
    if code is None:
        return "timed out", []
    failed = {node for _, node in _SUMMARY.findall(out)}
    spared = [k for k in killers if k not in failed and k.split("::")[0] not in failed]
    if spared:
        return "survived", spared
    at_collection = any(k.split("::")[0] in failed for k in killers)
    return "killed at collection" if at_collection else "killed", []


def main():
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        control = Path(tmp) / "control"
        copy_tree(control)
        killers = list(dict.fromkeys(k for m in MUTANTS for k in m.killers))
        code, out = run_pytest(control, killers)
        if code != 0:
            print(out, file=sys.stderr)
            print(f"the named tests do not all pass on the unchanged tree (pytest status {code})")
            return 2
        print(f"control: the {len(killers)} named tests pass on the unchanged tree")

        bad = 0
        for mutant in MUTANTS:
            dest = Path(tmp) / mutant.name
            copy_tree(dest)
            apply(mutant, dest)
            start = time.perf_counter()
            code, out = run_pytest(dest, mutant.killers)
            result, spared = verdict(code, out, mutant.killers)
            shutil.rmtree(dest)
            line = f"{mutant.name:<10} {result:<21} {time.perf_counter() - start:6.1f} s  {mutant.what}"
            if spared:
                line += f"; passed: {', '.join(spared)}"
            print(line, flush=True)
            bad += not result.startswith("killed")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
