"""CLI output pinned byte for byte against committed golden files.

Criterion 9 checks that two runs in one process agree; this checks that the
output also matches what earlier versions of the code printed and wrote, on
the running interpreter and on every other installed Python the package
declares. Regenerate the files only for an intended output change (see
``cli_cases``).
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases

TESTS = Path(__file__).parent
# Runs every case in the child interpreter and prints each difference.
CHILD = """
import pathlib, tempfile, cli_cases
with tempfile.TemporaryDirectory() as tmp:
    for difference in cli_cases.differences(pathlib.Path(tmp)):
        print(difference)
"""


def test_stdout_matches_golden_bytes(tmp_path):
    assert cli_cases.differences(tmp_path) == []


def sibling_interpreters() -> list[Path]:
    """Every other installed Python >= 3.10 next to the running one, in the
    pyenv layout: ``<versions>/<x.y.z>/bin/python3``, oldest first."""
    here = Path(sys.base_prefix)
    found = []
    for home in here.parent.iterdir():
        try:
            version = tuple(int(part) for part in home.name.split("."))
        except ValueError:
            continue
        python = home / "bin" / "python3"
        if home != here and version[:2] >= (3, 10) and python.exists():
            found.append((version, python))
    return [python for _, python in sorted(found)]


def test_golden_bytes_on_every_declared_python(tmp_path):
    pythons = sibling_interpreters()
    if not pythons:
        pytest.skip(f"no Python >= 3.10 installed next to {sys.base_prefix}")
    # Only PyYAML's pure-Python half loads on another interpreter, from a link to
    # the running interpreter's package.
    (tmp_path / "yaml").symlink_to(Path(importlib.util.find_spec("yaml").origin).parent)
    path = os.pathsep.join(map(str, [TESTS.parent / "src", TESTS, tmp_path]))
    env = {**os.environ, "PYTHONPATH": path}
    failed = {}
    for python in pythons:
        run = subprocess.run([python, "-B", "-c", CHILD], env=env, capture_output=True,
                             text=True, timeout=300)
        if run.returncode or run.stdout:
            failed[str(python)] = run.stdout or run.stderr[-2000:]
    assert failed == {}
