"""The process path: ``python -m biblio.cli`` in a fresh interpreter.

The golden test calls ``main`` in this process. Here one golden case per output
route runs as a process of its own, through ``entrypoint`` and the shutdown
after it, and its exit code, its stdout and every file it writes are compared
with ``tests/golden/``: ``entrypoint`` runs ``main`` with the cyclic collector
off and freezes the heap before the interpreter exits, and nothing it prints or
writes may be lost or changed by that.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases

SRC = Path(__file__).parent.parent / "src"
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
# Runs ``biblio.cli.entrypoint``, or ``sys.exit(main())``, as the argv after ``-c``
# names, on the rest of the argv; at exit it says on stderr whether anything is frozen
# and whether the collector is on.
AT_EXIT = """
import atexit, gc, sys
from biblio import cli
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0,
                              "enabled:", gc.isenabled(), file=sys.stderr))
if sys.argv.pop(1) == "entrypoint":
    cli.entrypoint()
else:
    sys.exit(cli.main())
"""


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, timeout=120)


@pytest.mark.parametrize("case, out_file, last_stderr_line", [
    ("rank", False, None),
    ("rank-csv", False, None),
    ("rank", True, None),
    ("simulate-surplus-uniform", False, None),
    ("hcp-top-percent-spelling", False,
     "biblio hcp: error: argument --top-percent: must be an exact rational in (0, 100], "
     "got '1_0'"),
    ("percentile-unknown-journal", False,
     "biblio: computation error: journal 'NOPE' has no categories under 'subjects'"),
    ("validate-dirty", False, "biblio: corpus has validation findings"),
], ids=["json", "csv", "out-file", "out-dir", "usage-error", "computation-error",
        "validation-findings"])
def test_a_process_writes_the_golden_bytes_and_exit_code(
        tmp_path, case, out_file, last_stderr_line):
    argv = dict(cli_cases.invocations(tmp_path))[case]
    out = tmp_path / "result.out"
    child = run("-m", "biblio.cli", *argv, *(("--out", str(out)) if out_file else ()))
    assert child.returncode == cli_cases.exit_code(case), child.stderr
    if out_file:
        assert child.stdout == b""
    written = {"out": out.read_bytes() if out_file else child.stdout, **cli_cases.outputs(argv)}
    for output, data in written.items():
        assert data == cli_cases.golden_path(case, output).read_bytes(), output
    lines = child.stderr.decode("utf-8").splitlines()
    assert lines[-1:] == ([last_stderr_line] if last_stderr_line else [])


@pytest.mark.parametrize("entry, frozen", [("entrypoint", True), ("main", False)])
def test_only_the_process_path_exits_with_the_heap_frozen(tmp_path, entry, frozen):
    argv = dict(cli_cases.invocations(tmp_path))["rank"]
    child = run("-c", AT_EXIT, entry, *argv)
    assert (child.returncode, child.stdout) == (0, cli_cases.golden_path("rank").read_bytes())
    # entrypoint runs with the collector off; main leaves it as it found it
    assert child.stderr.decode("utf-8") == f"frozen at exit: {frozen} enabled: {not frozen}\n"
