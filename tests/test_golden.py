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
from biblio import cli

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


def corpus_cases(tmp_path) -> list[tuple[str, tuple[str, ...]]]:
    """The cases that read a corpus (every subcommand but simulate)."""
    return [(name, argv) for name, argv in cli_cases.invocations(tmp_path)
            if argv[0] != "simulate"]


def test_main_loads_each_corpus_case_once(tmp_path, loads):
    for name, argv in corpus_cases(tmp_path):
        loads.clear()
        cli_cases.run_case(argv)
        # the parser refuses this case's --top-percent, before any load
        assert len(loads) == (name != "hcp-top-percent-spelling"), name


def shared_corpora(tmp_path):
    """(loaded corpus, [(case name, parsed args)]) for each set of files that
    exit-0 cases read, the cases in case order."""
    groups = {}
    for name, argv in corpus_cases(tmp_path):
        if not cli_cases.exit_code(name):
            args = cli.build_parser().parse_args(argv)
            files = (args.journals, args.papers, args.edges, args.strict)
            groups.setdefault(files, []).append((name, args))
    assert len(groups) == 7 and all(len(cases) > 1 for cases in groups.values())
    return [(cli.load_corpus(journals, papers, edges, strict=strict), cases)
            for (journals, papers, edges, strict), cases in groups.items()]


def test_handlers_on_one_shared_corpus_render_golden_bytes(tmp_path):
    """The exit-0 cases that read the same files share one loaded corpus. Each
    handler, run in case order and then in reverse, renders its golden bytes,
    so nothing one handler leaves cached on the corpus shows in another's output."""
    for corpus, cases in shared_corpora(tmp_path):
        for name, args in cases + cases[::-1]:
            args.check(args)
            text = cli._render(args.handler(args, corpus), getattr(args, "format", "json"))
            assert text.encode("utf-8") == cli_cases.golden_path(name).read_bytes(), name


def test_every_kept_table_is_keyed_by_its_name_first(tmp_path):
    """After every exit-0 case's handler has run on a shared corpus, each key
    the corpus keeps a table under begins with the name of one of its tables."""
    names = set()
    for corpus, cases in shared_corpora(tmp_path):
        for _, args in cases:
            args.check(args)
            args.handler(args, corpus)
        names |= {key[0] for key in corpus._tables}
    # no golden case reads an entity's fractional weight
    assert {"cells", "ranked", "sums", "baselines"} <= names <= {
        "cells", "ranked", "sums", "weight", "baselines"}


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
        # warnings are errors: a warning from src on any declared Python fails here
        run = subprocess.run([python, "-B", "-W", "error", "-c", CHILD], env=env,
                             capture_output=True, text=True, timeout=300)
        if run.returncode or run.stdout:
            failed[str(python)] = run.stdout or run.stderr[-2000:]
    assert failed == {}
