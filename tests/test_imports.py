"""Each ``biblio`` process loads only the modules it runs.

Importing the package loads no submodule. The CLI loads what every corpus
subcommand needs (the corpus model, its errors, the loader and the renderer),
and each subcommand adds the modules its handler calls. The loader imports the
standard library's ``csv`` only to read a CSV file. Each check runs in a fresh
interpreter, because this one has long since imported every module.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases
import corpora
from biblio import dump_corpus

SRC = Path(__file__).parent.parent / "src"
# Prints the biblio submodules loaded by the code before it, as a JSON list.
LOADED = """
import json, sys
print(json.dumps(sorted(m[len("biblio."):] for m in sys.modules if m.startswith("biblio."))))
"""
# Runs biblio.cli.main on the argv after ``-c`` with its stdout discarded, then
# prints the exit code on a line of its own.
MAIN = """
import contextlib, io, sys
from biblio.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code)
"""

CLI = {"cli", "corpus", "errors", "io", "rounding"}
SUBCOMMAND_ADDS = {
    "validate": set(),
    "rank": {"ranking"},
    "percentile": {"ranking"},
    "quartiles": {"ranking"},
    "baselines": {"normalization"},
    "cnci": {"normalization"},
    "relative-cnci": {"normalization"},
    "hcp": {"excellence"},
    "hcp-report": {"excellence"},
    "entity-share": {"excellence"},
    "simulate": {"normalization", "ranking", "synthesis"},
}


def child(code: str, *argv: str) -> list[str]:
    """The stdout lines of ``code`` run by a fresh interpreter on ``argv``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code + LOADED, *argv],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def loaded(code: str, *argv: str) -> set[str]:
    return set(json.loads(child(code, *argv)[-1]))


def test_importing_the_package_loads_no_submodule():
    assert loaded("import biblio") == set()


def test_importing_the_cli_loads_only_what_every_corpus_subcommand_needs():
    assert loaded("import biblio.cli") == CLI


def test_importing_synthesis_loads_neither_the_loader_nor_the_cli():
    assert loaded("import biblio.synthesis") == {
        "corpus", "errors", "normalization", "ranking", "rounding", "synthesis"}


def test_a_public_name_loads_its_home_module_on_first_use():
    assert loaded("import biblio\nbiblio.rank_category") == {
        "corpus", "errors", "ranking", "rounding"}
    assert loaded("from biblio import hcp_run") == {
        "corpus", "errors", "excellence", "rounding"}


def test_a_submodule_is_an_attribute_of_the_package_on_first_use():
    assert loaded("import biblio\nassert biblio.io.load_corpus is biblio.load_corpus") == {
        "corpus", "errors", "io", "rounding"}


@pytest.mark.parametrize("subcommand", SUBCOMMAND_ADDS)
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, subcommand):
    argv = dict(cli_cases.invocations(tmp_path))[subcommand]
    *_, code, modules = child(MAIN, *argv)
    assert int(code) == cli_cases.exit_code(subcommand)
    assert set(json.loads(modules)) == CLI | SUBCOMMAND_ADDS[subcommand]


@pytest.mark.parametrize("suffix, loads_csv", [(".jsonl", False), (".csv", True)])
def test_csv_is_loaded_only_to_read_a_csv_file(tmp_path, suffix, loads_csv):
    journals, papers = tmp_path / f"j{suffix}", tmp_path / f"p{suffix}"
    dump_corpus(corpora.make_two_papers(), journals, papers)
    *_, code, csv_loaded, _ = child(MAIN + 'print("csv" in sys.modules)\n',
                                    "validate", "--journals", str(journals), "--papers", str(papers))
    assert (int(code), csv_loaded) == (0, str(loads_csv))
