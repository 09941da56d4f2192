"""Outputs do not depend on how the input is written.

Every exit-0 corpus case of ``cli_cases`` runs again on three rewrites of its
journals, papers and edges files, and must print its golden bytes:

- the rows of each file shuffled, with a fixed seed per file; the schema
  registry row stays first, because journals resolve their schemas against it;
- the loaded corpus as ``dump_corpus`` writes it in the other spelling
  (JSONL <-> CSV);
- the loaded corpus as ``dump_corpus`` writes it in the same spelling.
"""
import random
from pathlib import Path

import pytest

import cli_cases
from biblio import dump_corpus, load_corpus

CORPUS_FLAGS = ("--journals", "--papers", "--edges")

# (rewrite, case) pairs whose stdout may follow the rewrite, each with its
# reason. An exempted case must still print other bytes under its rewrite.
EXEMPT: dict[tuple[str, str], str] = {}


def shuffle_rows(path: Path, seed: str, out: Path) -> Path:
    """A copy of ``path`` under ``out`` with its rows shuffled by ``seed`` into
    another order; the registry row, when the file has one, stays first."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = lines[:1] if lines and lines[0].startswith('{"_schemas"') else []
    rows, rng = lines[len(head):], random.Random(seed)
    while rows == lines[len(head):] and len(set(rows)) > 1:
        rng.shuffle(rows)
    copy = out / seed
    copy.parent.mkdir(parents=True, exist_ok=True)
    copy.write_text("".join(head + rows), encoding="utf-8")
    return copy


def shuffled(files: dict[str, Path], strict: bool, original: Path, out: Path) -> dict:
    """Each file shuffled on its own, seeded by its path under ``original``."""
    return {flag: shuffle_rows(path, path.relative_to(original).as_posix(), out)
            for flag, path in files.items()}


def dumped(spell):
    """The rewrite that loads the files and dumps the corpus, each file with the
    suffix ``spell`` gives its own."""
    def rewrite(files: dict[str, Path], strict: bool, original: Path, out: Path) -> dict:
        corpus = load_corpus(files["--journals"], files["--papers"], files.get("--edges"),
                             strict=strict)
        copies = {flag: out / path.with_suffix(spell(path.suffix)).name
                  for flag, path in files.items()}
        out.mkdir(parents=True)
        dump_corpus(corpus, copies["--journals"], copies["--papers"], copies.get("--edges"))
        return copies
    return rewrite


REWRITES = {
    "shuffled": shuffled,
    "other-spelling": dumped(lambda suffix: ".csv" if suffix == ".jsonl" else ".jsonl"),
    "same-spelling": dumped(lambda suffix: suffix),
}


def rewritten_cases(tmp_path: Path, rewrite: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every exit-0 corpus case, its corpus files rewritten,
    once per set of files a case reads."""
    original = tmp_path / "original"
    original.mkdir()
    copies: dict[tuple, dict] = {}
    cases = []
    for name, argv in cli_cases.invocations(original):
        if argv[0] == "simulate" or cli_cases.exit_code(name):
            continue
        argv = list(argv)
        at = {argv[i]: i + 1 for i in range(len(argv) - 1) if argv[i] in CORPUS_FLAGS}
        files = {flag: Path(argv[i]) for flag, i in at.items()}
        key = (*files.items(), "--strict" in argv)
        if key not in copies:
            copies[key] = REWRITES[rewrite](files, "--strict" in argv, original,
                                            tmp_path / rewrite / str(len(copies)))
        for flag, i in at.items():
            argv[i] = str(copies[key][flag])
        cases.append((name, argv))
    return cases


def assert_golden(cases: list[tuple[str, list[str]]], rewrite: str) -> None:
    exempt = [name for kind, name in EXEMPT if kind == rewrite]
    assert set(exempt) <= {name for name, _ in cases}
    differ = []
    for name, argv in cases:
        code, files = cli_cases.run_case(argv)
        if (code, files["out"]) != (0, cli_cases.golden_path(name).read_bytes()):
            differ.append(name)
    assert differ == sorted(exempt, key=[name for name, _ in cases].index)


def test_shuffled_rows_print_the_golden_bytes(tmp_path):
    assert_golden(rewritten_cases(tmp_path, "shuffled"), "shuffled")


@pytest.mark.parametrize("rewrite", ["other-spelling", "same-spelling"])
def test_dumped_corpora_print_the_golden_bytes(tmp_path, rewrite):
    cases = rewritten_cases(tmp_path, rewrite)
    if rewrite == "other-spelling":  # every case's corpus is now read in CSV
        assert all(argv[argv.index("--papers") + 1].endswith(".csv") for _, argv in cases)
    assert_golden(cases, rewrite)
