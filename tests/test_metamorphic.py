"""Outputs do not depend on the order of the input rows.

Every exit-0 corpus case of ``cli_cases`` runs again with the rows of its
journals, papers and edges files shuffled, with a fixed seed per file, and
must print its golden bytes. The schema registry row stays first in the
journals file, because journals resolve their schemas against it.
"""
import random
from pathlib import Path

import cli_cases

CORPUS_FLAGS = ("--journals", "--papers", "--edges")

# Exit-0 corpus cases whose stdout may follow row order, each with its reason.
# A case exempted here must still print other bytes when its rows are shuffled.
EXEMPT: dict[str, str] = {}


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


def shuffled_cases(tmp_path: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every exit-0 corpus case, its corpus files shuffled."""
    original, out = tmp_path / "original", tmp_path / "shuffled"
    original.mkdir()
    copies: dict[str, Path] = {}
    cases = []
    for name, argv in cli_cases.invocations(original):
        if argv[0] == "simulate" or cli_cases.exit_code(name):
            continue
        argv = list(argv)
        for i, flag in enumerate(argv[:-1]):
            if flag in CORPUS_FLAGS:
                path = Path(argv[i + 1])
                seed = path.relative_to(original).as_posix()  # one seed per file
                if seed not in copies:
                    copies[seed] = shuffle_rows(path, seed, out)
                argv[i + 1] = str(copies[seed])
        cases.append((name, argv))
    return cases


def test_shuffled_rows_print_the_golden_bytes(tmp_path):
    cases = shuffled_cases(tmp_path)
    assert set(EXEMPT) <= {name for name, _ in cases}
    differ = []
    for name, argv in cases:
        code, files = cli_cases.run_case(argv)
        if (code, files["out"]) != (0, cli_cases.golden_path(name).read_bytes()):
            differ.append(name)
    assert differ == sorted(EXEMPT, key=[name for name, _ in cases].index)
