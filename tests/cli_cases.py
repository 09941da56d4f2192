"""The CLI invocations whose stdout is pinned byte for byte.

One invocation per subcommand, over small fixture corpora written to a
scratch directory. Acceptance criterion 9 reruns them in-process to check
determinism; ``test_golden`` compares their stdout against the files in
``tests/golden/``, so byte identity also holds across changes to the code.

Regenerate the golden files (only for an intended output change) with::

    PYTHONPATH=src python tests/cli_cases.py
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import corpora
from biblio import dump_corpus
from biblio.cli import main

SCHEMA = corpora.SCHEMA
GOLDEN_DIR = Path(__file__).parent / "golden"


def invocations(tmp_path: Path) -> list[tuple[str, ...]]:
    """Write the fixture corpora under ``tmp_path`` and return one argv per
    subcommand, the subcommand first."""

    def files(name, corpus):
        base = tmp_path / name
        base.mkdir()
        paths = (base / "j.jsonl", base / "p.jsonl", base / "e.jsonl")
        dump_corpus(corpus, *paths[:2], paths[2] if corpus.edges is not None else None)
        return paths

    two_j, two_p, _ = files("two_papers", corpora.make_two_papers())
    mini_j, mini_p, mini_e = files("mini", corpora.make_quota_mini())
    simpson_j, simpson_p, _ = files("simpson", corpora.make_simpson())

    config = tmp_path / "gen.yaml"
    config.write_text(
        "seed: 3\nnum_categories: 8\njournals_per_category: 20\npapers_per_journal: 1\n",
        encoding="utf-8",
    )

    argvs = [
        ("validate", "--journals", two_j, "--papers", two_p),
        ("rank", "--journals", two_j, "--papers", two_p,
         "--schema", SCHEMA, "--category", "A", "--year", "2020"),
        ("percentile", "--journals", two_j, "--papers", two_p,
         "--schema", SCHEMA, "--journal", "JAB", "--year", "2020"),
        ("quartiles", "--journals", two_j, "--papers", two_p,
         "--schema", SCHEMA, "--year", "2020"),
        ("baselines", "--journals", two_j, "--papers", two_p, "--schema", SCHEMA),
        ("cnci", "--journals", two_j, "--papers", two_p,
         "--schema", SCHEMA, "--per-paper"),
        ("relative-cnci", "--journals", simpson_j, "--papers", simpson_p,
         "--schema", SCHEMA,
         "--subunit-entity", "team-s", "--reference-entity", "unit-r"),
        ("hcp", "--journals", mini_j, "--papers", mini_p, "--edges", mini_e,
         "--schema", "f", "--top-percent", "30",
         "--method", "quota", "--tiebreak", "chronology"),
        ("hcp-report", "--journals", mini_j, "--papers", mini_p, "--edges", mini_e,
         "--schema", "f", "--top-percent", "30", "--format", "csv",
         "--method", "quota", "--tiebreak", "chronology"),
        ("entity-share", "--journals", mini_j, "--papers", mini_p, "--edges", mini_e,
         "--schema", "f", "--entity", "org-a", "--top-percent", "30",
         "--method", "quota", "--tiebreak", "chronology"),
        ("simulate", "--config", config, "--experiment", "surplus", "--trials", "4"),
    ]
    return [tuple(str(a) for a in argv) for argv in argvs]


def golden_path(subcommand: str) -> Path:
    return GOLDEN_DIR / f"{subcommand}.out"


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in invocations(Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            if code != 0:
                sys.exit(f"{argv[0]} exited {code}")
            golden_path(argv[0]).write_bytes(out.getvalue().encode("utf-8"))
            print(f"wrote {golden_path(argv[0])}")


if __name__ == "__main__":
    _regenerate()
