"""The CLI invocations whose output is pinned byte for byte.

At least one invocation per subcommand, over small fixture corpora written to
a scratch directory. Acceptance criterion 9 reruns them in-process to check
determinism; ``differences`` compares their stdout, and every file an
``--out-dir`` case writes, against the files in ``tests/golden/``, so byte
identity also holds across changes to the code and, in ``test_golden``,
across every Python the package declares. A case is named after its
subcommand, or after the subcommand and a suffix when there are several.
Every case exits 0 except those in ``EXIT_CODES``.

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

# Cases that exit non-zero by design; every other case exits 0.
EXIT_CODES = {"validate-dirty": 2, "validate-spellings": 2, "hcp-top-percent-spelling": 2,
              "percentile-unknown-journal": 3}

# One row per load-report reason, and one duplicate edge that collapses.
DIRTY = {
    "j.jsonl": [
        '{"_schemas": {"s": {"single_attribution": false}}}',
        '{"id": "J1", "categories": {"s": ["A"]}, "metric": {"2020": 2}}',
        '{"id": "J2", "categories": {"s": ["A"]}, "metric": {"2020": "x"}}',
        '{"id": "J1", "categories": {"s": ["B"]}}',
        '{"id": "J3", "categories": {"mystery": ["A"]}}',
    ],
    "p.jsonl": [
        '{"id": "P1", "journal": "J1", "year": 2020, "doc_type": "article"}',
        '{"id": "P2", "journal": "J1", "year": 2020, "doc_type": "article"}',
        '{"id": "P3", "journal": "J3", "year": 2020, "doc_type": "review"}',
        '{"id": "P4", "journal": "J1", "year": 2020}',
        '{"id": "P1", "journal": "J1", "year": 2021, "doc_type": "article"}',
        '{"id": "P5", "journal": "GHOST", "year": 2020, "doc_type": "article"}',
        '{"id": "P6", "journal": "J1", "year": 2020, "doc_type": "article", "citations": -1}',
    ],
    "e.jsonl": [
        '{"citing": "P2", "cited": "P1"}',
        '{"citing": "P2", "cited": "P1", "date": "2021-01-01"}',
        '{"citing": "P3"}',
        '{"citing": "P3", "cited": "NOPE"}',
        '{"citing": "P3", "cited": "P3"}',
    ],
}

# Metric strings that ``Fraction`` takes on some Pythons ("1_000" from 3.11,
# "1 /2" from 3.12) or on all ("+2"); the loader keeps only "1/3", "1e3" and
# the JSON number 2.5, on every version.
SPELLINGS = {
    "j.jsonl": [
        '{"_schemas": {"s": {"single_attribution": false}}}',
        *(f'{{"id": "J{i}", "categories": {{"s": ["A"]}}, "metric": {{"2020": {m}}}}}'
          for i, m in enumerate(['"1_000"', '"1 /2"', '"+2"', '"1/3"', '"1e3"', "2.5"], 1)),
    ],
    "p.jsonl": ['{"id": "P1", "journal": "J4", "year": 2020, "doc_type": "article"}'],
}


# A field name and a journal id that CSV output has to quote.
ENGINEERING = "Engineering, Electrical & Electronic"
QUOTED = {
    "j.jsonl": [
        '{"_schemas": {"f": {"single_attribution": false}}}',
        f'{{"id": "J\\"1", "categories": {{"f": ["{ENGINEERING}"]}}, "metric": {{"2020": 3}}}}',
        f'{{"id": "J2", "categories": {{"f": ["{ENGINEERING}", "Physics"]}}, '
        '"metric": {"2020": 2}}',
        '{"id": "J3", "categories": {"f": ["Physics"]}, "metric": {"2020": 1}}',
    ],
    "p.jsonl": [
        f'{{"id": "P{i}", "journal": "{jid}", "year": 2020, "doc_type": "article", '
        f'"citations": {cited}}}'
        for i, (jid, cited) in enumerate(
            [('J\\"1', 10), ('J\\"1', 5), ("J2", 8), ("J2", 3), ("J3", 6), ("J3", 4)], 1)
    ],
}


def exit_code(case: str) -> int:
    return EXIT_CODES.get(case, 0)


def invocations(tmp_path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """Write the fixture corpora under ``tmp_path`` and return (case name,
    argv) pairs, the subcommand first in each argv."""

    def files(name, corpus):
        base = tmp_path / name
        base.mkdir()
        paths = (base / "j.jsonl", base / "p.jsonl", base / "e.jsonl")
        dump_corpus(corpus, *paths[:2], paths[2] if corpus.edges is not None else None)
        return paths

    two_j, two_p, _ = files("two_papers", corpora.make_two_papers())
    mini_j, mini_p, mini_e = files("mini", corpora.make_quota_mini())
    simpson_j, simpson_p, _ = files("simpson", corpora.make_simpson())
    slices_j, slices_p, _ = files("slices", corpora.make_slices())
    avg_j, avg_p, _ = files("avgpct", corpora.make_avgpct())
    mix_j, mix_p, _ = files("quartile_mix", corpora.make_quartile_mix())

    def rows(name, contents):
        base = tmp_path / name
        base.mkdir()
        for file, lines in contents.items():
            (base / file).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return (base / file for file in contents)

    dirty_j, dirty_p, dirty_e = rows("dirty", DIRTY)
    spelled_j, spelled_p = rows("spellings", SPELLINGS)
    quoted_j, quoted_p = rows("quoted", QUOTED)

    def config(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    fixed = config(
        "gen.yaml",
        "seed: 3\nnum_categories: 8\njournals_per_category: 20\npapers_per_journal: 1\n",
    )
    # Categories of fewer than 4 journals have an empty Q1.
    uniform = config(
        "uniform.yaml",
        "seed: 5\nnum_categories: 12\njournals_per_category: {uniform: [1, 9]}\n"
        "papers_per_journal: 1\n",
    )
    yule = config(
        "yule.yaml",
        "seed: 7\nnum_categories: 3\njournals_per_category: {uniform: [2, 4]}\n"
        "papers_per_journal: {uniform: [1, 4]}\nmulti_attribution_prob: 0.6\n"
        "citation_model: {kind: yule, rho: 2.0}\nyears: [2020, 2021]\n"
        "doc_type_mix: {article: 0.7, review: 0.3}\n",
    )
    subunit_ids = config("subunit.ids", "RC1\n")
    reference_ids = config("reference.ids", "RC1\nRC2\n\nRM\n")

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
        ("simulate", "--config", fixed, "--experiment", "surplus", "--trials", "4"),
    ]
    named = [(argv[0], argv) for argv in argvs] + [
        ("validate-dirty",
         ("validate", "--journals", dirty_j, "--papers", dirty_p, "--edges", dirty_e)),
        ("validate-spellings", ("validate", "--journals", spelled_j, "--papers", spelled_p)),
        # Python 3.11 on reads "1_0" as 10; the flag refuses it on every version.
        ("hcp-top-percent-spelling",
         ("hcp", "--journals", mini_j, "--papers", mini_p, "--schema", "f",
          "--top-percent", "1_0")),
        # The handler raises a ComputationError: exit 3, nothing on stdout.
        ("percentile-unknown-journal",
         ("percentile", "--journals", two_j, "--papers", two_p,
          "--schema", SCHEMA, "--journal", "NOPE", "--year", "2020")),
        ("rank-csv",
         ("rank", "--journals", two_j, "--papers", two_p,
          "--schema", SCHEMA, "--category", "A", "--year", "2020", "--format", "csv")),
        # 68 journals tie at rank 19 of 86, across the Q1 cut at 21.
        ("rank-ties",
         ("rank", "--journals", avg_j, "--papers", avg_p,
          "--schema", "s", "--category", "C", "--year", "2021")),
        ("quartiles-csv",
         ("quartiles", "--journals", avg_j, "--papers", avg_p,
          "--schema", "s", "--year", "2021", "--format", "csv")),
        ("baselines-fractional-csv",
         ("baselines", "--journals", two_j, "--papers", two_p, "--schema", SCHEMA,
          "--counting", "fractional", "--format", "csv")),
        ("baselines-split",
         ("baselines", "--journals", two_j, "--papers", two_p, "--schema", SCHEMA,
          "--split-citations")),
        ("hcp-report-json",
         ("hcp-report", "--journals", slices_j, "--papers", slices_p,
          "--schema", "f", "--top-percent", "40", "--method", "fractional-ws")),
        ("hcp-fractional-ws",
         ("hcp", "--journals", slices_j, "--papers", slices_p,
          "--schema", "f", "--top-percent", "40", "--method", "fractional-ws")),
        ("hcp-quota-chain",
         ("hcp", "--journals", mini_j, "--papers", mini_p, "--edges", mini_e,
          "--schema", "f", "--top-percent", "40", "--method", "quota",
          "--tiebreak", "citing-excellence,trajectory,chronology")),
        # Both methods tie, so the chain is exhausted and paper ids decide.
        ("hcp-quota-exhausted",
         ("hcp", "--journals", mini_j, "--papers", mini_p, "--edges", mini_e,
          "--schema", "f", "--top-percent", "40", "--method", "quota",
          "--tiebreak", "citing-excellence,trajectory")),
        ("hcp-inclusive-slice",
         ("hcp", "--journals", slices_j, "--papers", slices_p,
          "--schema", "f", "--top-percent", "25", "--years", "2019",
          "--doc-types", "article,review", "--no-esi-low-threshold")),
        ("simulate-surplus-uniform",
         ("simulate", "--config", uniform, "--experiment", "surplus", "--trials", "6",
          "--out-dir", tmp_path / "surplus-uniform")),
        ("simulate-cnci-yule",
         ("simulate", "--config", yule, "--experiment", "cnci", "--trials", "5",
          "--out-dir", tmp_path / "cnci-yule")),
        ("simulate-corpus-yule",
         ("simulate", "--config", yule, "--experiment", "corpus",
          "--out-dir", tmp_path / "corpus-yule")),
        ("relative-cnci-ids",
         ("relative-cnci", "--journals", simpson_j, "--papers", simpson_p,
          "--schema", SCHEMA, "--subunit-ids", subunit_ids,
          "--reference-ids", reference_ids)),
        # No reference flag: the reference is the --years/--doc-types slice.
        ("relative-cnci-slice",
         ("relative-cnci", "--journals", simpson_j, "--papers", simpson_p,
          "--schema", SCHEMA, "--subunit-entity", "team-s",
          "--years", "2020", "--doc-types", "article")),
        # The 68-journal block at rank 19 of category C spans the Q1 cut.
        ("quartiles-ties",
         ("quartiles", "--journals", avg_j, "--papers", avg_p,
          "--schema", "s", "--year", "2021")),
        # A two-category journal, an excluded journal, a skipped category, and a
        # one-journal category counted without a size gate and skipped under one.
        ("quartiles-best",
         ("quartiles", "--journals", mix_j, "--papers", mix_p,
          "--schema", SCHEMA, "--year", "2021", "--mode", "database-best")),
        ("quartiles-papers-best",
         ("quartiles", "--journals", mix_j, "--papers", mix_p,
          "--schema", SCHEMA, "--year", "2021", "--level", "papers",
          "--mode", "database-best", "--min-category-size", "2")),
        ("quartiles-papers-csv",
         ("quartiles", "--journals", mix_j, "--papers", mix_p,
          "--schema", SCHEMA, "--year", "2021", "--level", "papers",
          "--min-category-size", "2", "--format", "csv")),
        # A field name with a comma and a journal id with a quote are quoted.
        ("hcp-report-quoted-csv",
         ("hcp-report", "--journals", quoted_j, "--papers", quoted_p, "--schema", "f",
          "--top-percent", "50", "--format", "csv")),
        ("rank-quoted-csv",
         ("rank", "--journals", quoted_j, "--papers", quoted_p, "--schema", "f",
          "--category", ENGINEERING, "--year", "2020", "--format", "csv")),
        # Two fields, tie-heavy counts and uncited papers: many papers share a value.
        ("cnci-per-paper",
         ("cnci", "--journals", slices_j, "--papers", slices_p, "--schema", "f",
          "--per-paper")),
        ("cnci-per-paper-fractional",
         ("cnci", "--journals", slices_j, "--papers", slices_p, "--schema", "f",
          "--per-paper", "--counting", "fractional")),
        # Every cell is uncited: an uncited paper's CNCI is 0.
        ("cnci-per-paper-uncited",
         ("cnci", "--journals", avg_j, "--papers", avg_p, "--schema", "s", "--per-paper")),
    ]
    return [(name, tuple(str(a) for a in argv)) for name, argv in named]


def golden_path(case: str, output: str = "out") -> Path:
    """The golden file of a case's stdout, or of one file its --out-dir holds."""
    return GOLDEN_DIR / f"{case}.{output}"


def outputs(argv) -> dict[str, bytes]:
    """Stdout aside, what the invocation wrote: its --out-dir files by name."""
    if "--out-dir" not in argv:
        return {}
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def run_case(argv) -> tuple[int, dict[str, bytes]]:
    """Run one case in this process: its exit code and its outputs, stdout as
    ``out`` and each --out-dir file by name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, {"out": out.getvalue().encode("utf-8"), **outputs(argv)}


def differences(tmp_path: Path) -> list[str]:
    """Run every case in this process against ``tests/golden/``: each wrong exit
    code, each output whose bytes differ or that has no golden file, and each
    golden file that no case writes."""
    pinned = {p.name for p in GOLDEN_DIR.iterdir()}
    found, written = [], set()
    for name, argv in invocations(tmp_path):
        code, files = run_case(argv)
        if code != exit_code(name):
            found.append(f"{name} exited {code}")
        for output, data in files.items():
            path = golden_path(name, output)
            written.add(path.name)
            if path.name not in pinned or data != path.read_bytes():
                found.append(path.name)
    return found + sorted(f"{name} (written by no case)" for name in pinned - written)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in invocations(Path(tmp)):
            code, files = run_case(argv)
            if code != exit_code(name):
                sys.exit(f"{name} exited {code}")
            for output, data in files.items():
                golden_path(name, output).write_bytes(data)
                print(f"wrote {golden_path(name, output)}")


if __name__ == "__main__":
    _regenerate()
