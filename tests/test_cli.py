import argparse
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import corpora
from biblio import (AuthorCredit, Corpus, GenConfig, Journal, Paper, SchemaInfo, excellence,
                    monte_carlo_global_cnci, monte_carlo_surplus)
from biblio import normalization
from biblio.cli import build_parser, main
from biblio.io import json_line


@pytest.fixture(autouse=True)
def no_load_before_load(request):
    """A test named ``*_before_load`` runs no argv that makes ``main`` load a corpus."""
    before_load = request.node.originalname.endswith("_before_load")
    loads = request.getfixturevalue("loads") if before_load else []
    yield
    assert loads == []


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def payload(out: str) -> dict:
    assert out.endswith("\n")
    obj = json.loads(out)
    # Byte stability contract: sorted keys, compact separators, one newline.
    recoded = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert out == recoded + "\n"
    return obj


# -- parser-level behaviour --------------------------------------------------------


def test_no_subcommand_is_a_usage_error(run):
    code, _, _ = run()
    assert code == 2


def test_unknown_subcommand_is_a_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == 2


def test_top_level_help_exits_zero(run):
    code, out, _ = run("--help")
    assert code == 0
    assert "SUBCOMMAND" in out


def test_every_flag_shows_up_in_its_subcommand_help(run):
    parser = build_parser()
    subaction = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subaction.choices) == {
        "validate", "rank", "percentile", "quartiles", "baselines", "cnci",
        "relative-cnci", "hcp", "hcp-report", "entity-share", "simulate",
    }
    for name, sub in subaction.choices.items():
        code, out, _ = run(name, "--help")
        assert code == 0
        for action in sub._actions:
            for option in action.option_strings:
                assert option in out, f"{name} help is missing {option}"


# Each option of each subcommand: (default, choices, required, takes a value).
_CORPUS = {
    "--journals": (None, None, True, True),
    "--papers": (None, None, True, True),
    "--edges": (None, None, False, True),
    "--strict": (False, None, False, False),
    "--out": (None, None, False, True),
}
_SCHEMA = {"--schema": (None, None, True, True)}
_JSON = {"--format": ("json", ["json"], False, True)}
_JSON_CSV = {"--format": ("json", ["json", "csv"], False, True)}
_COUNTING = {"--counting": ("whole", ["whole", "fractional"], False, True)}
_SLICE = {"--years": (None, None, False, True), "--doc-types": (None, None, False, True)}
_HCP = {
    "--top-percent": ("1", None, False, True),
    "--method": ("inclusive", ["inclusive", "exclusive", "fractional-ws", "quota"],
                 False, True),
    "--tiebreak": ([], None, False, True),
    "--no-esi-low-threshold": (False, None, False, False),
}
OPTIONS = {
    "validate": _CORPUS,
    "rank": {**_CORPUS, **_SCHEMA, **_JSON_CSV,
             "--category": (None, None, True, True), "--year": (None, None, True, True)},
    "percentile": {**_CORPUS, **_SCHEMA, **_JSON,
                   "--journal": (None, None, True, True), "--year": (None, None, True, True)},
    "quartiles": {
        **_CORPUS, **_SCHEMA, **_JSON_CSV,
        "--year": (None, None, True, True),
        "--level": ("journals", ["journals", "papers"], False, True),
        "--mode": ("per-category", ["per-category", "database-best"], False, True),
        "--min-category-size": (0, None, False, True),
    },
    "baselines": {**_CORPUS, **_SCHEMA, **_JSON_CSV, **_COUNTING, **_SLICE,
                  "--split-citations": (False, None, False, False)},
    "cnci": {**_CORPUS, **_SCHEMA, **_JSON, **_COUNTING, **_SLICE,
             "--aggregation": ("aor", ["aor", "roa"], False, True),
             "--split-citations": (False, None, False, False),
             "--per-paper": (False, None, False, False)},
    "relative-cnci": {**_CORPUS, **_SCHEMA, **_JSON, **_COUNTING, **_SLICE, **{
        flag: (None, None, False, True) for flag in (
            "--subunit-entity", "--subunit-ids", "--reference-entity", "--reference-ids")}},
    "hcp": {**_CORPUS, **_SCHEMA, **_JSON, **_HCP, **_SLICE},
    "hcp-report": {**_CORPUS, **_SCHEMA, **_JSON_CSV, **_HCP, **_SLICE},
    "entity-share": {**_CORPUS, **_SCHEMA, **_JSON, **_COUNTING, **_HCP, **_SLICE,
                     "--entity": (None, None, True, True)},
    "simulate": {
        "--config": (None, None, True, True),
        "--experiment": (None, ["surplus", "cnci", "corpus"], True, True),
        "--trials": (1, None, False, True),
        "--out-dir": (None, None, False, True),
    },
}


def test_each_subcommand_keeps_its_options_defaults_and_choices():
    subaction = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    found = {
        name: {
            option: (action.default, action.choices, action.required, action.nargs != 0)
            for action in sub._actions if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        for name, sub in subaction.choices.items()
    }
    assert found == OPTIONS


# -- validate ----------------------------------------------------------------------


def test_validate_clean_corpus(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, out, err = run("validate", "--journals", journals, "--papers", papers)
    assert code == 0 and err == ""
    body = payload(out)
    assert body["ok"] is True
    assert body["validation"]["ok"] is True
    assert body["load"]["dropped"] == {}


def test_validate_reports_violations(run, corpus_files):
    bad = Corpus(
        [SchemaInfo("s")],
        [Journal("J1", {"s": ("A",)}, {2020: Fraction(-1)})],
        [Paper("p1", "J1", 2020, "article")],
        citation_counts={"p1": 0},
    )
    journals, papers, _ = corpus_files(bad)
    code, out, err = run("validate", "--journals", journals, "--papers", papers)
    assert code == 2
    assert "validation findings" in err
    body = payload(out)
    assert body["ok"] is False
    assert body["validation"]["ok"] is False


def test_validate_flags_an_unclean_lenient_load(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    first = papers.read_text(encoding="utf-8").splitlines()[0]
    papers.write_text(papers.read_text(encoding="utf-8") + first + "\n", encoding="utf-8")
    code, out, _ = run("validate", "--journals", journals, "--papers", papers)
    assert code == 2
    body = payload(out)
    assert body["ok"] is False
    assert body["validation"]["ok"] is True  # the duplicate was dropped, not kept
    assert body["load"]["dropped"] == {"duplicate_paper_id": 1}


def test_strict_journal_row_errors_name_the_row_once(run, tmp_path):
    journals = tmp_path / "j.jsonl"
    journals.write_text(
        '{"_schemas": {"f": {}}}\n{"id": "J1", "categories": "{not json"}\n',
        encoding="utf-8",
    )
    papers = tmp_path / "p.jsonl"
    papers.write_text("", encoding="utf-8")
    code, out, err = run("validate", "--journals", journals, "--papers", papers, "--strict")
    assert (code, out) == (2, "")
    assert err == (
        "biblio: load error: j.jsonl:2: field 'categories' is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )
    journals.write_text('{"_schemas": {"f": true}}\n', encoding="utf-8")
    code, _, err = run("validate", "--journals", journals, "--papers", papers, "--strict")
    assert code == 2
    assert err == (
        "biblio: load error: j.jsonl:1: schema registry is not an object of objects: "
        "{'f': True}\n"
    )


def test_a_csv_row_error_names_the_line_its_record_ends_on(run, tmp_path):
    """A quoted cell holding a line break does not shift the line named after it."""
    journals = tmp_path / "j.jsonl"
    journals.write_text('{"_schemas": {"s": {}}}\n{"id": "J1", "categories": {"s": ["A"]}}\n',
                        encoding="utf-8")
    papers = tmp_path / "p.csv"
    papers.write_text('id,journal,year,doc_type\n"P\n1",J1,2020,article\nP2,J1,20x0,article\n',
                      encoding="utf-8", newline="")
    note = "p.csv:4: field 'year' is not an integer: '20x0'"
    code, out, _ = run("validate", "--journals", journals, "--papers", papers)
    assert (code, payload(out)["load"]["notes"]) == (2, [note])
    code, out, err = run("validate", "--journals", journals, "--papers", papers, "--strict")
    assert (code, out, err) == (2, "", f"biblio: load error: {note}\n")


def test_strict_load_failure_exits_two(run, corpus_files, hundred, caplog):
    journals, papers, _ = corpus_files(hundred)
    ghost = '{"id":"zzz","journal":"ghost","year":2019,"doc_type":"article","citations":0}\n'
    papers.write_text(papers.read_text(encoding="utf-8") + ghost, encoding="utf-8")
    code, out, err = run(
        "cnci", "--journals", journals, "--papers", papers, "--schema", "f", "--strict"
    )
    assert code == 2 and out == ""
    assert err.startswith("biblio: load error:")
    assert f"{papers.name}:101" in err
    # The same defect is merely dropped in the default lenient mode, and said so.
    code, out, _ = run("cnci", "--journals", journals, "--papers", papers, "--schema", "f")
    assert code == 0
    assert caplog.messages == [
        "load report: dropped unresolved_journal=1; collapsed_duplicate_edges=0"
    ]


def test_a_lenient_load_names_what_it_dropped_on_stderr(run, corpus_files, two_papers_edges):
    journals, papers, edges = corpus_files(two_papers_edges)
    argv = ["hcp", "--journals", journals, "--papers", papers, "--edges", edges,
            "--schema", "subjects", "--top-percent", "50", "--no-esi-low-threshold"]
    _, clean_out, _ = run(*argv)
    edges.write_text(edges.read_text(encoding="utf-8")
                     + '{"cited":"pab","citing":"x1","date":"2020-13-45"}\n'
                     + '{"cited":"pa","citing":"x1","date":"2021-03-01"}\n'
                     + '{"cited":"x2","citing":"x2"}\n', encoding="utf-8")
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-m", "biblio.cli", *map(str, argv)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (0, clean_out)
    assert child.stderr == ("biblio: load report: dropped malformed_edge=1, "
                            "self_citation_loop=1; collapsed_duplicate_edges=1\n")


@pytest.mark.parametrize("command", [
    ["rank", "--category", "A", "--year", "2020"],
    ["percentile", "--journal", "JA", "--year", "2020"],
    ["quartiles", "--year", "2020"],
    ["baselines"],
    ["cnci"],
    ["relative-cnci", "--subunit-entity", "team-s"],
    ["hcp"],
    ["hcp-report"],
    ["entity-share", "--entity", "team-s"],
])
def test_an_undeclared_schema_is_a_usage_error(run, corpus_files, two_papers, command):
    journals, papers, _ = corpus_files(two_papers)
    code, out, err = run(*command, "--journals", journals, "--papers", papers, "--schema", "zz")
    assert (code, out) == (2, "")
    assert err == (
        "biblio: error: schema 'zz' is not declared in the corpus (declared: 'subjects')\n"
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_found(run, corpus_files, two_papers, monkeypatch, enabled):
    journals, papers, _ = corpus_files(two_papers)
    events, freeze, unfreeze = [], gc.freeze, gc.unfreeze
    monkeypatch.setattr(gc, "freeze", lambda: (freeze(), events.append("freeze")))
    monkeypatch.setattr(gc, "unfreeze", lambda: (unfreeze(), events.append("unfreeze")))
    (gc.enable if enabled else gc.disable)()
    try:
        for schema, code in ((corpora.SCHEMA, 0), ("zz", 2)):
            events.clear()
            assert run("cnci", "--journals", journals, "--papers", papers,
                       "--schema", schema)[0] == code
            assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
            # only load_corpus's ageing: a freeze it undoes at once
            assert events == ["freeze", "unfreeze"]
    finally:
        gc.enable()


def test_missing_input_file_exits_two(run, corpus_files, hundred, tmp_path):
    journals, _, _ = corpus_files(hundred)
    missing = tmp_path / "nonexistent.jsonl"
    code, out, err = run(
        "cnci", "--journals", journals, "--papers", missing, "--schema", "f"
    )
    assert code == 2 and out == ""
    assert err.startswith("biblio: load error: cannot open")
    assert str(missing) in err
    assert "Traceback" not in err


# -- rank / percentile / quartiles ---------------------------------------------------


def test_rank_csv(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    code, out, err = run(
        "rank", "--journals", journals, "--papers", papers,
        "--schema", "s", "--category", "C", "--year", "2021", "--format", "csv",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "journal,metric,rank,quartile,percentile"
    assert len(lines) == 87
    assert "jstar,10,18,Q1,79.7" in lines


def test_rank_json(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    code, out, _ = run(
        "rank", "--journals", journals, "--papers", papers,
        "--schema", "s", "--category", "C", "--year", "2021",
    )
    assert code == 0
    body = payload(out)
    assert body["n"] == 86 and body["excluded"] == []
    star = next(e for e in body["entries"] if e["journal"] == "jstar")
    assert star["rank"] == 18 and star["quartile"] == "Q1"
    assert star["percentile"] == {"decimal": "79.7", "rational": "3425/43"}
    # The 68-way tie at rank 19 spans every cut and stays in its min-rank quartile.
    assert body["ties_at_cuts"] == [{"label": "Q1", "rank": 19, "size": 68}]


def test_rank_unknown_category_exits_three(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    code, out, err = run(
        "rank", "--journals", journals, "--papers", papers,
        "--schema", "s", "--category", "nope", "--year", "2021",
    )
    assert code == 3 and out == ""
    assert err.startswith("biblio: computation error:")


def test_percentile_average(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    code, out, _ = run(
        "percentile", "--journals", journals, "--papers", papers,
        "--schema", "s", "--journal", "jstar", "--year", "2021",
    )
    assert code == 0
    body = payload(out)
    assert body["average"] == {"decimal": "72.4", "rational": "6225/86"}
    assert body["per_category"]["A"] == {
        "rank": 1, "n": 4, "percentile": {"decimal": "87.5", "rational": "175/2"},
    }
    assert body["per_category"]["B"]["percentile"]["rational"] == "50"
    assert body["per_category"]["C"]["rank"] == 18


def test_percentile_ranks_each_category_once(run, corpus_files, avgpct, monkeypatch):
    from biblio import ranking

    ranked, bodies = [], []
    rank_category, rank = ranking.rank_category, ranking._rank

    def counting(corpus, schema, category, year):
        ranked.append(category)
        return rank_category(corpus, schema, category, year)

    def counting_body(schema, category, year, members):
        bodies.append(category)
        return rank(schema, category, year, members)

    monkeypatch.setattr(ranking, "rank_category", counting)
    monkeypatch.setattr(ranking, "_rank", counting_body)
    journals, papers, _ = corpus_files(avgpct)
    code, _, _ = run(
        "percentile", "--journals", journals, "--papers", papers,
        "--schema", "s", "--journal", "jstar", "--year", "2021",
    )
    assert code == 0
    assert ranked == bodies == ["A", "B", "C"]


def test_percentile_of_an_uncategorized_journal_exits_three(run, corpus_files,
                                                            two_papers_edges):
    journals, papers, _ = corpus_files(two_papers_edges)
    code, out, err = run(
        "percentile", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--journal", "JX", "--year", "2020",
    )
    assert (code, out) == (3, "")
    assert err == "biblio: computation error: journal 'JX' has no categories under 'subjects'\n"


def test_quartiles_csv(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    code, out, _ = run(
        "quartiles", "--journals", journals, "--papers", papers,
        "--schema", "s", "--year", "2021", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quartile,count,share"
    # C's 68-way tie block at rank 19 sits wholly in Q1, so Q1 dominates.
    assert lines[1] == "Q1,87,0.9560"
    assert lines[4] == "Q4,2,0.0220"


# -- baselines / cnci / relative-cnci ------------------------------------------------


def test_baselines_csv(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, out, _ = run(
        "baselines", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema,field,year,doc_type,counting,expected,weight"
    assert "subjects,A,2020,article,whole,3/2,2" in lines
    assert "subjects,B,2020,article,whole,2,1" in lines


def test_baselines_year_filter(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, out, _ = run(
        "baselines", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--years", "1999",
    )
    assert code == 0
    assert payload(out)["cells"] == []


def test_baselines_split_needs_whole_counting_before_load(run):
    code, _, err = run(
        "baselines", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "subjects", "--counting", "fractional", "--split-citations",
    )
    assert code == 2
    assert err == (
        "biblio: error: split_citations presumes whole paper counting; "
        "fractional counting already splits\n"
    )


def test_cnci_whole_aor(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, out, _ = run(
        "cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--per-paper",
    )
    assert code == 0
    body = payload(out)
    assert body["papers"] == 2
    assert body["value"] == {"decimal": "0.9167", "rational": "11/12"}
    assert body["per_paper"]["pa"]["rational"] == "2/3"
    assert body["per_paper"]["pab"]["rational"] == "7/6"


def test_cnci_per_paper_sums_the_corpus_once(run, corpus_files, hundred, monkeypatch):
    journals, papers, _ = corpus_files(hundred)
    passes = []
    fold = normalization._fold
    monkeypatch.setattr(normalization, "_fold",
                        lambda *args: passes.append(1) or fold(*args))
    code, out, _ = run(
        "cnci", "--journals", journals, "--papers", papers, "--schema", "f", "--per-paper",
    )
    assert code == 0
    assert len(payload(out)["per_paper"]) == 100
    assert len(passes) == 1


@pytest.mark.parametrize("corpus, argv", [
    (corpora.make_slices, ["cnci", "--schema", "f"]),
    (corpora.make_slices, ["cnci", "--schema", "f", "--per-paper"]),
    (corpora.make_simpson, ["relative-cnci", "--schema", corpora.SCHEMA,
                            "--subunit-entity", "team-s"]),
], ids=["cnci", "cnci-per-paper", "relative-cnci"])
def test_cnci_subcommands_list_their_slice_without_the_cell_index(corpus, argv):
    corpus = corpus()
    args = build_parser().parse_args([*argv, "--journals", "j", "--papers", "p"])
    args.check(args)
    args.handler(args, corpus)
    assert ("cells", args.schema) not in corpus._tables


def test_cnci_fractional_pins_to_one(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, out, _ = run(
        "cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--counting", "fractional",
    )
    assert code == 0
    assert payload(out)["value"]["rational"] == "1"


def test_cnci_flag_combinations_checked_before_load(run):
    code, _, err = run(
        "cnci", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "subjects", "--split-citations",
    )
    assert code == 2
    assert err == (
        "biblio: error: split_citations applies to ratio-of-averages aggregation only\n"
    )
    code, _, err = run(
        "cnci", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "subjects", "--split-citations", "--aggregation", "roa",
        "--counting", "fractional",
    )
    assert code == 2
    assert err == (
        "biblio: error: split_citations presumes whole paper counting; "
        "fractional counting already splits\n"
    )


def test_cnci_empty_slice_exits_three(run, corpus_files, two_papers):
    journals, papers, _ = corpus_files(two_papers)
    code, _, err = run(
        "cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects", "--years", "1999",
    )
    assert code == 3
    assert err.startswith("biblio: computation error:")


def test_relative_cnci_reversal(run, corpus_files, simpson):
    journals, papers, _ = corpus_files(simpson)
    code, out, _ = run(
        "relative-cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects",
        "--subunit-entity", "team-s", "--reference-entity", "unit-r",
    )
    assert code == 0
    body = payload(out)
    assert body["subunit"] == {"papers": 1, "cnci": {"decimal": "0.6154", "rational": "8/13"}}
    assert body["reference"]["papers"] == 3
    assert body["cnci_ratio"]["rational"] == "76/77"
    assert body["relative_cnci"]["rational"] == "4/3"


def test_relative_cnci_requires_a_subunit_before_load(run):
    code, _, err = run(
        "relative-cnci", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "subjects",
    )
    assert code == 2
    assert err == "biblio: error: relative-cnci needs --subunit-entity or --subunit-ids\n"


@pytest.mark.parametrize("flags, message", [
    (["--subunit-entity", "team-s", "--subunit-ids", "absent.txt"],
     "relative-cnci takes --subunit-entity or --subunit-ids, not both"),
    (["--subunit-entity", "team-s", "--reference-entity", "unit-r",
      "--reference-ids", "absent.txt"],
     "relative-cnci takes --reference-entity or --reference-ids, not both"),
    (["--subunit-entity", "team-s", "--reference-entity", "unit-r", "--years", "1999"],
     "--years and --doc-types apply only without --reference-entity or --reference-ids"),
    (["--subunit-ids", "absent.txt", "--reference-ids", "absent.txt",
      "--doc-types", "article"],
     "--years and --doc-types apply only without --reference-entity or --reference-ids"),
])
def test_relative_cnci_flags_it_would_ignore_are_usage_errors_before_load(run, flags, message):
    code, out, err = run(
        "relative-cnci", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "subjects", *flags,
    )
    assert (code, out) == (2, "")
    assert err == f"biblio: error: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--subunit-entity", ""],
    ["--subunit-entity", "team-s", "--reference-entity", ""],
])
def test_an_empty_entity_selects_no_papers(run, corpus_files, simpson, flags):
    journals, papers, _ = corpus_files(simpson)
    code, out, err = run("relative-cnci", "--journals", journals, "--papers", papers,
                         "--schema", "subjects", *flags)
    assert (code, out) == (3, "")
    assert err == "biblio: computation error: cannot average CNCI over an empty paper set\n"


def test_relative_cnci_id_files(run, corpus_files, simpson, tmp_path):
    journals, papers, _ = corpus_files(simpson)
    ids = tmp_path / "subunit.txt"
    for text in ("RC1\n", "\ufeffRC1\n"):  # a leading byte-order mark is ignored
        ids.write_text(text, encoding="utf-8")
        code, out, _ = run(
            "relative-cnci", "--journals", journals, "--papers", papers,
            "--schema", "subjects",
            "--subunit-ids", ids, "--reference-entity", "unit-r",
        )
        assert code == 0
        assert payload(out)["relative_cnci"]["rational"] == "4/3"

    ids.write_text("RC1\nnope\n", encoding="utf-8")
    code, _, err = run(
        "relative-cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects",
        "--subunit-ids", ids, "--reference-entity", "unit-r",
    )
    assert code == 2
    assert err == "biblio: load error: --subunit-ids subunit.txt:2: unknown paper id 'nope'\n"

    missing = tmp_path / "absent.txt"
    code, out, err = run(
        "relative-cnci", "--journals", journals, "--papers", papers,
        "--schema", "subjects",
        "--subunit-ids", missing, "--reference-entity", "unit-r",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"biblio: load error: cannot read id list {str(missing)!r}: ")


@pytest.mark.parametrize("flag", ["--subunit-ids", "--reference-ids"])
def test_an_id_listed_twice_is_a_load_error(run, corpus_files, simpson, tmp_path, flag):
    journals, papers, _ = corpus_files(simpson)
    ids = tmp_path / "ids.txt"
    ids.write_text("RC1\n\nRM\n RC1\n", encoding="utf-8")
    other = "--reference-entity" if flag == "--subunit-ids" else "--subunit-entity"
    code, out, err = run("relative-cnci", "--journals", journals, "--papers", papers,
                         "--schema", "subjects", flag, ids, other, "unit-r")
    assert (code, out) == (2, "")
    assert err == f"biblio: load error: {flag} ids.txt:4: duplicate paper id 'RC1'\n"


@pytest.mark.parametrize("flag", ["--subunit-ids", "--reference-ids", "--config"])
def test_an_input_file_that_is_not_utf8_is_located(run, corpus_files, simpson, tmp_path, flag):
    journals, papers, _ = corpus_files(simpson)
    path = tmp_path / "input.txt"
    path.write_bytes(b"RC1\nR\xe9M\n")
    if flag == "--config":
        argv = ["simulate", "--config", path, "--experiment", "surplus"]
        prefix = "error: --config"
    else:
        other = "--reference-entity" if flag == "--subunit-ids" else "--subunit-entity"
        argv = ["relative-cnci", "--journals", journals, "--papers", papers,
                "--schema", "subjects", flag, path, other, "unit-r"]
        prefix = "load error:"
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err == f"biblio: {prefix} input.txt:2: not valid UTF-8: invalid continuation byte\n"


@pytest.mark.parametrize("flags, named", [
    (["--reference-entity", "R"], "entity 'R'"),
    (["--reference-ids", "ids.txt"], "the ids in ids.txt"),
    (["--years", "2020"], "the corpus slice"),
], ids=["entity", "ids", "slice"])
def test_a_reference_set_with_cnci_0_is_a_computation_error(
        run, corpus_files, tmp_path, flags, named):
    def paper(pid, year, entity):
        return Paper(pid, "J1", year, "article", authors=(AuthorCredit(f"a-{pid}", (entity,)),))

    corpus = Corpus([SchemaInfo("s")], [Journal("J1", {"s": ("A",)}, {})],
                    [paper("P1", 2021, "X"), paper("P2", 2020, "R"), paper("P3", 2020, "R")],
                    citation_counts={"P1": 5, "P2": 0, "P3": 0})
    journals, papers, _ = corpus_files(corpus)
    (tmp_path / "ids.txt").write_text("P2\nP3\n", encoding="utf-8")
    flags = [tmp_path / flag if flag == "ids.txt" else flag for flag in flags]
    code, out, err = run("relative-cnci", "--journals", journals, "--papers", papers,
                         "--schema", "s", "--subunit-entity", "R", *flags)
    assert (code, out) == (3, "")
    assert err == (f"biblio: computation error: the reference set ({named}) has CNCI 0, "
                   "so the CNCI ratio is undefined\n")


# -- hcp family ----------------------------------------------------------------------


def test_hcp_low_threshold_rule_selects_nothing(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    code, out, _ = run("hcp", "--journals", journals, "--papers", papers, "--schema", "f")
    assert code == 0
    body = payload(out)
    assert body["esi_low_threshold"] is True
    assert body["decisions"] == []
    assert body["total_weight"]["rational"] == "0"
    (cell,) = body["cells"]
    assert (cell["quota"], cell["threshold"], cell["tie_count"]) == (1, 1, 90)


def test_hcp_inclusive_without_low_threshold_rule(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    code, out, _ = run(
        "hcp", "--journals", journals, "--papers", papers, "--schema", "f",
        "--no-esi-low-threshold",
    )
    assert code == 0
    body = payload(out)
    assert len(body["decisions"]) == 90
    assert {d["status"] for d in body["decisions"]} == {"full"}
    assert body["total_weight"]["rational"] == "90"


def test_hcp_fractional_ws_weights(run, corpus_files, ws105):
    journals, papers, _ = corpus_files(ws105)
    code, out, _ = run(
        "hcp", "--journals", journals, "--papers", papers, "--schema", "f",
        "--top-percent", "10", "--method", "fractional-ws",
    )
    assert code == 0
    body = payload(out)
    assert body["total_weight"]["rational"] == "11"
    partial = [d for d in body["decisions"] if d["status"] == "fractional"]
    assert len(partial) == 10
    assert {d["weight"] for d in partial} == {"3/5"}


def test_hcp_quota_with_chronology(run, corpus_files, quota_mini):
    journals, papers, edges = corpus_files(quota_mini)
    code, out, _ = run(
        "hcp", "--journals", journals, "--papers", papers, "--edges", edges,
        "--schema", "f", "--top-percent", "30",
        "--method", "quota", "--tiebreak", "chronology",
    )
    assert code == 0
    body = payload(out)
    decided = {d["paper"]: d for d in body["decisions"]}
    assert set(decided) == {"q1", "q2", "t1"}
    assert decided["q1"]["trace"] is None
    (step,) = decided["t1"]["trace"]
    assert step["method"] == "chronology"
    assert step["evidence"] == "online:2011-09-01"
    assert body["total_weight"]["rational"] == "3"


def test_hcp_ranks_and_thresholds_each_cell_once(run, corpus_files, monkeypatch):
    slices = corpora.make_slices()
    journals, papers, _ = corpus_files(slices)
    sorted_cells, thresholds = [], []
    rank_cell, threshold = excellence._rank_cell, excellence._threshold
    monkeypatch.setattr(excellence, "_rank_cell", lambda cell, counts: (
        sorted_cells.append(sorted(p.id for p in cell)) or rank_cell(cell, counts)))
    monkeypatch.setattr(excellence, "_threshold", lambda cell, ranked, share: (
        thresholds.append(cell) or threshold(cell, ranked, share)))
    code, out, _ = run(
        "hcp", "--journals", journals, "--papers", papers, "--schema", "f",
        "--top-percent", "40", "--method", "fractional-ws",
    )
    assert code == 0
    cells = slices.cells("f")
    assert len(payload(out)["cells"]) == len(cells) == 8
    # One ranked index: every cell's counts sorted exactly once ...
    assert sorted_cells == [sorted(p.id for p in ps) for ps in cells.values()]
    # ... and one threshold per cell, shared by the decisions and the output.
    assert thresholds == list(cells)


def test_hcp_quota_requires_a_chain(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    code, _, err = run(
        "hcp", "--journals", journals, "--papers", papers, "--schema", "f",
        "--method", "quota",
    )
    assert code == 2
    assert err == "biblio: error: --method quota requires a --tiebreak chain\n"


def test_tiebreak_rejected_outside_quota(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    code, _, err = run(
        "hcp", "--journals", journals, "--papers", papers, "--schema", "f",
        "--tiebreak", "chronology",
    )
    assert code == 2
    assert err == "biblio: error: --tiebreak applies to --method quota only\n"


@pytest.mark.parametrize("value", ["abc", "0", "1/0", " 5 ", "1_0", "+5", "1e-4301"])
def test_top_percent_checked_before_load(run, value):
    code, _, err = run(
        "hcp", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
        "--schema", "f", "--top-percent", value,
    )
    assert code == 2
    assert err.endswith(
        f"biblio hcp: error: argument --top-percent: must be an exact rational "
        f"in (0, 100], got {value!r}\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["rank", "--category", "A", "--year", "\u0662\u0660\u0662\u0660"],
     "argument --year: must be an integer, got '\u0662\u0660\u0662\u0660'"),
    (["percentile", "--journal", "J", "--year", " 2020"],
     "argument --year: must be an integer, got ' 2020'"),
    (["hcp", "--years", "2_020, +2021"], "argument --years: must be an integer, got '2_020'"),
    (["cnci", "--years", "2020, +2021"], "argument --years: must be an integer, got '+2021'"),
    (["quartiles", "--year", "2020", "--min-category-size", "-7"],
     "argument --min-category-size: must be an integer >= 0, got '-7'"),
    (["quartiles", "--year", "2020", "--min-category-size", "1e3"],
     "argument --min-category-size: must be an integer >= 0, got '1e3'"),
])
def test_integer_flags_take_the_loader_spelling_before_load(run, argv, message):
    code, out, err = run(argv[0], "--journals", "missing.jsonl", "--papers", "missing.jsonl",
                         "--schema", "f", *argv[1:])
    assert (code, out) == (2, "")
    assert err.endswith(f"biblio {argv[0]}: error: {message}\n")


def list_flags() -> list[tuple[str, str]]:
    """Each (subcommand, flag) whose value is a comma-separated list."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, flag) for name, p in sub.choices.items() for action in p._actions
            for flag in action.option_strings if flag in ("--years", "--doc-types", "--tiebreak")]


@pytest.mark.parametrize("value", ["", ",", " , "])
@pytest.mark.parametrize("subcommand, flag", list_flags())
def test_a_list_flag_that_names_nothing_is_a_usage_error_before_load(run, subcommand, flag, value):
    required = ["--entity", "o"] if subcommand == "entity-share" else []
    code, out, err = run(subcommand, "--journals", "missing.jsonl", "--papers", "missing.jsonl",
                         "--schema", "f", *required, flag, value)
    assert (code, out) == (2, "")
    assert err.endswith(f"biblio {subcommand}: error: argument {flag}: "
                        f"must name at least one item, got {value!r}\n")


def test_integer_flags_read_what_they_accept():
    parse = build_parser().parse_args
    base = ["--journals", "j", "--papers", "p", "--schema", "f"]
    args = parse(["quartiles", *base, "--year", "-0020", "--min-category-size", "0"])
    assert (args.year, args.min_category_size) == (-20, 0)
    args = parse(["quartiles", *base, "--year", "2020", "--min-category-size", "7"])
    assert args.min_category_size == 7
    assert parse(["hcp", *base, "--years", "2020, 2021,,2022"]).years == [2020, 2021, 2022]
    args = parse(["simulate", "--config", "c", "--experiment", "cnci", "--trials", "12"])
    assert args.trials == 12


@pytest.mark.parametrize("command", [["hcp"], ["hcp-report"], ["entity-share", "--entity", "o"]])
def test_hcp_flag_combinations_checked_before_load(run, command):
    base = [*command, "--journals", "missing.jsonl", "--papers", "missing.jsonl", "--schema", "f"]
    code, _, err = run(*base, "--method", "quota")
    assert code == 2
    assert err == "biblio: error: --method quota requires a --tiebreak chain\n"
    code, _, err = run(*base, "--tiebreak", "chronology")
    assert code == 2
    assert err == "biblio: error: --tiebreak applies to --method quota only\n"


@pytest.mark.parametrize("command", [["hcp"], ["hcp-report"], ["entity-share", "--entity", "o"]])
def test_unknown_tiebreak_is_a_usage_error_before_load(run, command):
    code, out, err = run(
        *command, "--journals", "missing.jsonl", "--papers", "missing.jsonl", "--schema", "f",
        "--method", "quota", "--tiebreak", "chronology,citing-foo",
    )
    assert code == 2 and out == ""
    assert err.endswith(
        f"biblio {command[0]}: error: argument --tiebreak: unknown tie-break method "
        "'citing-foo' (choose from chronology, trajectory, citing-excellence)\n"
    )


@pytest.mark.parametrize("chain, name", [("chronology,chronology", "chronology"),
                                         ("citing-excellence,citing_excellence",
                                          "citing_excellence")])
def test_a_tiebreak_that_repeats_a_method_is_a_usage_error_before_load(run, chain, name):
    code, out, err = run("hcp", "--journals", "missing.jsonl", "--papers", "missing.jsonl",
                         "--schema", "f", "--method", "quota", "--tiebreak", chain)
    assert (code, out) == (2, "")
    assert err.endswith("biblio hcp: error: argument --tiebreak: the tie-break chain names "
                        f"the method {name!r} twice\n")


def test_tiebreak_help_names_the_methods_of_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.help for p in sub.choices.values() for action in p._actions
             if "--tiebreak" in action.option_strings}
    methods = ", ".join(m.replace("_", "-") for m in excellence._TIEBREAKS)
    assert helps == {f"comma-separated chain: {methods}"}


def test_hcp_report_csv_both_esi_modes(run, corpus_files, hundred):
    journals, papers, _ = corpus_files(hundred)
    base = ["hcp-report", "--journals", journals, "--papers", papers,
            "--schema", "f", "--format", "csv"]
    code, out, _ = run(*base, "--no-esi-low-threshold")
    assert code == 0
    assert out.splitlines() == ["field,total,expected,actual,surplus,real_pct",
                                "fict,100,1,90,89,90.000"]
    code, out, _ = run(*base)
    assert code == 0
    assert out.splitlines()[1] == "fict,100,1,0,-1,0.000"


def test_hcp_report_json(run, corpus_files, ws105):
    journals, papers, _ = corpus_files(ws105)
    code, out, _ = run(
        "hcp-report", "--journals", journals, "--papers", papers, "--schema", "f",
        "--top-percent", "10", "--method", "fractional-ws",
    )
    assert code == 0
    (row,) = payload(out)["rows"]
    assert row["field"] == "fict" and row["total"] == 105
    assert row["actual"]["rational"] == "11"
    assert row["real_pct"]["decimal"] == "10.476"


def test_entity_share(run, corpus_files, quota_mini):
    journals, papers, edges = corpus_files(quota_mini)
    code, out, _ = run(
        "entity-share", "--journals", journals, "--papers", papers, "--edges", edges,
        "--schema", "f", "--entity", "org-a", "--top-percent", "30",
        "--method", "quota", "--tiebreak", "chronology",
    )
    assert code == 0
    body = payload(out)
    assert body["hcp_weight"]["rational"] == "3"
    assert body["output_weight"]["rational"] == "8"
    assert body["share"] == {"decimal": "0.3750", "rational": "3/8"}



def test_entity_share_slices_the_decisions_but_not_the_output(run, corpus_files):
    """``--years`` restricts the HCP decisions to the slice, while the output
    weight stays the entity's whole output: E selects one paper in each of two
    years, so the whole share is 2/8 and the 2020 share 1/8, not 1/4."""
    papers = [Paper(f"p{year}-{i}", "J1", year, "article", authors=(AuthorCredit("a", ("E",)),))
              for year in (2020, 2021) for i in range(4)]
    corpus = Corpus([SchemaInfo("s")], [Journal("J1", {"s": ("A",)}, {})], papers,
                    citation_counts={p.id: 10 if p.id.endswith("-0") else 1 for p in papers})
    journals, papers, _ = corpus_files(corpus)
    argv = ["entity-share", "--journals", journals, "--papers", papers, "--schema", "s",
            "--entity", "E", "--top-percent", "25", "--no-esi-low-threshold"]
    shares = {}
    for years in ([], ["--years", "2020"]):
        code, out, _ = run(*argv, *years)
        assert code == 0
        body = payload(out)
        shares[tuple(years)] = (body["hcp_weight"]["rational"],
                                body["output_weight"]["rational"], body["share"]["rational"])
    assert shares == {(): ("2", "8", "1/4"), ("--years", "2020"): ("1", "8", "1/8")}


# -- output plumbing -----------------------------------------------------------------


def test_out_flag_writes_the_file_instead_of_stdout(run, corpus_files, two_papers, tmp_path):
    journals, papers, _ = corpus_files(two_papers)
    target = tmp_path / "result.json"
    code, out, _ = run(
        "cnci", "--journals", journals, "--papers", papers, "--schema", "subjects",
        "--out", target,
    )
    assert code == 0 and out == ""
    body = json.loads(target.read_text(encoding="utf-8"))
    assert body["value"]["rational"] == "11/12"


def test_out_file_in_a_missing_directory_is_a_usage_error(run, corpus_files, two_papers,
                                                         tmp_path):
    journals, papers, _ = corpus_files(two_papers)
    target = tmp_path / "missing" / "dir" / "out.json"
    code, out, err = run("validate", "--journals", journals, "--papers", papers,
                         "--out", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"biblio: error: cannot write --out {str(target)!r}: ")
    assert err.count("\n") == 1 and not target.parent.exists()


MISSING_CORPUS = ("--journals", "missing.jsonl", "--papers", "missing.jsonl")


@pytest.mark.parametrize("flag, argv", [
    ("--journals", ["validate", "--papers", "missing.jsonl"]),
    ("--papers", ["validate", "--journals", "missing.jsonl"]),
    ("--edges", ["validate", *MISSING_CORPUS]),
    ("--out", ["validate", *MISSING_CORPUS]),
    ("--subunit-ids", ["relative-cnci", *MISSING_CORPUS, "--schema", "subjects"]),
    ("--reference-ids", ["relative-cnci", *MISSING_CORPUS, "--schema", "subjects",
                         "--subunit-entity", "team-s"]),
    ("--config", ["simulate", "--experiment", "surplus"]),
    ("--out-dir", ["simulate", "--config", "config.yaml", "--experiment", "surplus"]),
])
def test_an_empty_path_is_a_usage_error_before_load(run, tmp_path, monkeypatch, flag, argv):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, SURPLUS_CONFIG)
    code, out, err = run(*argv, flag, "")
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: must be a non-empty path\n")
    assert list(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize("experiment, under, taken", [
    ("surplus", "file", "file"),  # --out-dir is a file
    ("surplus", "file/runs", "file"),  # --out-dir lies under a file
    ("surplus", "runs", "runs/trials.csv/"),  # a file it writes is a directory
    ("cnci", "runs", "runs/summary.json/"),
    ("corpus", "runs", "runs/papers.jsonl/"),
])
def test_unwritable_out_dir_is_a_usage_error(run, tmp_path, experiment, under, taken):
    config = write_config(tmp_path, CNCI_CONFIG)
    if taken.endswith("/"):
        (tmp_path / taken).mkdir(parents=True)
    else:
        (tmp_path / taken).write_text("taken\n", encoding="utf-8")
    out_dir = tmp_path / under
    code, out, err = run("simulate", "--config", config, "--experiment", experiment,
                         "--out-dir", out_dir)
    assert (code, out) == (2, "")
    assert err.startswith(f"biblio: error: cannot write --out-dir {str(out_dir)!r}: ")
    assert err.count("\n") == 1


def test_reruns_are_byte_identical(run, corpus_files, avgpct):
    journals, papers, _ = corpus_files(avgpct)
    for argv in (
        ("rank", "--journals", journals, "--papers", papers,
         "--schema", "s", "--category", "C", "--year", "2021"),
        ("percentile", "--journals", journals, "--papers", papers,
         "--schema", "s", "--journal", "jstar", "--year", "2021"),
        ("quartiles", "--journals", journals, "--papers", papers,
         "--schema", "s", "--year", "2021", "--format", "csv"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second and first[0] == 0


# -- simulate ------------------------------------------------------------------------


def write_config(tmp_path, text: str):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


SURPLUS_CONFIG = """\
seed: 3
num_categories: 8
journals_per_category: 20
papers_per_journal: 1
"""

CNCI_CONFIG = """\
seed: 4
num_categories: 2
journals_per_category: 2
papers_per_journal:
  uniform: [1, 3]
multi_attribution_prob: 0.0
"""


def cnci_config_with(*lines: str) -> str:
    """CNCI_CONFIG with each line setting its top-level key: the line replaces the
    base's entry for that key, since a config that names a key twice is refused."""
    keys = {line.split(":")[0] for line in lines}
    entries = re.split(r"(?m)^(?=\S)", CNCI_CONFIG)
    return "".join(e for e in entries if e.split(":")[0] not in keys) + "".join(
        line + "\n" for line in lines)


def test_simulate_surplus_writes_artifacts(run, tmp_path):
    config = write_config(tmp_path, SURPLUS_CONFIG)
    out_dir = tmp_path / "runs"
    code, out, _ = run(
        "simulate", "--config", config, "--experiment", "surplus",
        "--trials", "3", "--out-dir", out_dir,
    )
    assert code == 0
    body = payload(out)
    assert body["analytic_extras"] == [0, 0, 0]
    assert body["agrees"] is True
    assert (out_dir / "summary.json").read_text(encoding="utf-8") == out
    trials = (out_dir / "trials.csv").read_text(encoding="utf-8").splitlines()
    assert trials == ["trial,q1,q2,q3,q4"] + [f"{t},40,40,40,40" for t in range(3)]


def test_simulate_surplus_places_no_journal_for_an_empty_category(run, tmp_path):
    # Sizes 0-3 have uniform remainders mod 4, so the expectation is an integer,
    # and none of them reaches Q1.
    config = write_config(tmp_path, SURPLUS_CONFIG.replace("20", "{uniform: [0, 3]}"))
    code, out, err = run("simulate", "--config", config, "--experiment", "surplus",
                         "--trials", "400")
    assert (code, err) == (0, "")
    body = payload(out)
    assert body["analytic_extras"] == [4, 2, 6]
    assert body["agrees"] is True
    assert body["mean_totals"][0]["rational"] == "0"


def test_simulate_cnci_stdout_only(run, tmp_path):
    config = write_config(tmp_path, CNCI_CONFIG)
    code, out, _ = run("simulate", "--config", config, "--experiment", "cnci", "--trials", "2")
    assert code == 0
    body = payload(out)
    assert set(body["regimes"]) == {
        "whole_aor", "fractional_aor", "whole_roa", "whole_roa_split", "fractional_roa",
    }
    for stats in body["regimes"].values():
        assert stats["min"]["rational"] == "1"
        assert stats["max"]["rational"] == "1"
        assert stats["violations"] == 0
    assert body["all_pins_hold"] is True
    assert list(tmp_path.iterdir()) == [config]  # nothing written without --out-dir


def test_simulate_corpus_requires_out_dir(run, tmp_path):
    config = write_config(tmp_path, CNCI_CONFIG)
    code, _, err = run("simulate", "--config", config, "--experiment", "corpus")
    assert code == 2
    assert err == "biblio: error: --experiment corpus requires --out-dir\n"


def test_simulate_corpus_rejects_trials(run, tmp_path):
    config = write_config(tmp_path, CNCI_CONFIG)
    out_dir = tmp_path / "corpus"
    code, out, err = run("simulate", "--config", config, "--experiment", "corpus",
                         "--trials", "2", "--out-dir", out_dir)
    assert (code, out) == (2, "")
    assert err == "biblio: error: --trials applies to --experiment surplus and cnci only\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("experiment, text, monte_carlo", [
    ("surplus", SURPLUS_CONFIG.replace("20", "{uniform: [1, 9]}"), monte_carlo_surplus),
    ("cnci", CNCI_CONFIG, monte_carlo_global_cnci),
])
def test_simulate_prints_and_writes_what_its_result_renders(
        run, tmp_path, experiment, text, monte_carlo):
    config_path = write_config(tmp_path, text)
    out_dir = tmp_path / "runs"
    code, out, _ = run("simulate", "--config", config_path, "--experiment", experiment,
                       "--trials", "7", "--out-dir", out_dir)
    assert code == 0
    config = GenConfig.from_dict(yaml.safe_load(text))
    result = monte_carlo(config, 7)
    summary = {"experiment": experiment, "config": config.to_dict(), **result.to_json_dict()}
    assert out == json_line(summary) + "\n"
    assert (out_dir / "summary.json").read_text(encoding="utf-8") == out
    written = sorted(p.name for p in out_dir.iterdir())
    if experiment == "surplus":
        assert written == ["summary.json", "trials.csv"]
        assert (out_dir / "trials.csv").read_text(encoding="utf-8") == result.to_csv_text()
    else:
        assert written == ["summary.json"]


def test_simulate_corpus_emits_a_loadable_corpus(run, tmp_path):
    from biblio import load_corpus, validate

    config = write_config(tmp_path, CNCI_CONFIG)
    out_dir = tmp_path / "corpus"
    code, out, _ = run(
        "simulate", "--config", config, "--experiment", "corpus", "--out-dir", out_dir,
    )
    assert code == 0
    body = payload(out)
    assert body["journals"] == 4
    assert body["validation"]["ok"] is True
    corpus = load_corpus(out_dir / "journals.jsonl", out_dir / "papers.jsonl")
    assert corpus.load_report.clean
    assert len(corpus.journals) == 4
    assert validate(corpus).ok


def test_simulate_config_errors(run, tmp_path):
    code, _, err = run(
        "simulate", "--config", tmp_path / "absent.yaml", "--experiment", "surplus"
    )
    assert code == 2 and "cannot read --config" in err

    bad = write_config(tmp_path, "foo: [unclosed\n")
    code, _, err = run("simulate", "--config", bad, "--experiment", "surplus")
    assert code == 2 and "not valid YAML" in err

    incomplete = write_config(tmp_path, "num_categories: 3\n")
    code, _, err = run("simulate", "--config", incomplete, "--experiment", "surplus")
    assert code == 2 and "'seed'" in err

    for text in ("- seed: 1\n- num_categories: 3\n", "7\n"):
        not_a_mapping = write_config(tmp_path, text)
        code, _, err = run("simulate", "--config", not_a_mapping, "--experiment", "surplus")
        assert code == 2
        assert err == f"biblio: error: --config {str(not_a_mapping)!r}: top level is not a mapping\n"

    nested = write_config(tmp_path, SURPLUS_CONFIG + "citation_model: [yule]\n")
    code, _, err = run("simulate", "--config", nested, "--experiment", "surplus")
    assert code == 2 and err.startswith(f"biblio: error: --config {str(nested)!r}:")


@pytest.mark.parametrize("line, message", [
    ("doc_type_mix: {article: 0, review: 0}", "doc_type_mix needs non-negative weights"),
    ("citation_model: {kind: yule, rho: 0}", "yule rho must be positive"),
    ('years: "2020"', "years must be a list, got '2020'"),
    ("years: [2020, 2020]", "years [2020, 2020] names a year more than once"),
    ('correlate_volume_with_metric: "false"',
     "correlate_volume_with_metric must be true or false, got 'false'"),
    ("num_categories: 2.7", "num_categories must be an integer, got 2.7"),
    ("journals_per_category: {fixed: true}", "fixed size must be an integer, got True"),
    ('journals_per_category: "5"', "unrecognized size distribution '5'"),
    ("citation_model: {mu: .nan}", "mu must be a finite number, got nan"),
    ("doc_type_mix: {a: 1.0e+308, b: 1.0e+308}", "doc_type_mix weights must have a finite total"),
    ("num_categoriess: 5", "unknown key 'num_categoriess'"),
    ("multi_atribution_prob: 0.5", "unknown key 'multi_atribution_prob'"),
    ("citation_model: {kind: yule, rhoo: 9}", "unknown key 'rhoo' in citation_model"),
    ("journals_per_category: {fixd: 3}", "unknown key 'fixd' in size spec"),
    ("journals_per_category: {fixed: 3, uniform: [1, 2]}",
     "a size spec needs exactly one of fixed and uniform, got {'fixed': 3, 'uniform': [1, 2]}"),
    ("journals_per_category: {}", "a size spec needs exactly one of fixed and uniform, got {}"),
    ("papers_per_journal: {uniform: [1, 2, 3]}", "uniform needs [LOW, HIGH], got [1, 2, 3]"),
    ("papers_per_journal: {uniform: [3]}", "uniform needs [LOW, HIGH], got [3]"),
    ("papers_per_journal: {uniform: 3}", "uniform needs [LOW, HIGH], got 3"),
])
def test_simulate_config_values_are_usage_errors(run, tmp_path, line, message):
    config = write_config(tmp_path, cnci_config_with(line))
    code, out, err = run("simulate", "--config", config, "--experiment", "cnci")
    assert (code, out) == (2, "")
    assert err.startswith(f"biblio: error: --config {str(config)!r}: {message}")


@pytest.mark.parametrize("text, key, line, column", [
    (CNCI_CONFIG + "seed: 7\n", "seed", 7, 1),
    (CNCI_CONFIG + "doc_type_mix: {article: 0.9, review: 0.1, article: 0.1}\n", "article", 7, 43),
    ('{"seed": 1, "seed": 7, "num_categories": 2, "journals_per_category": 2, '
     '"papers_per_journal": 2}', "seed", 1, 13),
], ids=["top-level", "nested", "json"])
def test_simulate_config_keys_given_twice_are_usage_errors(run, tmp_path, text, key, line, column):
    config = write_config(tmp_path, text)
    code, out, err = run("simulate", "--config", config, "--experiment", "cnci")
    assert (code, out) == (2, "")
    assert err.startswith(f"biblio: error: --config {str(config)!r} is not valid YAML/JSON: "
                          f'found key {key!r} twice\n  in "<unicode string>", '
                          f"line {line}, column {column}:\n")


@pytest.mark.parametrize("experiment", ["cnci", "corpus", "surplus"])
@pytest.mark.parametrize("line, spec", [
    ("papers_per_journal: {uniform: [-5, 2]}", "{'uniform': [-5, 2]}"),
    ("journals_per_category: {uniform: [-3, 3]}", "{'uniform': [-3, 3]}"),
    ("journals_per_category: -1", "{'fixed': -1}"),
    ("papers_per_journal: {fixed: -2}", "{'fixed': -2}"),
])
def test_simulate_negative_size_specs_are_usage_errors(run, tmp_path, experiment, line, spec):
    config = write_config(tmp_path, cnci_config_with(line))
    out_dir = tmp_path / "runs"
    code, out, err = run("simulate", "--config", config, "--experiment", experiment,
                         "--out-dir", out_dir)
    assert (code, out) == (2, "")
    assert err == (f"biblio: error: --config {str(config)!r}: "
                   f"sizes must be integers >= 0, got {spec}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["seed", "num_categories", "journals_per_category",
                                 "papers_per_journal"])
def test_simulate_names_a_missing_required_key(run, tmp_path, key):
    fields = {"seed": 4, "num_categories": 2, "journals_per_category": 2, "papers_per_journal": 3}
    del fields[key]
    config = write_config(tmp_path, "".join(f"{k}: {v}\n" for k, v in fields.items()))
    code, out, err = run("simulate", "--config", config, "--experiment", "cnci")
    assert (code, out) == (2, "")
    assert err == f"biblio: error: --config {str(config)!r}: missing required key {key!r}\n"


@pytest.mark.parametrize("lines, expected", [
    # About 2.6 % of rho 0.1 draws make log(1 - p) exactly 0.0.
    (["citation_model: {kind: yule, rho: 0.1}", "papers_per_journal: 50"], ""),
    (["citation_model: {kind: yule, rho: 1.0e-300}"],
     "biblio: computation error: yule draw with rho 1e-300 is too large to represent\n"),
    (["citation_model: {mu: 1000}"],
     "biblio: computation error: lognormal draw with mu 1000.0 and sigma 1.0 "
     "is too large to represent\n"),
    (["citation_model: {kind: yule, shift: -1}"], "shift must be >= 0, got -1"),
    (["multi_field_citation_boost: -2.0", "multi_attribution_prob: 0.5"],
     "multi_field_citation_boost must be >= 0, got -2.0"),
    (["citation_model: {kind: yule, rho: 0.01}", "multi_field_citation_boost: 1.0e+300",
      "multi_attribution_prob: 0.5"],
     "biblio: computation error: a count times multi_field_citation_boost 1e+300 "
     "is too large to represent\n"),
])
def test_simulate_extreme_citation_models(run, tmp_path, lines, expected):
    """A well-typed config yields non-negative counts, a usage error (exit 2) or,
    for a draw too large to represent, a computation error (exit 3)."""
    config = write_config(tmp_path, cnci_config_with(*lines))
    out_dir = tmp_path / "corpus"
    code, _, err = run("simulate", "--config", config, "--experiment", "corpus",
                       "--out-dir", out_dir)
    if not expected:
        assert (code, err) == (0, "")
        rows = (out_dir / "papers.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 200
        assert all(json.loads(row)["citations"] >= 1 for row in rows)
    elif expected.startswith("biblio:"):
        assert (code, err) == (3, expected)
    else:
        assert code == 2
        assert err == f"biblio: error: --config {str(config)!r}: {expected}\n"


@pytest.mark.parametrize("trials", ["0", "-3", "x", "\u0663", " 5 ", "1_0"])
def test_simulate_trials_below_one_is_rejected_before_reading(run, tmp_path, trials):
    out_dir = tmp_path / "runs"
    code, out, err = run("simulate", "--config", tmp_path / "absent.yaml",
                         "--experiment", "surplus", "--trials", trials, "--out-dir", out_dir)
    assert (code, out) == (2, "")
    assert f"argument --trials: must be a positive integer, got {trials!r}" in err
    assert not out_dir.exists()


def test_simulate_is_deterministic(run, tmp_path):
    config = write_config(tmp_path, SURPLUS_CONFIG)
    argv = ("simulate", "--config", config, "--experiment", "surplus", "--trials", "5")
    assert run(*argv) == run(*argv)
