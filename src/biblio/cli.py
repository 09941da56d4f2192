"""Command-line interface: one indicator per invocation, batch only.

``main`` is the one run path. It runs the subcommand's check of its flags, then
loads the corpus and checks ``--schema`` against its registry (``simulate``
reads no corpus), then calls the handler with ``(args, corpus)``. A handler
returns a payload dict or a result that renders itself; ``main`` alone renders
it to standard output (or ``--out``). Exit codes: 0 success; 2 usage or
validation problems, load failures, and a ``ComputationError`` raised before the
handler runs; 3 one the handler raises, such as a cited paper over a zero
baseline. Each handler imports the modules it runs, so a process loads only
those its subcommand needs. Diagnostics go to standard error, among them one
line naming what a lenient load dropped. Output is byte-stable: JSON has sorted
keys and compact separators, and every rational is both ``num/den`` and a
rounded decimal. ``main`` does not touch the cyclic collector; the process path,
``entrypoint``, turns it off for the run (which leaves no cyclic garbage but its
parser's) and freezes what is left before exit, so the collections of shutdown
skip what the OS frees anyway (``atexit`` and the final flush still run).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import sys
from fractions import Fraction
from pathlib import Path

from .corpus import Corpus, _in_slice, _within, validate
from .errors import ComputationError, LoadError
from .io import _read_text, dump_corpus, json_line, load_corpus
from .rounding import _int_text, rational_json, rational_str

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    """Flags the subcommand cannot run with, or an output path it cannot
    write; exit 2."""


def _render(result, fmt: str = "json") -> str:
    """A handler's result as text: a payload dict, or a result that renders itself."""
    if fmt == "csv":
        return result.to_csv_text()
    return json_line(result if isinstance(result, dict) else result.to_json_dict()) + "\n"


@contextlib.contextmanager
def _writing(flag: str, path):
    """Writes under an output flag; a path that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {flag} {str(path)!r}: {exc}") from None


def _write(text: str, out: str | None) -> None:
    """A rendered result to the ``--out`` file, or to stdout without one."""
    if out is None:
        sys.stdout.write(text)
        return
    with _writing("--out", out):
        Path(out).write_text(text, encoding="utf-8")


def _corpus_subcommand(sub, name: str, handler, help: str, *groups, formats=("json",),
                       check=lambda args: None):
    """A corpus-file subcommand with the shared options, plus ``--schema`` and
    ``--format`` unless ``formats=()`` (validate), plus each of ``groups``, whose
    flag combination ``check(args)`` vets before any file is read."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, check=check)
    p.add_argument("--journals", type=_path, required=True, help="journals file (JSONL or CSV)")
    p.add_argument("--papers", type=_path, required=True, help="papers file (JSONL or CSV)")
    p.add_argument("--edges", type=_path, help="citation edges file (JSONL or CSV)")
    p.add_argument(
        "--strict", action="store_true",
        help="abort on the first contract violation instead of dropping rows",
    )
    p.add_argument("--out", type=_path,
                   help="write results to this file instead of standard output")
    if formats:
        p.add_argument("--schema", required=True)
        p.add_argument("--format", choices=list(formats), default=formats[0],
                       help="output format")
    for group in groups:
        group(p)
    return p


def _counting_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--counting", choices=["whole", "fractional"], default="whole")


def _slice_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--years", type=_int_list, help="comma-separated publication years")
    p.add_argument("--doc-types", type=_str_list, help="comma-separated document types")


def _hcp_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--top-percent", type=_top_percent, default="1",
        help="selectivity, percent (exact rational in (0, 100])",
    )
    p.add_argument(
        "--method",
        choices=["inclusive", "exclusive", "fractional-ws", "quota"],
        default="inclusive",
        help="borderline handling",
    )
    p.add_argument(
        "--tiebreak", type=_tiebreak_names, default=[],
        help="comma-separated chain: chronology, trajectory, citing-excellence",
    )
    p.add_argument(
        "--no-esi-low-threshold", action="store_true",
        help="disable the rule that a threshold of 2 or fewer citations selects nothing",
    )


def _int(text: str, least: int | None = None, kind: str = "an integer") -> int:
    """An integer flag in the loader's spelling, at least ``least`` if given."""
    with contextlib.suppress(ValueError):
        n = _int_text(text)
        if least is None or n >= least:
            return n
    raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")


def _path(text: str) -> str:
    """A file or directory flag: an empty value is an error, not the flag left out."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _int_list(text: str) -> list[int]:
    return [_int(x) for x in _str_list(text)]


def _str_list(text: str) -> list[str]:
    if items := [x.strip() for x in text.split(",") if x.strip()]:
        return items
    raise argparse.ArgumentTypeError(f"must name at least one item, got {text!r}")


def _trials(text: str) -> int:
    return _int(text, 1, "a positive integer")


def _size(text: str) -> int:
    return _int(text, 0, "an integer >= 0")


def _top_percent(text: str) -> Fraction:
    from . import excellence
    try:
        return excellence._share(text)
    except (ValueError, ZeroDivisionError, ComputationError):
        raise argparse.ArgumentTypeError(
            f"must be an exact rational in (0, 100], got {text!r}") from None


def _tiebreak_names(text: str) -> list[str]:
    from . import excellence
    names = _str_list(text)
    try:
        excellence.parse_tiebreak_chain(names)
    except ComputationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _load(args) -> Corpus:
    corpus = load_corpus(args.journals, args.papers, args.edges, strict=args.strict)
    report = corpus.load_report
    if not report.clean:
        dropped = ", ".join(f"{reason}={n}" for reason, n in sorted(report.dropped.items()))
        logger.warning("load report: dropped %s; collapsed_duplicate_edges=%d",
                       dropped or "none", report.collapsed_duplicate_edges)
    if getattr(args, "schema", None) is not None:
        corpus.require_schema(args.schema)
    return corpus


def _papers_in_file(corpus: Corpus, path: str, flag: str) -> list:
    """The papers whose ids the file at ``path`` lists, one per line, each once."""
    try:
        lines = _read_text(path).splitlines()
    except OSError as exc:
        raise LoadError(f"cannot read id list {path!r}: {exc}") from exc
    papers = {}
    for line_no, pid in enumerate(map(str.strip, lines), start=1):
        if not pid:
            continue
        if pid in papers or pid not in corpus.papers:
            fault = "duplicate" if pid in papers else "unknown"
            raise LoadError(f"{flag} {Path(path).name}:{line_no}: {fault} paper id {pid!r}")
        papers[pid] = corpus.papers[pid]
    return list(papers.values())


def _slice_papers(corpus: Corpus, args) -> list:
    """Papers with a category under --schema in the --years/--doc-types slice."""
    return [p for p in corpus.papers.values() if corpus.categories_of(p.journal_id, args.schema)
            and _in_slice(p.year, p.doc_type, args.years, args.doc_types)]


# -- subcommand handlers ---------------------------------------------------------


def _cmd_validate(args, corpus: Corpus) -> dict:
    report = validate(corpus)
    return {
        "ok": report.ok and corpus.load_report.clean,
        "validation": report.to_json_dict(),
        "load": corpus.load_report.to_json_dict(),
    }


def _cmd_rank(args, corpus: Corpus) -> ranking.RankedCategory:
    from . import ranking
    return ranking.rank_category(corpus, args.schema, args.category, args.year)


def _cmd_percentile(args, corpus: Corpus) -> dict:
    from . import ranking
    cats = corpus.categories_of(args.journal, args.schema)
    if not cats:
        raise ComputationError(
            f"journal {args.journal!r} has no categories under {args.schema!r}")
    per_category, values = {}, []
    for cat in cats:
        result = ranking.rank_category(corpus, args.schema, cat, args.year)
        rank = result.rank_of(args.journal)
        values.append(ranking.percentile(rank, result.n))
        per_category[cat] = {
            "rank": rank,
            "n": result.n,
            "percentile": rational_json(values[-1], 1),
        }
    return {
        "schema": args.schema,
        "journal": args.journal,
        "year": args.year,
        "per_category": per_category,
        "average": rational_json(sum(values, Fraction(0)) / len(values), 1),
    }


def _cmd_quartiles(args, corpus: Corpus) -> ranking.DistributionReport:
    from . import ranking
    return ranking.quartile_distribution(
        corpus,
        args.schema,
        args.year,
        level=args.level,
        mode=args.mode.replace("-", "_"),
        min_category_size=args.min_category_size,
    )


def _check_baselines(args) -> None:
    from . import normalization
    normalization.baseline_config(args.counting, args.split_citations)


def _cmd_baselines(args, corpus: Corpus) -> normalization.BaselineTable:
    from . import normalization
    table = normalization.compute_baselines(
        corpus, args.schema, args.counting, split_citations=args.split_citations
    )
    return table._replace(cells=_within(table.cells, args.years, args.doc_types))


def _cnci_config(args) -> normalization.CnciConfig:
    from . import normalization
    return normalization.CnciConfig(args.counting, args.aggregation, args.split_citations)


def _cmd_cnci(args, corpus: Corpus) -> dict:
    from . import normalization
    config = _cnci_config(args)
    papers = _slice_papers(corpus, args)
    value = normalization.global_cnci(corpus, args.schema, config, args.years, args.doc_types)
    payload = {
        "schema": args.schema,
        "counting": config.counting,
        "aggregation": config.aggregation,
        "split_citations": config.split_citations,
        "papers": len(papers),
        "value": rational_json(value, 4),
    }
    if args.per_paper:
        baselines = normalization.compute_baselines(
            corpus, args.schema, config.counting, split_citations=config.split_citations)
        payload["per_paper"] = {
            p.id: rational_json(normalization.cnci_paper(corpus, p, baselines), 4)
            for p in papers
        }
    return payload


def _check_relative_cnci(args) -> None:
    if args.subunit_entity is None and args.subunit_ids is None:
        raise _UsageError("relative-cnci needs --subunit-entity or --subunit-ids")
    if args.subunit_entity is not None and args.subunit_ids is not None:
        raise _UsageError("relative-cnci takes --subunit-entity or --subunit-ids, not both")
    if args.reference_entity is not None and args.reference_ids is not None:
        raise _UsageError("relative-cnci takes --reference-entity or --reference-ids, not both")
    if (args.reference_entity is not None or args.reference_ids is not None) and (
            args.years is not None or args.doc_types is not None):
        raise _UsageError(
            "--years and --doc-types apply only without --reference-entity or --reference-ids")


def _cmd_relative_cnci(args, corpus: Corpus) -> dict:
    from . import normalization
    if args.subunit_entity is not None:
        subunit = list(corpus.papers_of_entity(args.subunit_entity))
    else:
        subunit = _papers_in_file(corpus, args.subunit_ids, "--subunit-ids")
    if args.reference_entity is not None:
        reference = list(corpus.papers_of_entity(args.reference_entity))
        named = f"entity {args.reference_entity!r}"
    elif args.reference_ids is not None:
        reference = _papers_in_file(corpus, args.reference_ids, "--reference-ids")
        named = f"the ids in {Path(args.reference_ids).name}"
    else:
        reference, named = _slice_papers(corpus, args), "the corpus slice"

    corpus_baselines = normalization.compute_baselines(corpus, args.schema, args.counting)
    subunit_cnci = normalization.cnci_set(corpus, subunit, corpus_baselines)
    reference_cnci = normalization.cnci_set(corpus, reference, corpus_baselines)
    relative = normalization.relative_cnci(corpus, subunit, reference, args.schema, args.counting)
    if not reference_cnci:  # every reference paper is uncited
        raise ComputationError(
            f"the reference set ({named}) has CNCI 0, so the CNCI ratio is undefined")
    return {
        "schema": args.schema,
        "counting": args.counting,
        "subunit": {"papers": len(subunit), "cnci": rational_json(subunit_cnci, 4)},
        "reference": {"papers": len(reference), "cnci": rational_json(reference_cnci, 4)},
        "cnci_ratio": rational_json(subunit_cnci / reference_cnci, 4),
        "relative_cnci": rational_json(relative, 4),
    }


def _check_hcp(args) -> None:
    if args.method == "quota" and not args.tiebreak:
        raise _UsageError("--method quota requires a --tiebreak chain")
    if args.method != "quota" and args.tiebreak:
        raise _UsageError("--tiebreak applies to --method quota only")


def _hcp_selection(args, corpus: Corpus):
    """The corpus's sliced cell thresholds and its HCP decisions under the hcp options."""
    from . import excellence
    return excellence.hcp_selection(
        corpus,
        args.schema,
        top_percent=args.top_percent,
        method=args.method.replace("-", "_"),
        esi_low_threshold=not args.no_esi_low_threshold,
        tiebreak_chain=args.tiebreak,
        years=args.years,
        doc_types=args.doc_types,
    )


def _cmd_hcp(args, corpus: Corpus) -> dict:
    thresholds, decisions = _hcp_selection(args, corpus)
    total = sum((d.weight for d in decisions), Fraction(0))
    return {
        "schema": args.schema,
        "top_percent": rational_str(args.top_percent),
        "method": args.method,
        "esi_low_threshold": not args.no_esi_low_threshold,
        "tiebreak": list(args.tiebreak),
        "cells": [t.to_json_dict() for t in thresholds],
        "decisions": [d.to_json_dict() for d in decisions],
        "total_weight": rational_json(total, 2),
    }


def _cmd_hcp_report(args, corpus: Corpus) -> excellence.ExcellenceReport:
    from . import excellence
    _, decisions = _hcp_selection(args, corpus)
    return excellence.hcp_report(
        corpus,
        args.schema,
        decisions,
        top_percent=args.top_percent,
        years=args.years,
        doc_types=args.doc_types,
    )


def _cmd_entity_share(args, corpus: Corpus) -> dict:
    from . import excellence
    _, decisions = _hcp_selection(args, corpus)
    share = excellence.entity_hcp_share(corpus, args.entity, decisions, args.counting)
    payload = share.to_json_dict()
    payload["top_percent"] = rational_str(args.top_percent)
    payload["method"] = args.method
    return payload


def _gen_config(path: str) -> synthesis.GenConfig:
    """The ``--config`` file as a generator config; any fault in it is a usage error."""
    import yaml  # only simulate reads YAML; a top-level import slows every start-up

    from . import synthesis

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):  # refuses a key given twice
            mapping = super().construct_mapping(node, deep)
            if len(mapping) < len(node.value):
                keys = [self.construct_object(key, deep) for key, _ in node.value]
                i = next(i for i, key in enumerate(keys) if key in keys[:i])
                raise yaml.constructor.ConstructorError(
                    None, None, f"found key {keys[i]!r} twice", node.value[i][0].start_mark)
            return mapping

    try:
        raw = yaml.load(_read_text(path), Loader)
    except OSError as exc:
        raise _UsageError(f"cannot read --config {path!r}: {exc}")
    except LoadError as exc:
        raise _UsageError(f"--config {exc}")
    except yaml.YAMLError as exc:
        raise _UsageError(f"--config {path!r} is not valid YAML/JSON: {exc}")
    if not isinstance(raw or {}, dict):
        raise _UsageError(f"--config {path!r}: top level is not a mapping")
    try:
        return synthesis.GenConfig.from_dict(raw or {})
    except (AttributeError, KeyError, TypeError, ValueError, ComputationError) as exc:
        raise _UsageError(f"--config {path!r}: {exc}")


def _cmd_simulate(args, _) -> dict:
    from . import synthesis
    config = _gen_config(args.config)
    if args.experiment == "corpus" and args.out_dir is None:
        raise _UsageError("--experiment corpus requires --out-dir")
    if args.experiment == "corpus" and args.trials != 1:
        raise _UsageError("--trials applies to --experiment surplus and cnci only")
    out_dir = Path(args.out_dir) if args.out_dir is not None else None
    if out_dir is not None:
        with _writing("--out-dir", out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)

    files = {}
    if args.experiment == "corpus":
        corpus = synthesis.generate_corpus(config)
        with _writing("--out-dir", out_dir):
            dump_corpus(corpus, out_dir / "journals.jsonl", out_dir / "papers.jsonl")
        payload = {
            "journals": len(corpus.journals),
            "papers": len(corpus.papers),
            "validation": validate(corpus).to_json_dict(),
            "files": {"journals": "journals.jsonl", "papers": "papers.jsonl"},
        }
    else:
        run = {"surplus": synthesis.monte_carlo_surplus,
               "cnci": synthesis.monte_carlo_global_cnci}[args.experiment]
        result = run(config, args.trials)
        payload = result.to_json_dict()
        if hasattr(result, "to_csv_text"):
            files["trials.csv"] = result.to_csv_text()
    summary = {"experiment": args.experiment, "config": config.to_dict(), **payload}
    if out_dir is not None:
        with _writing("--out-dir", out_dir):
            for name, text in {**files, "summary.json": _render(summary)}.items():
                (out_dir / name).write_text(text, encoding="utf-8")
    return summary


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biblio",
        description="Bibliometric indicators: rankings, baselines, CNCI, "
        "highly cited papers, and synthetic-corpus experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    json_csv = ("json", "csv")

    _corpus_subcommand(sub, "validate", _cmd_validate,
                       "check a corpus against every structural invariant", formats=())

    p = _corpus_subcommand(sub, "rank", _cmd_rank,
                           "rank one category's journals by their yearly metric",
                           formats=json_csv)
    p.add_argument("--category", required=True)
    p.add_argument("--year", type=_int, required=True)

    p = _corpus_subcommand(sub, "percentile", _cmd_percentile,
                           "percentile position of a journal per category")
    p.add_argument("--journal", required=True)
    p.add_argument("--year", type=_int, required=True)

    p = _corpus_subcommand(sub, "quartiles", _cmd_quartiles,
                           "distribution of journals or papers over quartiles",
                           formats=json_csv)
    p.add_argument("--year", type=_int, required=True)
    p.add_argument("--level", choices=["journals", "papers"], default="journals")
    p.add_argument("--mode", choices=["per-category", "database-best"], default="per-category")
    p.add_argument(
        "--min-category-size", type=_size, default=0,
        help="skip categories with fewer ranked journals (0 = off)",
    )

    p = _corpus_subcommand(sub, "baselines", _cmd_baselines,
                           "expected citation rates per (field, year, type) cell",
                           _counting_option, _slice_options, formats=json_csv,
                           check=_check_baselines)
    p.add_argument(
        "--split-citations", action="store_true",
        help="split citations across fields while counting papers whole",
    )

    p = _corpus_subcommand(sub, "cnci", _cmd_cnci,
                           "global normalized citation impact of a corpus slice",
                           _counting_option, _slice_options, check=_cnci_config)
    p.add_argument("--aggregation", choices=["aor", "roa"], default="aor")
    p.add_argument(
        "--split-citations", action="store_true",
        help="split citations across fields (ratio-of-averages with whole counting only)",
    )
    p.add_argument("--per-paper", action="store_true", help="include per-paper values")

    p = _corpus_subcommand(sub, "relative-cnci", _cmd_relative_cnci,
                           "impact of a subunit normalized by a reference set's baselines",
                           _counting_option, _slice_options, check=_check_relative_cnci)
    p.add_argument("--subunit-entity", help="subunit = papers attributed to this entity")
    p.add_argument("--subunit-ids", type=_path, help="file with one subunit paper id per line")
    p.add_argument("--reference-entity", help="reference = papers attributed to this entity")
    p.add_argument("--reference-ids", type=_path, help="file with one reference paper id per line")

    _corpus_subcommand(sub, "hcp", _cmd_hcp,
                       "highly cited paper thresholds and decisions per cell",
                       _hcp_options, _slice_options, check=_check_hcp)
    _corpus_subcommand(sub, "hcp-report", _cmd_hcp_report,
                       "per-field expected vs actual excellence table",
                       _hcp_options, _slice_options, formats=json_csv, check=_check_hcp)
    p = _corpus_subcommand(sub, "entity-share", _cmd_entity_share,
                           "share of an entity's output that is highly cited",
                           _counting_option, _hcp_options, _slice_options,
                           check=_check_hcp)
    p.add_argument("--entity", required=True)

    p = sub.add_parser("simulate", help="synthetic corpora and Monte Carlo experiments")
    p.set_defaults(handler=_cmd_simulate, check=lambda args: None)  # it checks --config first
    p.add_argument("--config", type=_path, required=True,
                   help="generator config file (YAML or JSON)")
    p.add_argument(
        "--experiment", choices=["surplus", "cnci", "corpus"], required=True,
        help="surplus: quartile imbalance; cnci: global mean per regime; corpus: emit files",
    )
    p.add_argument("--trials", type=_trials, default=1)
    p.add_argument("--out-dir", type=_path,
                   help="directory for per-trial CSV, summary JSON, corpus files")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="biblio: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        try:  # a flag or --schema that a check or the load rejects: a usage error
            args.check(args)
            corpus = _load(args) if "journals" in args else None
        except ComputationError as exc:
            raise _UsageError(str(exc)) from None
        result = args.handler(args, corpus)
        _write(_render(result, getattr(args, "format", "json")), getattr(args, "out", None))
    except _UsageError as exc:
        print(f"biblio: error: {exc}", file=sys.stderr)
        return 2
    except LoadError as exc:
        print(f"biblio: load error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"biblio: computation error: {exc}", file=sys.stderr)
        return 3
    if args.subcommand == "validate" and not result["ok"]:
        print("biblio: corpus has validation findings", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    gc.disable()  # a run makes no cyclic garbage but its one parser's
    code = main()
    gc.freeze()  # the exit collections would only walk what the OS frees anyway
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
