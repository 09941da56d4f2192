"""Command-line interface: one indicator per invocation, batch only.

Each subcommand's handler computes and returns its result, a payload dict or
a result that renders itself; ``main`` alone renders that result and writes it
to standard output (or ``--out``). Each handler imports the modules it runs,
so a process loads only those its subcommand needs. Diagnostics go to
standard error, among them one line naming what a lenient load dropped.
Exit codes: 0 success, 2 usage or validation problems (including strict-mode
load failures), 3 computation errors such as a cited paper over a zero
baseline. Output is byte-stable: JSON is emitted with sorted keys and compact
separators, and every number that started life as a rational is rendered as
both ``num/den`` and a rounded decimal. Flag combinations are validated before
any corpus is read, and ``--schema`` against the corpus's registry right after.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import sys
from fractions import Fraction
from pathlib import Path

from .corpus import Corpus, validate
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


def _corpus_subcommand(sub, name: str, handler, help: str, *groups, formats=("json",)):
    """A corpus-file subcommand with the shared options, plus ``--schema`` and
    ``--format`` unless ``formats=()`` (validate), plus each of ``groups``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
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
    return [x.strip() for x in text.split(",") if x.strip()]


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
    if not gc.get_freeze_count():
        # the process's one corpus: later collections skip it (``main`` thaws it)
        gc.freeze()
    report = corpus.load_report
    if not report.clean:
        dropped = ", ".join(f"{reason}={n}" for reason, n in sorted(report.dropped.items()))
        logger.warning("load report: dropped %s; collapsed_duplicate_edges=%d",
                       dropped or "none", report.collapsed_duplicate_edges)
    if getattr(args, "schema", None) is not None:
        _usage_checked(corpus.require_schema, args.schema)
    return corpus


def _usage_checked(make, *flags):
    """``make(*flags)``; flags that it rejects are a usage error."""
    try:
        return make(*flags)
    except ComputationError as exc:
        raise _UsageError(str(exc)) from None


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
    cells = corpus.cells(args.schema, args.years, args.doc_types).values()
    return list({p.id: p for papers in cells for p in papers}.values())


# -- subcommand handlers ---------------------------------------------------------


def _cmd_validate(args) -> dict:
    corpus = _load(args)
    report = validate(corpus)
    return {
        "ok": report.ok and corpus.load_report.clean,
        "validation": report.to_json_dict(),
        "load": corpus.load_report.to_json_dict(),
    }


def _cmd_rank(args) -> ranking.RankedCategory:
    from . import ranking
    return ranking.rank_category(_load(args), args.schema, args.category, args.year)


def _cmd_percentile(args) -> dict:
    from . import ranking
    corpus = _load(args)
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


def _cmd_quartiles(args) -> ranking.DistributionReport:
    from . import ranking
    return ranking.quartile_distribution(
        _load(args),
        args.schema,
        args.year,
        level=args.level,
        mode=args.mode.replace("-", "_"),
        min_category_size=args.min_category_size,
    )


def _cmd_baselines(args) -> normalization.BaselineTable:
    from . import normalization
    _usage_checked(normalization.baseline_config, args.counting, args.split_citations)
    corpus = _load(args)
    table = normalization.compute_baselines(
        corpus, args.schema, args.counting, split_citations=args.split_citations
    )
    return table._replace(cells={
        k: v for k, v in table.cells.items() if k.within(args.years, args.doc_types)
    })


def _cmd_cnci(args) -> dict:
    from . import normalization
    config = _usage_checked(
        normalization.CnciConfig, args.counting, args.aggregation, args.split_citations
    )
    corpus = _load(args)
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


def _cmd_relative_cnci(args) -> dict:
    from . import normalization
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
    corpus = _load(args)
    if args.subunit_entity is not None:
        subunit = list(corpus.papers_of_entity(args.subunit_entity))
    else:
        subunit = _papers_in_file(corpus, args.subunit_ids, "--subunit-ids")
    if args.reference_entity is not None:
        reference = list(corpus.papers_of_entity(args.reference_entity))
    elif args.reference_ids is not None:
        reference = _papers_in_file(corpus, args.reference_ids, "--reference-ids")
    else:
        reference = _slice_papers(corpus, args)

    corpus_baselines = normalization.compute_baselines(corpus, args.schema, args.counting)
    subunit_cnci = normalization.cnci_set(corpus, subunit, corpus_baselines)
    reference_cnci = normalization.cnci_set(corpus, reference, corpus_baselines)
    relative = normalization.relative_cnci(
        corpus, subunit, reference, args.schema, args.counting
    )
    return {
        "schema": args.schema,
        "counting": args.counting,
        "subunit": {"papers": len(subunit), "cnci": rational_json(subunit_cnci, 4)},
        "reference": {"papers": len(reference), "cnci": rational_json(reference_cnci, 4)},
        "cnci_ratio": rational_json(subunit_cnci / reference_cnci, 4),
        "relative_cnci": rational_json(relative, 4),
    }


def _hcp_selection(args):
    """The loaded corpus, its sliced cell thresholds and its HCP decisions
    under the hcp options, whose combination is checked before loading."""
    from . import excellence
    if args.method == "quota" and not args.tiebreak:
        raise _UsageError("--method quota requires a --tiebreak chain")
    if args.method != "quota" and args.tiebreak:
        raise _UsageError("--tiebreak applies to --method quota only")
    corpus = _load(args)
    return corpus, *excellence.hcp_selection(
        corpus,
        args.schema,
        top_percent=args.top_percent,
        method=args.method.replace("-", "_"),
        esi_low_threshold=not args.no_esi_low_threshold,
        tiebreak_chain=args.tiebreak,
        years=args.years,
        doc_types=args.doc_types,
    )


def _cmd_hcp(args) -> dict:
    _, thresholds, decisions = _hcp_selection(args)
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


def _cmd_hcp_report(args) -> excellence.ExcellenceReport:
    from . import excellence
    corpus, _, decisions = _hcp_selection(args)
    return excellence.hcp_report(
        corpus,
        args.schema,
        decisions,
        top_percent=args.top_percent,
        years=args.years,
        doc_types=args.doc_types,
    )


def _cmd_entity_share(args) -> dict:
    from . import excellence
    corpus, _, decisions = _hcp_selection(args)
    share = excellence.entity_hcp_share(corpus, args.entity, decisions, args.counting)
    payload = share.to_json_dict()
    payload["top_percent"] = rational_str(args.top_percent)
    payload["method"] = args.method
    return payload


def _gen_config(path: str) -> synthesis.GenConfig:
    """The ``--config`` file as a generator config; any fault in it is a usage error."""
    import yaml  # only simulate reads YAML; a top-level import slows every start-up

    from . import synthesis
    try:
        raw = yaml.safe_load(_read_text(path))
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


def _cmd_simulate(args) -> dict:
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
                           _counting_option, _slice_options, formats=json_csv)
    p.add_argument(
        "--split-citations", action="store_true",
        help="split citations across fields while counting papers whole",
    )

    p = _corpus_subcommand(sub, "cnci", _cmd_cnci,
                           "global normalized citation impact of a corpus slice",
                           _counting_option, _slice_options)
    p.add_argument("--aggregation", choices=["aor", "roa"], default="aor")
    p.add_argument(
        "--split-citations", action="store_true",
        help="split citations across fields (ratio-of-averages with whole counting only)",
    )
    p.add_argument("--per-paper", action="store_true", help="include per-paper values")

    p = _corpus_subcommand(sub, "relative-cnci", _cmd_relative_cnci,
                           "impact of a subunit normalized by a reference set's baselines",
                           _counting_option, _slice_options)
    p.add_argument("--subunit-entity", help="subunit = papers attributed to this entity")
    p.add_argument("--subunit-ids", type=_path, help="file with one subunit paper id per line")
    p.add_argument("--reference-entity", help="reference = papers attributed to this entity")
    p.add_argument("--reference-ids", type=_path, help="file with one reference paper id per line")

    _corpus_subcommand(sub, "hcp", _cmd_hcp,
                       "highly cited paper thresholds and decisions per cell",
                       _hcp_options, _slice_options)
    _corpus_subcommand(sub, "hcp-report", _cmd_hcp_report,
                       "per-field expected vs actual excellence table",
                       _hcp_options, _slice_options, formats=json_csv)
    p = _corpus_subcommand(sub, "entity-share", _cmd_entity_share,
                           "share of an entity's output that is highly cited",
                           _counting_option, _hcp_options, _slice_options)
    p.add_argument("--entity", required=True)

    p = sub.add_parser("simulate", help="synthetic corpora and Monte Carlo experiments")
    p.set_defaults(handler=_cmd_simulate)
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
    frozen = gc.get_freeze_count()
    try:
        result = args.handler(args)
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
    finally:
        if not frozen:  # an in-process caller gets its collector back as it was
            gc.unfreeze()
    if args.subcommand == "validate" and not result["ok"]:
        print("biblio: corpus has validation findings", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
