"""Corpus ingestion and serialization.

Three files make a corpus: journals, papers, and (optionally) citation edges.
JSONL is the native format; CSV files with the same column semantics are
accepted, with nested values (category maps, metric maps, author lists) JSON
encoded inside the cell. The journals file starts with a registry record
``{"_schemas": {...}}`` naming each schema and whether it is
single-attribution; in CSV the registry travels in the ``categories`` column
of a row whose id is ``_schemas``.

Strict mode aborts on the first contract violation. Lenient mode drops the
offending row and counts it in the load report. Duplicate (citing, cited)
pairs are collapsed with a warning in both modes; they are a fact about messy
exports, not a reason to abort.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dc_field
from datetime import date
from fractions import Fraction
from pathlib import Path

from .corpus import (
    DAY,
    MONTH,
    AuthorCredit,
    CitationEdge,
    Corpus,
    Journal,
    Paper,
    SchemaInfo,
)
from .errors import LoadError

_NOTE_CAP = 20


@dataclass
class LoadReport:
    """What lenient ingestion had to drop or repair."""

    dropped: dict[str, int] = dc_field(default_factory=dict)
    collapsed_duplicate_edges: int = 0
    notes: list[str] = dc_field(default_factory=list)

    def record(self, reason: str, message: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.notes) < _NOTE_CAP:
            self.notes.append(message)

    @property
    def clean(self) -> bool:
        return not self.dropped and self.collapsed_duplicate_edges == 0

    def to_json_dict(self) -> dict:
        return {
            "dropped": dict(sorted(self.dropped.items())),
            "collapsed_duplicate_edges": self.collapsed_duplicate_edges,
            "notes": list(self.notes),
        }


def _read_records(path: Path):
    """Yield (line_no, record) from a JSONL or CSV file, sniffed by suffix."""
    is_csv = path.suffix.lower() == ".csv"
    try:
        fh = path.open(newline="" if is_csv else None, encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot open {path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            if is_csv:
                for i, row in enumerate(csv.DictReader(fh), start=2):
                    yield i, {k: v for k, v in row.items() if v not in (None, "")}
            else:
                for i, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield i, json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise LoadError(f"{path.name}:{i}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError:
            data = path.read_bytes()  # text reads decode whole chunks: find the line again
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise LoadError(f"{path.name}:{line}: not valid UTF-8: {exc.reason}") from exc
            raise


def _nested(record: dict, key: str, where: str):
    """A value that is a JSON object/array inline or JSON text in a CSV cell."""
    value = record.get(key)
    if isinstance(value, str):
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            raise LoadError(f"{where}: field {key!r} is not valid JSON: {exc}") from exc
    return value


def _entities(author: dict) -> tuple[str, ...]:
    entities = author.get("entities", [])
    if not isinstance(entities, list):  # a string would become one entity per letter
        raise TypeError(f"entities are not a list: {entities!r}")
    return tuple(dict.fromkeys(entities))


def _metric(value) -> Fraction:
    # JSON numbers round-trip through repr exactly; "num/den" strings are
    # accepted for values with no finite decimal form.
    return Fraction(str(value))


def _integer(record: dict, key: str, where: str) -> int | None:
    """An optional whole number: a JSON integer (or integral float) or CSV text."""
    if key not in record:
        return None
    value = record[key]
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise LoadError(f"{where}: field {key!r} is not an integer: {value!r}")


def _parse_date(value: str, where: str) -> date:
    try:
        return date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{where}: malformed date {value!r}") from exc


def _parse_month(value, year: int, where: str) -> date:
    if isinstance(value, int):
        month = value
    else:
        text = str(value)
        try:
            if "-" in text:
                year_s, month_s = text.split("-")
                year, month = int(year_s), int(month_s)
            else:
                month = int(text)
        except ValueError as exc:
            raise LoadError(f"{where}: malformed month {value!r}") from exc
    if not 1 <= month <= 12:
        raise LoadError(f"{where}: malformed month {value!r}")
    return date(year, month, 1)


def load_corpus(
    journals_path,
    papers_path,
    edges_path=None,
    *,
    strict: bool = False,
) -> Corpus:
    """Load a corpus from disk; see the module docstring for the contract."""
    report = LoadReport()

    def reject(reason: str, message: str) -> None:
        if strict:
            raise LoadError(message)
        report.record(reason, message)

    schemas: dict[str, SchemaInfo] = {}
    journals: dict[str, Journal] = {}
    journals_path = Path(journals_path)
    for line_no, record in _read_records(journals_path):
        where = f"{journals_path.name}:{line_no}"
        if "_schemas" in record or record.get("id") == "_schemas":
            key = "_schemas" if "_schemas" in record else "categories"
            try:
                registry = _nested(record, key, where) or {}
            except LoadError as exc:
                reject("malformed_journal", str(exc))
                continue
            if not isinstance(registry, dict) or not all(
                isinstance(info, dict) for info in registry.values()
            ):
                reject("malformed_journal",
                       f"{where}: schema registry is not an object of objects: {registry!r}")
                continue
            for name, info in registry.items():
                schemas[name] = SchemaInfo(
                    name=name, single_attribution=bool(info.get("single_attribution"))
                )
            continue
        try:
            jid = record["id"]
            raw_cats = _nested(record, "categories", where) or {}
            raw_metric = _nested(record, "metric", where) or {}
        except KeyError as exc:
            reject("malformed_journal", f"{where}: {exc}")
            continue
        except LoadError as exc:
            reject("malformed_journal", str(exc))
            continue
        if not isinstance(raw_cats, dict) or not all(
            isinstance(members, list) for members in raw_cats.values()
        ):
            reject("malformed_journal",
                   f"{where}: journal {jid!r} categories are not lists: {raw_cats!r}")
            continue
        if jid in journals:
            reject("duplicate_journal_id", f"{where}: duplicate journal id {jid!r}")
            continue
        cats: dict[str, tuple[str, ...]] = {}
        for schema, members in raw_cats.items():
            if schema not in schemas:
                reject("unknown_schema", f"{where}: journal {jid!r} uses unknown schema {schema!r}")
                continue
            cats[schema] = tuple(members)
        try:
            metric = {int(y): _metric(v) for y, v in raw_metric.items()}
        except (ValueError, ZeroDivisionError):
            reject("malformed_journal", f"{where}: journal {jid!r} has a malformed metric map")
            continue
        journals[jid] = Journal(id=jid, categories=cats, metric_by_year=metric)

    papers: dict[str, Paper] = {}
    counts: dict[str, int] = {}
    papers_path = Path(papers_path)
    for line_no, record in _read_records(papers_path):
        where = f"{papers_path.name}:{line_no}"
        try:
            pid = record["id"]
            jid = record["journal"]
            year = _integer(record, "year", where)
            if year is None:
                raise KeyError("year")
            doc_type = str(record["doc_type"])
        except (KeyError, TypeError) as exc:
            reject("malformed_paper", f"{where}: {exc}")
            continue
        except LoadError as exc:
            reject("malformed_paper", str(exc))
            continue
        if pid in papers:
            reject("duplicate_paper_id", f"{where}: duplicate paper id {pid!r}")
            continue
        if jid not in journals:
            reject("unresolved_journal", f"{where}: paper {pid!r} cites unknown journal {jid!r}")
            continue
        try:
            online = (
                _parse_date(record["online_date"], where)
                if "online_date" in record
                else None
            )
            if "pub_date" in record:
                pub, precision = _parse_date(record["pub_date"], where), DAY
            elif "pub_month" in record:
                pub, precision = _parse_month(record["pub_month"], year, where), MONTH
            else:
                pub, precision = None, DAY
            raw_authors = _nested(record, "authors", where) or []
            try:
                authors = tuple(AuthorCredit(a["key"], _entities(a)) for a in raw_authors)
            except (KeyError, TypeError) as exc:
                raise LoadError(f"{where}: malformed author entry: {exc!r}") from exc
            pages = _integer(record, "pages", where)
            cited = _integer(record, "citations", where)
        except LoadError as exc:
            reject("malformed_paper", str(exc))
            continue
        if cited is not None and cited < 0:
            reject("negative_citations", f"{where}: paper {pid!r} has {cited} citations")
            continue
        if cited is not None:
            counts[pid] = cited
        papers[pid] = Paper(
            id=pid,
            journal_id=jid,
            year=year,
            doc_type=doc_type,
            online_date=online,
            pub_date=pub,
            pub_date_precision=precision,
            authors=authors,
            page_count=pages,
        )

    edges: list[CitationEdge] | None = None
    if edges_path is not None:
        edges = []
        seen: set[tuple[str, str]] = set()
        edges_path = Path(edges_path)
        for line_no, record in _read_records(edges_path):
            where = f"{edges_path.name}:{line_no}"
            try:
                citing, cited = record["citing"], record["cited"]
            except KeyError as exc:
                reject("malformed_edge", f"{where}: {exc}")
                continue
            if citing not in papers or cited not in papers:
                reject(
                    "unresolved_edge_endpoint",
                    f"{where}: edge {citing!r}->{cited!r} references an unknown paper",
                )
                continue
            if citing == cited:
                reject("self_citation_loop", f"{where}: paper {citing!r} cites itself")
                continue
            if (citing, cited) in seen:
                report.collapsed_duplicate_edges += 1
                report.note(f"{where}: duplicate edge {citing!r}->{cited!r} collapsed")
                continue
            seen.add((citing, cited))
            try:
                when = _parse_date(record["date"], where) if "date" in record else None
            except LoadError as exc:
                reject("malformed_edge", str(exc))
                continue
            edges.append(CitationEdge(citing=citing, cited=cited, date=when))

    return Corpus(
        schemas=schemas.values(),
        journals=journals.values(),
        papers=papers.values(),
        edges=edges,
        citation_counts=counts if counts else None,
        load_report=report,
    )


# -- serialization -------------------------------------------------------------


def json_line(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators, unescaped UTF-8."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _metric_out(f: Fraction):
    as_float = float(f)
    if Fraction(str(as_float)) == f:
        return as_float
    return f"{f.numerator}/{f.denominator}"


def _journal_record(j: Journal) -> dict:
    return {
        "id": j.id,
        "categories": {s: list(cats) for s, cats in sorted(j.categories.items())},
        "metric": {str(y): _metric_out(m) for y, m in sorted(j.metric_by_year.items())},
    }


def _paper_record(p: Paper, count: int | None) -> dict:
    record: dict = {
        "id": p.id,
        "journal": p.journal_id,
        "year": p.year,
        "doc_type": p.doc_type,
    }
    if p.online_date is not None:
        record["online_date"] = p.online_date.isoformat()
    if p.pub_date is not None:
        if p.pub_date_precision == MONTH:
            record["pub_month"] = f"{p.pub_date.year:04d}-{p.pub_date.month:02d}"
        else:
            record["pub_date"] = p.pub_date.isoformat()
    if p.authors:
        record["authors"] = [
            {"key": a.author_key, "entities": list(a.entities)} for a in p.authors
        ]
    if p.page_count is not None:
        record["pages"] = p.page_count
    if count is not None:
        record["citations"] = count
    return record


def _edge_record(e: CitationEdge) -> dict:
    record = {"citing": e.citing, "cited": e.cited}
    if e.date is not None:
        record["date"] = e.date.isoformat()
    return record


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json_line(record) + "\n")


def _write_csv(path: Path, header: list[str], records) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for record in records:
            row = {}
            for key in header:
                value = record.get(key)
                if value is None:
                    row[key] = ""
                elif isinstance(value, (dict, list)):
                    row[key] = json_line(value)
                else:
                    row[key] = value
            writer.writerow(row)


def dump_corpus(corpus: Corpus, journals_path, papers_path, edges_path=None) -> None:
    """Serialize a corpus back to disk; format follows each path's suffix.

    Round-trips exactly: loading the emitted files yields an equal Corpus.
    """
    journals_path, papers_path = Path(journals_path), Path(papers_path)
    registry = {
        "_schemas": {
            name: {"single_attribution": info.single_attribution}
            for name, info in sorted(corpus.schemas.items())
        }
    }
    journal_records = [_journal_record(j) for j in corpus.journals.values()]
    explicit = corpus.explicit_counts or {}
    paper_records = [
        _paper_record(p, explicit.get(p.id)) for p in corpus.papers.values()
    ]

    if journals_path.suffix.lower() == ".csv":
        rows = [{"id": "_schemas", "categories": registry["_schemas"], "metric": {}}]
        rows.extend(journal_records)
        _write_csv(journals_path, ["id", "categories", "metric"], rows)
    else:
        _write_jsonl(journals_path, [registry, *journal_records])

    if papers_path.suffix.lower() == ".csv":
        header = [
            "id", "journal", "year", "doc_type", "online_date", "pub_date",
            "pub_month", "authors", "pages", "citations",
        ]
        _write_csv(papers_path, header, paper_records)
    else:
        _write_jsonl(papers_path, paper_records)

    if edges_path is not None:
        if corpus.edges is None:
            raise LoadError("corpus has no edge data to serialize")
        edges_path = Path(edges_path)
        records = [_edge_record(e) for e in corpus.edges]
        if edges_path.suffix.lower() == ".csv":
            _write_csv(edges_path, ["citing", "cited", "date"], records)
        else:
            _write_jsonl(edges_path, records)
