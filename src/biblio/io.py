"""Corpus ingestion and serialization.

Three files make a corpus: journals, papers, and (optionally) citation edges.
JSONL is the native format; CSV files with the same column semantics are
accepted, with nested values (category maps, metric maps, author lists) JSON
encoded inside the cell. The journals file starts with a registry record
``{"_schemas": {...}}`` naming each schema and whether it is
single-attribution; in CSV the registry travels in the ``categories`` column
of a row whose id is ``_schemas``.

Every row goes through one parse function per kind. A row that is not an
object, has more cells than its CSV header, lacks a required field or holds a
field of the wrong type is ``malformed_<kind>``; a well-formed row the corpus
cannot take is handed to ``reject`` with its reason. Either way ``reject`` is
where a row is dropped: strict mode aborts on the first such row with its
file and line, and lenient mode drops the row and counts it in the load
report under its reason. A CSV record is named by the physical line it ends
on, so a quoted cell that holds a line break does not shift the lines named
after it. Duplicate (citing, cited) pairs are collapsed with a warning in
both modes; they are a fact about messy exports, not a reason to abort.
"""
from __future__ import annotations

import contextlib
import csv
import gc
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
from .rounding import _int_text, _rational, csv_text

_NOTE_CAP = 20
_DECODE = json.JSONDecoder().raw_decode


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


def _not_utf8(path: Path, data: bytes) -> LoadError:
    """For the ``UnicodeDecodeError`` being handled, the error naming the line
    of ``path`` where its bytes ``data`` stop being UTF-8."""
    try:
        data.decode("utf-8")  # a decode of part of the file or after a BOM has other offsets
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return LoadError(f"{path.name}:{line}: not valid UTF-8: {exc.reason}")
    raise  # the data decodes: the handled error came from elsewhere


def _read_text(path) -> str:
    """A whole UTF-8 text file, without a byte-order mark; bytes that are not
    UTF-8 are a ``LoadError`` naming their line. An ``OSError`` passes through."""
    path = Path(path)
    data = path.read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None


def _csv_lines(fh, path: Path):
    """The file's lines, refusing a NUL: ``csv`` refuses one before Python 3.11
    and takes it from then on, so no Python takes it here."""
    for i, line in enumerate(fh, start=1):
        if "\0" in line:
            raise LoadError(f"{path.name}:{i}: NUL character in a CSV file")
        yield line


def _read_records(path: Path):
    """Yield (line_no, record) from a JSONL or CSV file, sniffed by suffix."""
    is_csv = path.suffix.lower() == ".csv"
    try:
        fh = path.open(newline="" if is_csv else None, encoding="utf-8-sig")
    except OSError as exc:
        raise LoadError(f"cannot open {path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            if is_csv:
                rows = csv.DictReader(_csv_lines(fh, path))
                try:
                    for row in rows:  # named by the line the record ends on
                        yield rows.line_num, {k: v for k, v in row.items() if v not in (None, "")}
                except csv.Error as exc:  # a cell over csv's field size limit
                    raise LoadError(f"{path.name}:{rows.reader.line_num}: {exc}") from exc
            else:
                for i, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record, end = _DECODE(line)
                    except json.JSONDecodeError:
                        end = None
                    if end != len(line):  # a bad line: decode it again for json's own message
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise LoadError(f"{path.name}:{i}: not valid JSON: {exc}") from exc
                    yield i, record
        except UnicodeDecodeError:
            # text reads decode whole chunks: find the line again
            raise _not_utf8(path, path.read_bytes()) from None


def _string(record: dict, key: str) -> str:
    value = record[key]
    if not isinstance(value, str):
        raise TypeError(f"field {key!r} is not a string: {value!r}")
    return value


def _nested(record: dict, key: str, default):
    """An optional object/array field, inline or as JSON text (as in a CSV cell)."""
    if key not in record:
        return default
    value = record[key]
    if isinstance(value, str):
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"field {key!r} is not valid JSON: {exc}") from exc
    return value


def _integer(record: dict, key: str) -> int | None:
    """An optional whole number: a JSON integer (or integral float) or CSV text."""
    if key not in record:
        return None
    value = record[key]
    if isinstance(value, str):
        try:
            return _int_text(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"field {key!r} is not an integer: {value!r}")


def _metric_map(raw, jid: str) -> dict[int, Fraction]:
    # JSON numbers are read by their repr, which round-trips exactly; strings
    # may also be "num/den" for values with no finite decimal form.
    try:
        return {_int_text(y): _rational(str(v)) for y, v in raw.items()}
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"journal {jid!r} has a malformed metric map") from exc


def _author(entry) -> AuthorCredit:
    key, entities = entry["key"], entry.get("entities", [])
    if not isinstance(entities, list):  # a string would become one entity per letter
        raise TypeError(f"entities are not a list: {entities!r}")
    if isinstance(key, str):
        for name in entities:
            if not isinstance(name, str):
                break
        else:
            return AuthorCredit(key, tuple(dict.fromkeys(entities) if len(entities) > 1
                                           else entities))
    raise TypeError(f"author key or entities are not strings: {entry!r}")


def _authors(raw) -> tuple[AuthorCredit, ...]:
    if not isinstance(raw, list):
        raise TypeError(f"field 'authors' is not a list: {raw!r}")
    try:
        return tuple([_author(entry) for entry in raw])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed author entry: {exc!r}") from exc


def _parse_date(value) -> date:
    """A ``YYYY-MM-DD`` date. The shape is checked first because from Python
    3.11 on ``date.fromisoformat`` also takes other ISO 8601 forms."""
    if isinstance(value, str) and len(value) == 10 and value[4] == value[7] == "-":
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    raise ValueError(f"malformed date {value!r}")


def _parse_month(value, year: int) -> date:
    if isinstance(value, int) and not isinstance(value, bool):
        month = value
    else:
        text = str(value)
        try:
            if "-" in text:
                year_s, month_s = text.split("-")
                year, month = _int_text(year_s), _int_text(month_s)
            else:
                month = _int_text(text)
        except ValueError as exc:
            raise ValueError(f"malformed month {value!r}") from exc
    if not 1 <= month <= 12:
        raise ValueError(f"malformed month {value!r}")
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

    def reject(where: str, reason: str, message: str) -> None:
        """Drop the row at ``where`` for ``reason``; in strict mode, abort."""
        message = f"{where}: {message}"
        if strict:
            raise LoadError(message)
        report.record(reason, message)

    def load(path, kind: str, parse) -> None:
        path = Path(path)
        name = path.name
        for line_no, record in _read_records(path):
            where = f"{name}:{line_no}"
            try:
                if not isinstance(record, dict):
                    raise TypeError(f"row is not an object: {record!r}")
                if None in record:  # csv.DictReader's key for cells beyond the header
                    raise ValueError(f"row has more cells than its header: {record[None]!r}")
                parse(record, where)
            except (KeyError, TypeError, ValueError) as exc:
                reject(where, f"malformed_{kind}", str(exc))

    schemas: dict[str, SchemaInfo] = {}
    journals: dict[str, Journal] = {}

    def parse_journal(record: dict, where: str) -> None:
        if "_schemas" in record or record.get("id") == "_schemas":
            registry = _nested(record, "_schemas" if "_schemas" in record else "categories", {})
            if not isinstance(registry, dict) or not all(
                isinstance(info, dict) for info in registry.values()
            ):
                raise TypeError(f"schema registry is not an object of objects: {registry!r}")
            flags = {name: info.get("single_attribution", False)
                     for name, info in registry.items()}
            if not all(isinstance(flag, bool) for flag in flags.values()):
                raise TypeError(f"single_attribution is not a boolean: {flags!r}")
            schemas.update((name, SchemaInfo(name, flag)) for name, flag in flags.items())
            return
        jid = _string(record, "id")
        raw_cats = _nested(record, "categories", {})
        raw_metric = _nested(record, "metric", {})
        if not isinstance(raw_cats, dict) or not all(
            isinstance(members, list) for members in raw_cats.values()
        ):
            raise TypeError(f"journal {jid!r} categories are not lists: {raw_cats!r}")
        if not all(isinstance(c, str) for members in raw_cats.values() for c in members):
            raise TypeError(f"journal {jid!r} category members are not strings: {raw_cats!r}")
        if any(len(set(members)) < len(members) for members in raw_cats.values()):
            raise ValueError(f"journal {jid!r} lists a category twice: {raw_cats!r}")
        if jid in journals:
            return reject(where, "duplicate_journal_id", f"duplicate journal id {jid!r}")
        metric = _metric_map(raw_metric, jid)
        cats: dict[str, tuple[str, ...]] = {}
        for schema, members in raw_cats.items():
            if schema in schemas:
                cats[schema] = tuple(members)
            else:
                reject(where, "unknown_schema", f"journal {jid!r} uses unknown schema {schema!r}")
        journals[jid] = Journal(id=jid, categories=cats, metric_by_year=metric)

    papers: dict[str, Paper] = {}
    counts: dict[str, int] = {}
    # One object per distinct year and doc type, and the journal's own id: the
    # cell folds read these per paper, and shared objects stay in the CPU cache.
    shared: dict = {}

    def parse_paper(record: dict, where: str) -> None:
        pid = _string(record, "id")
        jid = _string(record, "journal")
        year = _integer(record, "year")
        if year is None:
            raise KeyError("year")
        doc_type = _string(record, "doc_type")
        if pid in papers:
            return reject(where, "duplicate_paper_id", f"duplicate paper id {pid!r}")
        if jid not in journals:
            return reject(where, "unresolved_journal",
                          f"paper {pid!r} cites unknown journal {jid!r}")
        online = _parse_date(record["online_date"]) if "online_date" in record else None
        if "pub_date" in record:
            pub, precision = _parse_date(record["pub_date"]), DAY
        elif "pub_month" in record:
            pub, precision = _parse_month(record["pub_month"], year), MONTH
        else:
            pub, precision = None, DAY
        authors = _authors(_nested(record, "authors", []))
        pages = _integer(record, "pages")
        cited = _integer(record, "citations")
        if cited is not None and cited < 0:
            return reject(where, "negative_citations", f"paper {pid!r} has {cited} citations")
        if cited is not None:
            counts[pid] = cited
        papers[pid] = Paper(id=pid, journal_id=journals[jid].id,
                            year=shared.setdefault(year, year),
                            doc_type=shared.setdefault(doc_type, doc_type),
                            online_date=online, pub_date=pub, pub_date_precision=precision,
                            authors=authors, page_count=pages)

    edges: dict[tuple[str, str], CitationEdge] = {}

    def parse_edge(record: dict, where: str) -> None:
        citing, cited = _string(record, "citing"), _string(record, "cited")
        if citing not in papers or cited not in papers:
            return reject(where, "unresolved_edge_endpoint",
                          f"edge {citing!r}->{cited!r} references an unknown paper")
        citing, cited = papers[citing].id, papers[cited].id  # one id object per paper
        if citing == cited:
            return reject(where, "self_citation_loop", f"paper {citing!r} cites itself")
        when = _parse_date(record["date"]) if "date" in record else None
        if (citing, cited) in edges:
            report.collapsed_duplicate_edges += 1
            report.note(f"{where}: duplicate edge {citing!r}->{cited!r} collapsed")
            return
        edges[citing, cited] = CitationEdge(citing=citing, cited=cited, date=when)

    # Records hold no cycles, so the cyclic collector would only re-scan the
    # growing corpus; it is paused for the load and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        load(journals_path, "journal", parse_journal)
        load(papers_path, "paper", parse_paper)
        if edges_path is not None:
            load(edges_path, "edge", parse_edge)
        return Corpus(schemas.values(), journals.values(), papers.values(),
                      list(edges.values()) if edges_path is not None else None,
                      citation_counts=counts, load_report=report)
    finally:
        if enabled:
            gc.enable()


# -- serialization -------------------------------------------------------------


def json_line(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators, unescaped UTF-8."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _metric_out(f: Fraction):
    with contextlib.suppress(OverflowError):  # beyond a float's range
        if Fraction(str(as_float := float(f))) == f:
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


def _write_records(path: Path, header: tuple[str, ...], records) -> None:
    """Write ``records`` as JSON lines, or as CSV rows under ``header`` when the
    path's suffix is ``.csv``, nested values JSON-encoded in their cells. Each
    record is written as it comes, so the file is never held in memory. A CSV
    row holding a NUL, which loading refuses, or an empty cell, which loading
    reads as a missing field, is a ``LoadError`` raised before it is written."""
    is_csv = path.suffix.lower() == ".csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        if is_csv:
            fh.write(csv_text(header, ()))
        for record in records:
            if is_csv:
                values = (record.get(key, "") for key in header)
                line = csv_text(
                    tuple([json_line(v) if isinstance(v, (dict, list)) else v for v in values]),
                    ())
                if "\0" in line or "" in record.values():
                    name = (repr(record["id"]) if "id" in record
                            else f"{record['citing']!r}->{record['cited']!r}")
                    fault = "a NUL character" if "\0" in line else "an empty string"
                    raise LoadError(f"{path.name}: record {name} holds {fault}, "
                                    "which a CSV file cannot carry")
                fh.write(line)
            else:
                fh.write(json_line(record) + "\n")


def dump_corpus(corpus: Corpus, journals_path, papers_path, edges_path=None) -> None:
    """Serialize a corpus back to disk; format follows each path's suffix.

    Round-trips exactly: loading the emitted files yields an equal Corpus,
    whatever its strings hold, save that a CSV file cannot carry a NUL
    character or an empty id, journal or doc type: dumping such a record is a
    ``LoadError`` naming the file and the record, and that file then holds
    only the rows before it.
    """
    journals_path = Path(journals_path)
    registry = {name: {"single_attribution": info.single_attribution}
                for name, info in sorted(corpus.schemas.items())}
    if journals_path.suffix.lower() == ".csv":  # the registry rides in a row of its own
        registry_record = {"id": "_schemas", "categories": registry, "metric": {}}
    else:
        registry_record = {"_schemas": registry}
    _write_records(journals_path, ("id", "categories", "metric"),
                   [registry_record, *map(_journal_record, corpus.journals.values())])
    explicit = corpus.explicit_counts or {}
    _write_records(Path(papers_path),
                   ("id", "journal", "year", "doc_type", "online_date", "pub_date",
                    "pub_month", "authors", "pages", "citations"),
                   (_paper_record(p, explicit.get(p.id)) for p in corpus.papers.values()))
    if edges_path is not None:
        if corpus.edges is None:
            raise LoadError("corpus has no edge data to serialize")
        _write_records(Path(edges_path), ("citing", "cited", "date"),
                       map(_edge_record, corpus.edges))
