"""Every malformed row ends in a documented outcome, never a traceback.

A fixture corpus is written with one row altered. Lenient mode drops that row
and counts it once as ``malformed_<kind>``; strict mode exits 2 with
``biblio: load error: <file>:<line>: ...``. The regression cases are row
shapes that once escaped as tracebacks; the Hypothesis test retypes, drops or
nests one field of one row and runs ``main()`` on several subcommands. Its CSV
twin retypes, empties or splits one cell of one row of the same fixture
written as CSV, where a record spans as many physical lines as its cells hold.
"""
import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblio.cli import main

REGISTRY = {"_schemas": {"s": {"single_attribution": False}}}
ROWS = {
    "j.jsonl": [
        REGISTRY,
        {"id": "J1", "categories": {"s": ["A"]}, "metric": {"2020": 2.5}},
        {"id": "J2", "categories": {"s": ["A", "B"]}, "metric": {"2020": "3/2"}},
        {"id": "J3", "categories": {"s": ["B"]}, "metric": {"2020": 1}},
    ],
    "p.jsonl": [
        {"id": "P1", "journal": "J1", "year": 2020, "doc_type": "article",
         "online_date": "2020-01-05", "pages": 10,
         "authors": [{"key": "a1", "entities": ["org-a"]}]},
        {"id": "P2", "journal": "J2", "year": 2020, "doc_type": "article",
         "pub_date": "2020-03-01", "citations": 1},
        {"id": "P3", "journal": "J3", "year": 2020, "doc_type": "article",
         "pub_month": "2020-04"},
        {"id": "P4", "journal": "J1", "year": 2020, "doc_type": "review", "pub_month": 5},
    ],
    "e.jsonl": [
        {"citing": "P2", "cited": "P1", "date": "2021-01-01"},
        {"citing": "P3", "cited": "P1"},
        {"citing": "P4", "cited": "P2", "date": "2021-02-01"},
    ],
}
KIND = {"j.jsonl": "journal", "p.jsonl": "paper", "e.jsonl": "edge"}
SUBCOMMANDS = {
    "validate": (),
    "quartiles": ("--schema", "s", "--year", "2020"),
    "hcp": ("--schema", "s", "--top-percent", "50"),
}


def write_rows(directory, file, line, row):
    """The fixture files under ``directory``, with ``row`` on ``file:line``."""
    for name, rows in ROWS.items():
        rows = list(rows)
        if name == file:
            rows[line - 1] = row
        text = "".join(json.dumps(r) + "\n" for r in rows)
        (directory / name).write_text(text, encoding="utf-8")
    return ["--journals", str(directory / "j.jsonl"), "--papers", str(directory / "p.jsonl"),
            "--edges", str(directory / "e.jsonl")]


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_row_rejected(directory, file, line, row):
    files = write_rows(directory, file, line, row)
    for name, extra in SUBCOMMANDS.items():
        argv = (name, *files, *extra)
        code, out, err = run_main(*argv)
        assert code in (0, 2, 3), (argv, err)
        if name == "validate":
            load = json.loads(out)["load"]
            malformed = {r: n for r, n in load["dropped"].items() if r.startswith("malformed_")}
            assert malformed == {f"malformed_{KIND[file]}": 1}, load
            assert sum(n.startswith(f"{file}:{line}: ") for n in load["notes"]) == 1, load
        code, out, err = run_main(*argv, "--strict")
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith(f"biblio: load error: {file}:{line}: "), err


def altered(file, line, **fields):
    return {**ROWS[file][line - 1], **fields}


SHAPES = {
    "edge row is an array": ("e.jsonl", 1, [1, 2]),
    "journal row is an array": ("j.jsonl", 2, ["x"]),
    "metric is an array": ("j.jsonl", 2, altered("j.jsonl", 2, metric=[1])),
    "journal id is an array": ("j.jsonl", 2, altered("j.jsonl", 2, id=["J1"])),
    "paper journal is an array": ("p.jsonl", 1, altered("p.jsonl", 1, journal=["J1"])),
    "category member is an array": ("j.jsonl", 3, altered("j.jsonl", 3, categories={"s": [["A"]]})),
    "category member is a number": ("j.jsonl", 3, altered("j.jsonl", 3, categories={"s": [7]})),
    "year 0 with a pub_month": ("p.jsonl", 4, altered("p.jsonl", 4, year=0)),
    "single_attribution is a string": (
        "j.jsonl", 1, {"_schemas": {"s": {"single_attribution": "false"}}}),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_a_malformed_row_shape_is_located_not_a_traceback(tmp_path, shape):
    assert_row_rejected(tmp_path, *SHAPES[shape])


def test_the_unaltered_fixture_loads_clean(tmp_path):
    files = write_rows(tmp_path, "j.jsonl", 1, REGISTRY)
    for name, extra in SUBCOMMANDS.items():
        code, out, err = run_main(name, *files, *extra, "--strict")
        assert (code, err) == (0, ""), name


# -- fuzz ------------------------------------------------------------------------------

# The JSON types each field forbids. A name is a string; a whole number is an
# integer, an integral float or integer text; a nested field is its container
# or that container as JSON text; pub_month is a month number or "YYYY-MM".
NAME = ("null", "bool", "int", "float", "list", "object")
WHOLE = ("null", "bool", "float", "list", "object")
OBJECT = ("null", "bool", "int", "float", "list")
FORBIDDEN = {
    "id": NAME, "journal": NAME, "doc_type": NAME, "citing": NAME, "cited": NAME,
    "online_date": NAME, "pub_date": NAME, "date": NAME,
    "single_attribution": ("null", "int", "float", "string", "list", "object"),
    "year": WHOLE, "pages": WHOLE, "citations": WHOLE, "pub_month": WHOLE,
    "categories": OBJECT, "metric": OBJECT, "_schemas": OBJECT,
    "authors": ("null", "bool", "int", "float", "object"),
}
REQUIRED = {"id", "journal", "year", "doc_type", "citing", "cited", "_schemas"}
scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats().filter(lambda x: not x.is_integer()),
    "string": st.text(max_size=4),
    "list": st.lists(scalars, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), scalars, max_size=3),
}


def fields(row):
    """(path, value) of every field the fuzz may alter; a path is a key list."""
    if "_schemas" in row:
        return [(["_schemas"], row["_schemas"]),
                (["_schemas", "s", "single_attribution"], False)]
    return [([key], value) for key, value in row.items()]


@st.composite
def alterations(draw):
    file = draw(st.sampled_from(list(ROWS)))
    line = draw(st.integers(1, len(ROWS[file])))
    row = copy.deepcopy(ROWS[file][line - 1])
    path, value = draw(st.sampled_from(fields(row)))
    *parents, key = path
    target = row
    for parent in parents:
        target = target[parent]
    moves = ["retype", "nest"] + (["drop"] if key in REQUIRED else [])
    move = draw(st.sampled_from(moves))
    if move == "drop":
        del target[key]
    elif move == "retype":
        target[key] = draw(st.sampled_from(FORBIDDEN[key]).flatmap(VALUES.get))
    elif key == "_schemas":  # {"x": registry} would declare a schema named "x"
        target[key] = [value]
    else:
        target[key] = draw(st.sampled_from([[value], {"x": value}]))
    return file, line, row


@settings(max_examples=100)
@given(alterations())
def test_one_altered_row_is_rejected_once_and_located(tmp_path_factory, alteration):
    assert_row_rejected(tmp_path_factory.mktemp("fuzz"), *alteration)


# -- fuzz, CSV ---------------------------------------------------------------------------

CSV_HEADERS = {file: tuple(dict.fromkeys(key for row in rows for key in row if key != "_schemas"))
               for file, rows in ROWS.items()}
FLAGS = {"j.jsonl": "--journals", "p.jsonl": "--papers", "e.jsonl": "--edges"}
# Any cell text is a name, so these fields can be emptied or split but not retyped.
NAME_FIELDS = {"id", "journal", "doc_type", "citing", "cited"}


def csv_record(file, line) -> list[str]:
    """Record ``line`` of ``file`` as CSV cell texts under its header: the
    registry in the ``categories`` cell of row ``_schemas``, and each nested
    value as JSON text over several lines."""
    row = ROWS[file][line - 1]
    if "_schemas" in row:
        row = {"id": "_schemas", "categories": row["_schemas"]}
    return [json.dumps(row[key], indent=1) if isinstance(row.get(key), (dict, list))
            else str(row.get(key, "")) for key in CSV_HEADERS[file]]


def write_csv(directory, file, line, cells):
    """The fixture as CSV files under ``directory``, with the cell list ``cells``
    as record ``line`` of ``file``: the argv, and the physical line that record
    ends on."""
    argv, end = [], None
    for name in ROWS:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADERS[name])
        for i in range(1, len(ROWS[name]) + 1):
            if (name, i) == (file, line):
                writer.writerow(cells)
                end = out.getvalue().count("\n")
            else:
                writer.writerow(csv_record(name, i))
        path = directory / name.replace(".jsonl", ".csv")
        path.write_text(out.getvalue(), encoding="utf-8")
        argv += [FLAGS[name], str(path)]
    return argv, end


def test_the_unaltered_csv_fixture_loads_clean_over_multi_line_records(tmp_path):
    argv, end = write_csv(tmp_path, "p.jsonl", 4, csv_record("p.jsonl", 4))
    assert end == 12  # after the header, P1's author list spans 8 lines, P2 to P4 one each
    for name, extra in SUBCOMMANDS.items():
        code, out, err = run_main(name, *argv, *extra, "--strict")
        assert (code, err) == (0, ""), name


@st.composite
def csv_alterations(draw):
    """(file, line, cells): one record of the CSV fixture with one cell split in
    two, emptied (a required field) or, if it holds a field that is not a name,
    given the JSON text of a type that field forbids."""
    file = draw(st.sampled_from(list(ROWS)))
    line = draw(st.integers(1, len(ROWS[file])))
    header = CSV_HEADERS[file]
    values = csv_record(file, line)
    cells = dict(zip(header, values))
    retypable = [key for key in header if key not in NAME_FIELDS and cells[key]]
    move = draw(st.sampled_from(["drop", "split"] + (["retype"] if retypable else [])))
    if move == "split":
        i = draw(st.integers(0, len(values) - 1))
        cut = draw(st.integers(0, len(values[i])))
        values[i:i + 1] = [values[i][:cut], values[i][cut:]]
    elif move == "drop":
        key = draw(st.sampled_from([key for key in header if key in REQUIRED and cells[key]]))
        values[header.index(key)] = ""
    elif cells.get("id") == "_schemas":  # the registry cell, or the flag inside it
        key = draw(st.sampled_from(["_schemas", "single_attribution"]))
        value = draw(st.sampled_from(FORBIDDEN[key]).flatmap(VALUES.get))
        if key == "single_attribution":
            value = {"s": {"single_attribution": value}}
        values[header.index("categories")] = json.dumps(value)
    else:
        key = draw(st.sampled_from(retypable))
        values[header.index(key)] = json.dumps(
            draw(st.sampled_from(FORBIDDEN[key]).flatmap(VALUES.get)))
    return file, line, values


@settings(max_examples=100)
@given(csv_alterations())
def test_one_altered_csv_cell_rejects_its_row_at_its_physical_line(tmp_path_factory, alteration):
    file, line, cells = alteration
    argv, end = write_csv(tmp_path_factory.mktemp("csv"), file, line, cells)
    where = f"{file.replace('.jsonl', '.csv')}:{end}: "
    code, out, err = run_main("validate", *argv)
    assert code in (0, 2), err
    load = json.loads(out)["load"]
    malformed = {r: n for r, n in load["dropped"].items() if r.startswith("malformed_")}
    assert malformed == {f"malformed_{KIND[file]}": 1}, load
    assert sum(n.startswith(where) for n in load["notes"]) == 1, load
    code, out, err = run_main("validate", *argv, "--strict")
    assert (code, out) == (2, ""), err
    assert err.startswith(f"biblio: load error: {where}"), err
