import csv
import io
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio import (
    Corpus,
    GenConfig,
    Journal,
    Paper,
    SchemaInfo,
    SizeDist,
    compute_baselines,
    decimal_str,
    hcp_report,
    hcp_selection,
    monte_carlo_surplus,
    provisional_hcp_ids,
    quartile_distribution,
    rank_category,
    rational_json,
    rational_str,
    round_half_up,
)
from biblio.rounding import _int_text, _rational, _texts, csv_text
from oracles import decimal_half_up, decimal_quantized

rationals = st.fractions(max_denominator=10_000, min_value=-10_000, max_value=10_000)


def test_half_up_at_halves():
    assert round_half_up(Fraction(1, 2)) == 1
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(-1, 2)) == -1
    assert round_half_up(Fraction(-3, 2)) == -2


def test_half_up_examples():
    assert round_half_up(Fraction(38048, 100)) == 380
    assert round_half_up(Fraction(105, 10)) == 11
    assert round_half_up(Fraction(89, 100)) == 1


@given(rationals)
def test_half_up_matches_decimal_module(x):
    assert round_half_up(x) == decimal_half_up(x)


@given(rationals)
def test_half_up_is_an_integer_within_half(x):
    r = round_half_up(x)
    assert isinstance(r, int)
    assert abs(Fraction(r) - x) <= Fraction(1, 2)


def test_decimal_str_examples():
    assert decimal_str(Fraction(6850, 86), 1) == "79.7"
    assert decimal_str(Fraction(6225, 86), 1) == "72.4"
    assert decimal_str(Fraction(57, 22), 2) == "2.59"
    assert decimal_str(Fraction(42, 44), 2) == "0.95"
    assert decimal_str(Fraction(11, 12), 4) == "0.9167"
    assert decimal_str(Fraction(380 * 100, 38048), 3) == "0.999"
    assert decimal_str(Fraction(0), 2) == "0.00"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.13"


def test_decimal_str_zero_places():
    assert decimal_str(Fraction(5, 2), 0) == "3"
    with pytest.raises(ValueError, match="places must be >= 0"):
        decimal_str(Fraction(5, 2), -1)


# Exact halves at up to seven places, so every rounding position meets them.
halves = st.builds(
    lambda k, e: Fraction(2 * k + 1, 2 * 10**e),
    st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=0, max_value=7),
)


@given(rationals | halves, st.integers(min_value=0, max_value=6))
def test_decimal_str_is_decimal_quantize_half_up(x, places):
    assert decimal_str(x, places) == decimal_quantized(x, places)


@given(rationals, st.integers(min_value=0, max_value=6))
def test_decimal_str_round_trips_within_half_ulp(x, places):
    text = decimal_str(x, places)
    back = Fraction(text)
    assert abs(back - x) <= Fraction(1, 2 * 10**places)


def test_rational_round_trip():
    for f in (Fraction(11, 12), Fraction(-3, 7), Fraction(4), Fraction(0)):
        assert Fraction(rational_str(f)) == f
    assert rational_str(Fraction(11, 12)) == "11/12"
    assert rational_str(Fraction(4)) == "4"


def test_rational_json_shape():
    assert rational_json(Fraction(11, 12), 4) == {
        "rational": "11/12",
        "decimal": "0.9167",
    }


def unmemoised(value: Fraction, places: int) -> tuple[str, str]:
    """The exact and the half-up text of ``value``, by the integer formula."""
    n, d = value.numerator, value.denominator
    scale = 10**places
    scaled = (2 * abs(n) * scale + d) // (2 * d)
    whole, part = divmod(scaled, scale)
    sign = "-" if n < 0 and scaled else ""
    rounded = f"{sign}{whole}.{part:0{places}d}" if places else f"{sign}{whole}"
    return (str(n) if d == 1 else f"{n}/{d}"), rounded


memo_values = (
    rationals
    | st.integers(min_value=-10**30, max_value=10**30).map(Fraction)
    | st.builds(Fraction, st.integers(min_value=-10**40, max_value=10**40),
                st.integers(min_value=1, max_value=10**20))
    | st.just(Fraction(0))
)


@given(st.lists(st.tuples(memo_values, st.integers(min_value=0, max_value=8)),
                min_size=1, max_size=20))
def test_memoised_renderings_match_the_integer_formula(pairs):
    # Each value again at other places, then the first pass again: memo hits
    # and misses interleave, and a value meets the memo at several places.
    again = [(value, (places + 3) % 9) for value, places in pairs]
    for value, places in pairs + again + pairs:
        exact, rounded = unmemoised(value, places)
        assert rational_json(value, places) == {"rational": exact, "decimal": rounded}
        assert decimal_str(value, places) == rounded
        assert rational_str(value) == exact


def test_rational_json_returns_a_new_dict_on_every_call():
    first = rational_json(Fraction(2, 3), 2)
    first["decimal"], first["extra"] = "mutated", 1
    second = rational_json(Fraction(2, 3), 2)
    assert second == {"rational": "2/3", "decimal": "0.67"}
    assert second is not first and rational_json(Fraction(2, 3), 2) is not second


def test_rendering_errors_are_raised_on_every_call():
    for _ in range(3):
        for render in (decimal_str, rational_json):
            with pytest.raises(ValueError, match="places must be >= 0"):
                render(Fraction(1, 3), -1)
            with pytest.raises(ValueError, match="not a rational"):
                render("1_0", 2)
        with pytest.raises(ValueError, match="not a rational"):
            rational_str("+1")
    assert rational_json("1/3", 2) == {"rational": "1/3", "decimal": "0.33"}


def test_the_rendering_memo_is_bounded():
    maxsize = _texts.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    for k in range(maxsize + 10):
        decimal_str(Fraction(k, 7), 1)
    assert _texts.cache_info().currsize == maxsize


# Number text from outside (corpus rows, flags, ``str`` arguments) has one
# spelling on every Python. Among the refused spellings are ``+``, spaces, ``_``
# and non-ASCII digits, which ``int`` or ``Fraction`` take on some declared version.
INT_SPELLINGS = {"0": 0, "2020": 2020, "-0020": -20, "007": 7, "-3": -3}
NOT_INT_SPELLINGS = ["", "-", "+2", " 12 ", "1_000", "\u0663", "\uff11", "1.0", "1e3",
                     "--1", "0x10", "2020-"]
RATIONAL_SPELLINGS = {
    "1/3": Fraction(1, 3), "-1/3": Fraction(-1, 3), "2.5": Fraction(5, 2), ".5": Fraction(1, 2),
    "-0020": Fraction(-20), "1e-1": Fraction(1, 10), "1e+16": Fraction(10**16),
    "1E3": Fraction(1000), "-2.50e-1": Fraction(-1, 4), "007/014": Fraction(1, 2),
}
NOT_RATIONAL_SPELLINGS = ["", "-", "+2", " 1.5 ", "1_000", "1 /2", "1/ 2", "\u0663", "1/\u0663",
                          "1e1_0", "1/-2", "1/2/3", "1.5/2", "e3", "1e", "nan", "inf", "0x10"]


@pytest.mark.parametrize("text", INT_SPELLINGS)
def test_int_text_reads_ascii_integers(text):
    assert _int_text(text) == INT_SPELLINGS[text]


@pytest.mark.parametrize("text", NOT_INT_SPELLINGS)
def test_int_text_refuses_every_other_spelling(text):
    with pytest.raises(ValueError):
        _int_text(text)


@pytest.mark.parametrize("text", RATIONAL_SPELLINGS)
def test_rational_reads_ascii_fractions_and_decimals(text):
    assert _rational(text) == RATIONAL_SPELLINGS[text]


@pytest.mark.parametrize("text", NOT_RATIONAL_SPELLINGS)
def test_rational_refuses_every_other_spelling(text):
    with pytest.raises(ValueError):
        _rational(text)


def test_rational_passes_numbers_through_and_refuses_a_zero_denominator():
    assert _rational(Fraction(2, 3)) == Fraction(2, 3)
    assert _rational(7) == Fraction(7)
    with pytest.raises(ZeroDivisionError):
        _rational("1/0")


def test_rendering_reads_text_by_the_rational_spelling():
    assert round_half_up("5/2") == 3
    assert decimal_str("1/3", 2) == "0.33"
    assert rational_str("-0.50") == "-1/2"
    assert rational_json("1e+1", 1) == {"rational": "10", "decimal": "10.0"}
    for render in (round_half_up, rational_str, lambda t: decimal_str(t, 1),
                   lambda t: rational_json(t, 1)):
        for text in ("1_0", " 1", "+1"):
            with pytest.raises(ValueError):
                render(text)


def test_csv_text_quotes_only_the_fields_that_need_it():
    text = csv_text(("a", "b"), [(1, "x,y"), ('say "hi"', "\r"), ("", "\n"), ("\r\n", "plain")])
    assert text == 'a,b\n1,"x,y"\n"say ""hi""","\r"\n,"\n"\n"\r\n",plain\n'
    assert csv_text(("a",), [("",), (2,)]) == "a\n\n2\n"


ENGINEERING = "Engineering, Electrical & Electronic"
ODD = 'x,y "z"\rCR\nLF'


def csv_rows(text: str) -> list[list[str]]:
    assert text.endswith("\n")
    return list(csv.reader(io.StringIO(text, newline="")))


def test_every_csv_rendering_reads_back_as_its_rendered_values():
    """Each ``to_csv_text`` parses into rows as wide as its header, holding the
    values its JSON rendering holds, even where they carry CSV's own characters."""
    corpus = Corpus(
        [SchemaInfo("s")],
        [Journal('J"1', {"s": (ENGINEERING, "c" + ODD)}, {2020: Fraction(7, 3)}),
         Journal("J" + ODD, {"s": (ENGINEERING,)}, {2020: Fraction(1, 2)})],
        [Paper(f"p{i}", jid, 2020, doc_type)
         for i, (jid, doc_type) in enumerate([('J"1', "article"), ('J"1', "re,view"),
                                              ("J" + ODD, "article"), ("J" + ODD, "article")])],
        citation_counts={"p0": 9, "p1": 4, "p2": 3, "p3": 1},
    )
    ranked = rank_category(corpus, "s", ENGINEERING, 2020)
    quartiles = quartile_distribution(corpus, "s", 2020, level="papers")
    baselines = compute_baselines(corpus, "s", "fractional")
    _, decisions = hcp_selection(corpus, "s", top_percent=50, esi_low_threshold=False)
    report = hcp_report(corpus, "s", decisions, top_percent=50)
    surplus = monte_carlo_surplus(GenConfig(seed=1, num_categories=2,
                                            journals_per_category=SizeDist.uniform(1, 5),
                                            papers_per_journal=SizeDist.fixed(1)), 3)
    rendered = [
        (ranked, ["journal", "metric", "rank", "quartile", "percentile"],
         [[e["journal"], e["metric"]["rational"], str(e["rank"]), e["quartile"],
           e["percentile"]["decimal"]] for e in ranked.to_json_dict()["entries"]]),
        (quartiles, ["quartile", "count", "share"],
         [[q, str(v["count"]), v["share"]["decimal"]]
          for q, v in quartiles.to_json_dict()["quartiles"].items()]),
        (baselines, ["schema", "field", "year", "doc_type", "counting", "expected", "weight"],
         [["s", c["cell"]["field"], str(c["cell"]["year"]), c["cell"]["doc_type"], "fractional",
           c["expected"]["rational"], c["weight"]] for c in baselines.to_json_dict()["cells"]]),
        (report, ["field", "total", "expected", "actual", "surplus", "real_pct"],
         [[r["field"], str(r["total"]), str(r["expected"]), r["actual"]["rational"],
           r["surplus"]["rational"], r["real_pct"]["decimal"]]
          for r in report.to_json_dict()["rows"]]),
        (surplus, ["trial", "q1", "q2", "q3", "q4"],
         [[str(t), *map(str, totals)] for t, totals in enumerate(surplus.per_trial_totals)]),
    ]
    for result, header, rows in rendered:
        assert csv_rows(result.to_csv_text()) == [header, *rows]
    quoted = [cell for result, _, _ in rendered for row in csv_rows(result.to_csv_text())
              for cell in row if any(c in cell for c in ',"\r\n')]
    assert {'J"1', "J" + ODD, ENGINEERING, "c" + ODD, "re,view"} <= set(quoted)


def test_rational_refuses_a_float_or_a_bool_by_name():
    for value in (0.3, 2.0, True, False):
        with pytest.raises(TypeError, match=re.escape(f"not an exact rational: {value!r}")):
            _rational(value)


@pytest.mark.parametrize("render", [
    round_half_up, rational_str, lambda v: decimal_str(v, 2), lambda v: rational_json(v, 2),
], ids=["round_half_up", "rational_str", "decimal_str", "rational_json"])
def test_rendering_refuses_a_float_or_a_bool(render):
    for value in (2.675, 0.5, True):
        with pytest.raises(TypeError, match="not an exact rational"):
            render(value)


def five_hundred_papers():
    journals = [Journal("jf", {"f": ("fict",)}, {})]
    papers = [Paper(f"p{i:03d}", "jf", 2019, "article") for i in range(500)]
    counts = {p.id: 500 - i for i, p in enumerate(papers)}
    return Corpus([SchemaInfo("f", True)], journals, papers, citation_counts=counts)


@pytest.mark.parametrize("read_share", [
    lambda corpus, top: hcp_selection(corpus, "f", top_percent=top),
    lambda corpus, top: hcp_report(corpus, "f", [], top_percent=top),
    lambda corpus, top: provisional_hcp_ids(corpus, "f", top),
], ids=["hcp_selection", "hcp_report", "provisional_hcp_ids"])
def test_a_share_refuses_a_float_or_a_bool(read_share):
    corpus = five_hundred_papers()
    for top in (0.3, 10.0, True):
        with pytest.raises(TypeError, match="not an exact rational"):
            read_share(corpus, top)


def test_exact_shares_and_values_read_as_before():
    corpus = five_hundred_papers()
    for top, quota in (("0.3", 2), (Fraction(3, 10), 2), (3, 15)):
        (result,), decisions = hcp_selection(corpus, "f", top_percent=top)
        assert (result.top_percent, result.quota, len(decisions)) == (Fraction(top), quota, quota)
        assert hcp_report(corpus, "f", decisions, top_percent=top).rows[0].expected == quota
    assert rational_str(Fraction(3, 10)) == rational_str("0.3") == "3/10"
    assert decimal_str("2.675", 2) == decimal_str(Fraction(2675, 1000), 2) == "2.68"
    assert rational_json(3, 1) == {"rational": "3", "decimal": "3.0"}
    assert round_half_up("0.5") == round_half_up(Fraction(1, 2)) == 1
