"""Synthetic corpora and Monte Carlo experiments.

The generator is deterministic: one config (whose seed is part of it) yields
byte-identical corpora, and each Monte Carlo trial draws from its own stream
seeded by (seed, trial index), so results do not depend on worker layout or
trial order. Streams come from :class:`random.Random` string seeding, which
hashes through SHA-512 and is documented stable across Python versions.

Generated corpora carry explicit citation counts rather than edge lists; the
corpus module accepts those, and nothing in these experiments needs individual
citing papers. ``BIBLIO_THREADS=N`` lets the Monte Carlo drivers use at most
N worker processes, and no more than the CPUs (default 1, serial).
"""
from __future__ import annotations

import logging
import math
import os
import random
from bisect import bisect
from collections import Counter, defaultdict
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import accumulate
from typing import NamedTuple

from .corpus import AuthorCredit, Corpus, Journal, Paper, SchemaInfo, fold_cells
from .errors import ComputationError
from .normalization import CnciConfig, _ratio_sum, global_cnci_of_sums
from .ranking import quartile_partition
from .rounding import _int_text, csv_text, rational_json, round_half_up

logger = logging.getLogger(__name__)

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "a mapping"}


def _typed(value, kind: type, what: str):
    """A config value of one YAML type; an integer is a float, a bool is neither."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not math.isfinite(value))):
        raise ComputationError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _typed_fields(config, kinds: dict[str, type]) -> None:
    """:func:`_typed` on each named field of a frozen config, storing the value it returns."""
    for name, kind in kinds.items():
        object.__setattr__(config, name, _typed(getattr(config, name), kind, name))


def _known_keys(raw: dict, keys: tuple[str, ...], where: str = "") -> None:
    """Reject a mapping key outside ``keys``: a misspelled key is never a default."""
    for key in raw:
        if key not in keys:
            raise ComputationError(f"unknown key {key!r}{where}")


@dataclass(frozen=True)
class SizeDist:
    """Integer size distribution: a fixed value or a uniform inclusive range."""

    kind: str
    value: int = 0
    low: int = 0
    high: int = 0

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform"):
            raise ComputationError(f"unknown size distribution {self.kind!r}")
        for value, what in ((self.value, "fixed size"), (self.low, "uniform bound"),
                            (self.high, "uniform bound")):
            _typed(value, int, what)
        if self.kind == "uniform" and self.low > self.high:
            raise ComputationError("uniform range must have low <= high")
        if min(self.value, self.low) < 0:
            raise ComputationError(f"sizes must be integers >= 0, got {self.to_config()!r}")

    @classmethod
    def fixed(cls, value: int) -> "SizeDist":
        return cls(kind="fixed", value=value)

    @classmethod
    def uniform(cls, low: int, high: int) -> "SizeDist":
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def from_config(cls, raw) -> "SizeDist":
        if isinstance(raw, int) and not isinstance(raw, bool):
            return cls.fixed(raw)
        if not isinstance(raw, dict):
            raise ComputationError(f"unrecognized size distribution {raw!r}")
        _known_keys(raw, ("fixed", "uniform"), " in size spec")
        if len(raw) != 1:
            raise ComputationError("a size spec needs exactly one of fixed and uniform, "
                                   f"got {raw!r}")
        if "fixed" in raw:
            return cls.fixed(raw["fixed"])
        bounds = raw["uniform"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ComputationError(f"uniform needs [LOW, HIGH], got {bounds!r}")
        return cls.uniform(*bounds)

    def to_config(self):
        if self.kind == "fixed":
            return {"fixed": self.value}
        return {"uniform": [self.low, self.high]}

    def draws(self, rng: random.Random, n: int) -> list[int]:
        """``n`` sizes: a fixed spec draws nothing; a uniform one gives exactly what
        ``n`` calls of ``Random.randint(low, high)`` give, by the same rejection of
        ``getrandbits(span.bit_length())`` values at or above the span."""
        if self.kind == "fixed":
            return [self.value] * n
        low, span = self.low, self.high - self.low + 1
        bits, getrandbits = span.bit_length(), rng.getrandbits
        sizes: list[int] = []
        append = sizes.append
        for _ in range(n):
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            append(low + r)
        return sizes

    def _tally(self, rng: random.Random, n: int) -> dict[int, int]:
        """``{size: count}`` of ``n`` draws, equal to ``Counter(self.draws(rng, n))``.

        A draw of at most 8 bits is the top byte of one 32-bit stream word shifted
        right, and ``getrandbits(32 * m)`` is the next ``m`` words, the first least
        significant; so for a span of at most 255 the words are read in bulk and the
        accepted draws kept in order. This may read the stream past the last draw:
        pass only a stream that is discarded afterwards."""
        if self.kind == "fixed":
            return {self.value: n}
        span = self.high - self.low + 1
        if span > 255:
            return Counter(self.draws(rng, n))
        table, rejected = _offsets(span)
        kept = b""
        while len(kept) < n:  # at least half the words are accepted; a short read
            # is continued, since drawing one at a time would have read it all too
            words = 2 * (n - len(kept)) + 64
            top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            kept += top.translate(table, rejected)
        kept = kept[:n]
        return {self.low + r: times for r in range(span) if (times := kept.count(r))}

    def remainder_weights(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exact distribution of size mod 4 under this spec; a fixed spec is the
        range from its value to itself."""
        low, high = (self.value,) * 2 if self.kind == "fixed" else (self.low, self.high)
        return tuple(Fraction(len(range(low + (r - low) % 4, high + 1, 4)), high - low + 1)
                     for r in range(4))


@cache
def _offsets(span: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments for a span of at most 255: the table from a
    word's top byte to its draw, and the top bytes whose draw is at or above the
    span, which are redrawn."""
    shift = 8 - span.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= span))


@dataclass(frozen=True)
class CitationModel:
    """Heavy-tailed nonnegative integer citation counts.

    ``lognormal`` is floor(exp(N(mu, sigma))) + shift and can emit zeros when
    the shift is 0; ``yule`` has support >= 1 + shift, which the closed-corpus
    mean pins rely on (a fully uncited cell degrades the average by design).
    """

    kind: str = "lognormal"
    mu: float = 0.5
    sigma: float = 1.0
    rho: float = 2.0
    shift: int = 0

    def __post_init__(self):
        _typed_fields(self, {"mu": float, "sigma": float, "rho": float, "shift": int})
        if self.kind not in ("lognormal", "yule"):
            raise ComputationError(f"unknown citation model {self.kind!r}")
        if self.kind == "yule" and not self.rho > 0:
            raise ComputationError("yule rho must be positive")
        if self.shift < 0:
            raise ComputationError(f"shift must be >= 0, got {self.shift!r}")

    @classmethod
    def from_config(cls, raw) -> "CitationModel":
        _known_keys(raw, tuple(f.name for f in fields(cls)), " in citation_model")
        return cls(**raw)

    def to_config(self):
        if self.kind == "lognormal":
            return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma, "shift": self.shift}
        return {"kind": "yule", "rho": self.rho, "shift": self.shift}

    def sampler(self, rng: random.Random):
        """One draw on ``rng`` as a function of no arguments: the kind is decided and
        the parameters and stream methods are bound once; each draw makes the same
        calls, in the same order. A draw too large for a float is a :class:`ComputationError`."""
        shift, exp, log = self.shift, math.exp, math.log
        if self.kind == "lognormal":
            mu, sigma, gauss = self.mu, self.sigma, rng.gauss

            def draw() -> int:
                try:
                    return int(exp(gauss(mu, sigma))) + shift
                except (OverflowError, ZeroDivisionError):
                    raise ComputationError(f"lognormal draw with mu {mu} and sigma {sigma} "
                                           "is too large to represent") from None
            return draw

        rho, expovariate, random_ = self.rho, rng.expovariate, rng.random

        def draw() -> int:
            # Yule via its exponential-geometric mixture representation.
            try:
                p = exp(-expovariate(rho))
                u = random_()
                if p >= 1.0:
                    return 1 + shift
                # log(1 - p) is 0.0 once p < 2**-53; falling back to log1p only
                # there leaves every other draw as it was.
                log_q = log(1.0 - p) or math.log1p(-p)
                return 1 + int(log(1.0 - u) / log_q) + shift
            except (OverflowError, ZeroDivisionError):
                raise ComputationError(
                    f"yule draw with rho {rho} is too large to represent") from None
        return draw


@dataclass(frozen=True)
class GenConfig:
    """Everything the corpus generator needs, seed included."""

    seed: int
    num_categories: int
    journals_per_category: SizeDist
    papers_per_journal: SizeDist
    multi_attribution_prob: float = 0.0
    max_categories_per_journal: int = 3
    citation_model: CitationModel = field(default_factory=CitationModel)
    years: tuple[int, ...] = (2020,)
    doc_type_mix: tuple[tuple[str, float], ...] = (("article", 1.0),)
    correlate_volume_with_metric: bool = True
    multi_field_citation_boost: float = 1.0
    schema_name: str = "synthetic"

    def __post_init__(self):
        _typed_fields(self, {
            "seed": int, "num_categories": int, "multi_attribution_prob": float,
            "max_categories_per_journal": int, "correlate_volume_with_metric": bool,
            "multi_field_citation_boost": float, "schema_name": str})
        for year in self.years:
            _typed(year, int, "years")
        if len(set(self.years)) < len(self.years):
            raise ComputationError(f"years {list(self.years)} names a year more than once")
        object.__setattr__(self, "doc_type_mix", tuple(
            (_typed(k, str, "doc_type"), _typed(v, float, f"doc_type_mix {k}"))
            for k, v in self.doc_type_mix))
        if self.num_categories < 1:
            raise ComputationError("need at least one category")
        if not 0.0 <= self.multi_attribution_prob <= 1.0:
            raise ComputationError("multi_attribution_prob must be in [0, 1]")
        if not 1 <= self.max_categories_per_journal <= 3:
            raise ComputationError("max_categories_per_journal must be 1..3")
        if not self.years:
            raise ComputationError("need at least one publication year")
        weights = [w for _, w in self.doc_type_mix]
        if min(weights, default=0) < 0 or not any(weights):
            raise ComputationError("doc_type_mix needs non-negative weights, one positive")
        if not math.isfinite(list(accumulate(weights))[-1]):  # as rng.choices adds them
            raise ComputationError("doc_type_mix weights must have a finite total")
        if self.multi_field_citation_boost < 0:
            raise ComputationError("multi_field_citation_boost must be >= 0, "
                                   f"got {self.multi_field_citation_boost!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "GenConfig":
        _known_keys(raw, tuple(f.name for f in fields(cls)))
        for f in fields(cls):
            if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
                raise ComputationError(f"missing required key {f.name!r}")

        def get(key, kind, default):  # a mapping or list the field is built from
            return _typed(raw.get(key, default), kind, key)

        mix = get("doc_type_mix", dict, {"article": 1.0})
        return cls(**{
            **raw,
            "journals_per_category": SizeDist.from_config(raw["journals_per_category"]),
            "papers_per_journal": SizeDist.from_config(raw["papers_per_journal"]),
            "citation_model": CitationModel.from_config(get("citation_model", dict, {})),
            "years": tuple(get("years", list, [2020])),
            # sorted by the key's text, so a key that is not a string reaches the check
            "doc_type_mix": tuple(sorted(mix.items(), key=lambda item: str(item[0]))),
        })

    def to_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "journals_per_category": self.journals_per_category.to_config(),
            "papers_per_journal": self.papers_per_journal.to_config(),
            "citation_model": self.citation_model.to_config(),
            "years": list(self.years),
            "doc_type_mix": dict(self.doc_type_mix),
        }


def _stream(config: GenConfig, label: str) -> random.Random:
    return random.Random(f"{config.seed}/{label}")


def _draw(config: GenConfig, trial: int | None):
    """Every draw of one corpus, in the order the stream is consumed: journal ids,
    category lists and {year: metric}, then one (journal index, year, doc-type index,
    citations) row per paper, in paper-id order.

    Metrics are ``round(x, 3)`` floats: their shortest repr is monotone, so they
    sort as the ``Fraction`` of that repr does. A doc type is the bisection of
    ``random() * total`` in the cumulative weights, which is ``rng.choices``."""
    rng = _stream(config, "corpus" if trial is None else f"corpus/{trial}")
    cats = [f"cat{i:02d}" for i in range(1, config.num_categories + 1)]
    journal_ids: list[str] = []
    categories: list[list[str]] = []
    homes: dict[str, range] = {}
    for cat, count in zip(cats, config.journals_per_category.draws(rng, len(cats))):
        homes[cat] = range(len(journal_ids), len(journal_ids) + count)
        journal_ids += [f"{cat}-j{j:03d}" for j in range(count)]
        categories += [[cat] for _ in range(count)]
    for cat_list in categories:
        while (
            len(cat_list) < config.max_categories_per_journal
            and len(cat_list) < len(cats)
            and rng.random() < config.multi_attribution_prob
        ):
            foreign = [c for c in cats if c not in cat_list]
            cat_list.append(rng.choice(foreign))
    metrics = [{y: round(rng.lognormvariate(0.0, 0.5), 3) for y in config.years}
               for _ in journal_ids]

    cum_weights = list(accumulate(w for _, w in config.doc_type_mix))
    total, last = cum_weights[-1] + 0.0, len(cum_weights) - 1
    random_, sample = rng.random, config.citation_model.sampler(rng)
    boost = config.multi_field_citation_boost
    papers: list[tuple[int, int, int, int]] = []
    for year in config.years:
        for cat, indexes in homes.items():
            volumes = config.papers_per_journal.draws(rng, len(indexes))
            if config.correlate_volume_with_metric:
                by_metric = sorted(indexes, key=lambda i: (-metrics[i][year], journal_ids[i]))
                paired = dict(zip(by_metric, sorted(volumes, reverse=True)))
            else:
                paired = dict(zip(indexes, volumes))
            for index in indexes:
                boosted = len(categories[index]) >= 2 and boost != 1.0
                for _ in range(paired[index]):
                    doc_type = bisect(cum_weights, random_() * total, 0, last)
                    c = sample()
                    if boosted:
                        try:
                            c = int(round(c * boost))
                        except OverflowError:
                            raise ComputationError(
                                f"a count times multi_field_citation_boost {boost} "
                                "is too large to represent") from None
                    papers.append((index, year, doc_type, c))
    return journal_ids, categories, metrics, papers


def generate_corpus(config: GenConfig, trial: int | None = None) -> Corpus:
    """Build a synthetic corpus; identical (config, trial) gives identical bytes.

    Journals are homed in one category each and may gain up to two foreign
    categories with probability ``multi_attribution_prob`` per extra slot.
    When volume correlation is on, within each home category the journals with
    the higher metric publish the larger drawn volumes.
    """
    journal_ids, categories, metrics, rows = _draw(config, trial)
    schema = config.schema_name
    journals = [
        Journal(id=jid, categories={schema: tuple(cat_list)},
                metric_by_year={y: Fraction(str(m)) for y, m in metric.items()})
        for jid, cat_list, metric in zip(journal_ids, categories, metrics)
    ]
    doc_types = [t for t, _ in config.doc_type_mix]
    papers: list[Paper] = []
    counts: dict[str, int] = {}
    for n, (index, year, doc_type, c) in enumerate(rows):
        pid, jid = f"p{n:06d}", journal_ids[index]
        counts[pid] = c
        papers.append(Paper(id=pid, journal_id=jid, year=year, doc_type=doc_types[doc_type],
                            authors=(AuthorCredit(f"au-{pid}", (f"org-{jid}",)),)))
    info = SchemaInfo(name=schema, single_attribution=config.multi_attribution_prob == 0.0)
    return Corpus(schemas=[info], journals=journals, papers=papers, edges=None,
                  citation_counts=counts)


# -- quartile surplus -----------------------------------------------------------


class SurplusEstimate(NamedTuple):
    """Analytic per-quartile journal counts when every category is cut at floors.

    ``extras`` are the expected surpluses of Q2, Q3, Q4 over Q1 across all
    categories, rounded half-up; ``totals`` are integer per-quartile totals
    obtained from the exact solution by largest-remainder rounding, handing
    leftover units to the smallest exact totals first, so the grand total is
    always preserved.
    """

    num_categories: int
    total_journals: int
    extras: tuple[int, int, int]
    totals: tuple[int, int, int, int]
    exact_totals: tuple[Fraction, Fraction, Fraction, Fraction]
    max_relative_deviation: Fraction


def _expected_extras(
    num_categories: int, weights: tuple[Fraction, Fraction, Fraction, Fraction]
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact expected surpluses of Q2, Q3, Q4 over Q1 across the categories, given
    P(size mod 4 = r). A size's surpluses depend only on its remainder, so the
    partition of 4 + r stands for every size of remainder r."""
    counts = [quartile_partition(4 + r).counts for r in range(4)]
    return tuple(
        Fraction(num_categories) * sum(w * (c[q] - c[0]) for w, c in zip(weights, counts))
        for q in (1, 2, 3)
    )


def surplus_analytic(
    num_categories: int,
    total_journals: int,
    remainder_weights: tuple[Fraction, Fraction, Fraction, Fraction] | None = None,
) -> SurplusEstimate:
    """Expected quartile imbalance from floor cuts alone.

    With remainders uniform mod 4 the expected per-category extras over Q1 are
    (1/2, 1/4, 3/4) for (Q2, Q3, Q4); pass explicit remainder weights for a
    non-uniform size distribution.
    """
    if num_categories < 1 or total_journals < num_categories:
        raise ComputationError("need >= 1 category and >= 1 journal per category")
    if remainder_weights is None:
        remainder_weights = (Fraction(1, 4),) * 4
    if sum(remainder_weights) != 1:
        raise ComputationError("remainder weights must sum to 1")
    extras = tuple(map(round_half_up, _expected_extras(num_categories, remainder_weights)))
    q1 = Fraction(total_journals - sum(extras), 4)
    if q1 < 0:
        raise ComputationError("too few journals for the floor-cut surplus model")
    exact = (q1, q1 + extras[0], q1 + extras[1], q1 + extras[2])
    floors = [int(x) for x in exact]
    leftover = total_journals - sum(floors)
    order = sorted(range(4), key=lambda i: (exact[i], i))
    totals = list(floors)
    for i in order[:leftover]:
        totals[i] += 1
    mean = Fraction(total_journals, 4)
    deviation = max(abs(Fraction(t) - mean) for t in totals) / mean
    return SurplusEstimate(
        num_categories=num_categories,
        total_journals=total_journals,
        extras=extras,
        totals=tuple(totals),
        exact_totals=exact,
        max_relative_deviation=deviation,
    )


def _run_trials(row_of, config: GenConfig, trials: int, workers: int | None) -> list:
    """``row_of(config, t)`` for every trial, in trial order; split into one
    contiguous chunk per worker process when there are enough trials. Workers
    come from ``BIBLIO_THREADS`` unless given, and never outnumber the CPUs."""
    if trials < 1:
        raise ComputationError("need at least one trial")
    if workers is None:
        threads = os.environ.get("BIBLIO_THREADS", "")
        try:
            workers = _int_text(threads.strip()) if threads.strip() else 1
        except ValueError:
            logger.warning("BIBLIO_THREADS=%r is not an integer; running trials serially",
                           threads)
            workers = 1
    workers = max(1, min(workers, os.cpu_count() or 1))
    if workers < 2 or trials < 2 * workers:
        return [row_of(config, t) for t in range(trials)]
    # Imported here: only runs with two or more workers need it, and it slows start-up.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(row_of, config), range(trials),
                             chunksize=-(-trials // workers)))


def _surplus_row(config: GenConfig, t: int) -> tuple[int, int, int, int]:
    """Per-quartile journal totals of trial ``t``. Only how many categories drew
    each size matters, so the sizes are tallied from the trial's stream, which is
    then discarded; a size's partition is cached, and an empty category (size 0)
    places no journal."""
    sizes = config.journals_per_category._tally(
        _stream(config, f"surplus/{t}"), config.num_categories)
    sizes.pop(0, None)
    q1 = q2 = q3 = q4 = 0
    for size, times in sizes.items():
        c1, c2, c3, c4 = _partition_counts(size)
        q1, q2, q3, q4 = q1 + times * c1, q2 + times * c2, q3 + times * c3, q4 + times * c4
    return q1, q2, q3, q4


@lru_cache(maxsize=256)  # every size of a span of at most 255
def _partition_counts(size: int) -> tuple[int, int, int, int]:
    return quartile_partition(size).counts


def _mean_se(values: list[int]) -> tuple[Fraction, float | None]:
    """Exact mean, and the standard error from the integer sums of v and v^2."""
    n = len(values)
    total = sum(values)
    mean = Fraction(total, n)
    if n < 2:
        return mean, None
    var = Fraction(n * sum(v * v for v in values) - total * total, n * (n - 1))
    return mean, math.sqrt(float(var) / n)


class SurplusMonteCarlo(NamedTuple):
    trials: int
    analytic_extras: tuple[int, int, int]
    mean_totals: tuple[Fraction, Fraction, Fraction, Fraction]
    se_totals: tuple[float | None, ...]
    mean_extras: tuple[Fraction, Fraction, Fraction]
    se_extras: tuple[float | None, ...]
    per_trial_totals: tuple[tuple[int, int, int, int], ...]
    flagged: tuple[str, ...]  # extras whose exact expectation fell outside mean +- 3 SE

    @property
    def agrees(self) -> bool:
        return not self.flagged

    def to_json_dict(self) -> dict:
        def se(values):
            return [None if s is None else f"{s:.6g}" for s in values]

        return {
            "trials": self.trials,
            "analytic_extras": list(self.analytic_extras),
            "mean_extras": [rational_json(m, 3) for m in self.mean_extras],
            "se_extras": se(self.se_extras),
            "mean_totals": [rational_json(m, 3) for m in self.mean_totals],
            "se_totals": se(self.se_totals),
            "flagged": list(self.flagged),
            "agrees": self.agrees,
        }

    def to_csv_text(self) -> str:
        """``trials.csv``: each trial's per-quartile journal totals."""
        return csv_text(("trial", "q1", "q2", "q3", "q4"),
                        [(t, *totals) for t, totals in enumerate(self.per_trial_totals)])


def monte_carlo_surplus(
    config: GenConfig, trials: int, workers: int | None = None
) -> SurplusMonteCarlo:
    """Sample category sizes per trial and accumulate quartile totals.

    The expectation uses the exact remainder distribution of the configured
    size spec, so fixed multiples of four really do predict zero extras. A
    quartile's surplus is flagged when its exact expectation falls outside the
    Monte Carlo mean plus or minus three standard errors (for a zero-variance
    run, when it differs at all); ``analytic_extras`` shows it rounded half-up.
    """
    rows = _run_trials(_surplus_row, config, trials, workers)

    expected = _expected_extras(
        config.num_categories, config.journals_per_category.remainder_weights()
    )
    totals_stats = [_mean_se([r[q] for r in rows]) for q in range(4)]
    extras_rows = [(r[1] - r[0], r[2] - r[0], r[3] - r[0]) for r in rows]
    extras_stats = [_mean_se([r[i] for r in extras_rows]) for i in range(3)]
    flagged = []
    for i, label in enumerate(("Q2", "Q3", "Q4")):
        mean, se = extras_stats[i]
        if se is None or se == 0.0:
            if mean != expected[i] and trials > 1:
                flagged.append(label)
        elif abs(float(mean) - expected[i]) > 3 * se:
            flagged.append(label)
    return SurplusMonteCarlo(
        trials=trials,
        analytic_extras=tuple(map(round_half_up, expected)),
        mean_totals=tuple(s[0] for s in totals_stats),
        se_totals=tuple(s[1] for s in totals_stats),
        mean_extras=tuple(s[0] for s in extras_stats),
        se_extras=tuple(s[1] for s in extras_stats),
        per_trial_totals=tuple(rows),
        flagged=tuple(flagged),
    )


# -- global CNCI across counting regimes ------------------------------------------


REGIMES: dict[str, CnciConfig] = {  # in this order, so the first regime's error wins
    "whole_aor": CnciConfig("whole", "aor", False),
    "fractional_aor": CnciConfig("fractional", "aor", False),
    "whole_roa": CnciConfig("whole", "roa", False),
    "whole_roa_split": CnciConfig("whole", "roa", True),
    "fractional_roa": CnciConfig("fractional", "roa", False),
}

# Regimes the closed-corpus theorem pins to exactly 1 (when every cell holds a
# cited paper); violations are counted, never silently absorbed.
PINNED_REGIMES = ("fractional_aor", "whole_roa_split")


class RegimeStats(NamedTuple):
    minimum: Fraction
    mean: Fraction
    maximum: Fraction
    pinned: bool
    violations: int


class CnciMonteCarlo(NamedTuple):
    trials: int
    regimes: dict[str, RegimeStats]

    @property
    def all_pins_hold(self) -> bool:
        return all(r.violations == 0 for r in self.regimes.values() if r.pinned)

    def to_json_dict(self) -> dict:
        regimes = {
            name: {"min": rational_json(r.minimum, 4), "mean": rational_json(r.mean, 4),
                   "max": rational_json(r.maximum, 4), "pinned": r.pinned,
                   "violations": r.violations}
            for name, r in sorted(self.regimes.items())
        }
        return {"trials": self.trials, "regimes": regimes, "all_pins_hold": self.all_pins_hold}


def _cnci_row(config: GenConfig, t: int) -> dict[str, Fraction]:
    """Global CNCI of trial ``t``'s corpus under every regime, from its drawn rows
    summed per (journal, year, doc type) and then per cell; no ``Corpus`` is built."""
    doc_types = [name for name, _ in config.doc_type_mix]
    _, categories, _, papers = _draw(config, t)
    groups: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
    for index, year, doc_type, c in papers:
        group = groups[index, year, doc_types[doc_type]]
        group[0] += 1
        group[1] += c
    sums = fold_cells(groups, categories.__getitem__)
    return dict(zip(REGIMES, global_cnci_of_sums(sums, REGIMES.values())))


def monte_carlo_global_cnci(
    config: GenConfig, trials: int, workers: int | None = None
) -> CnciMonteCarlo:
    """Global CNCI of freshly generated corpora under every counting regime."""
    rows = _run_trials(_cnci_row, config, trials, workers)

    regimes = {}
    for name in REGIMES:
        values = [row[name] for row in rows]
        pinned = name in PINNED_REGIMES
        num, den = _ratio_sum((v.numerator, v.denominator) for v in values)
        regimes[name] = RegimeStats(
            minimum=min(values),
            mean=Fraction(num, den * len(values)),
            maximum=max(values),
            pinned=pinned,
            violations=sum(1 for v in values if v != 1) if pinned else 0,
        )
    return CnciMonteCarlo(trials=trials, regimes=regimes)
