"""Independent brute-force reference implementations.

These deliberately avoid the library's code paths: ranks come from pairwise
comparison counts, rounding goes through the decimal module, percentiles use
the midpoint-of-worse-items counting argument, and quartile surpluses come
from exact enumeration of the size distribution. Baselines, per-paper and
set-level CNCI are the per-paper definitions: one exact ``Fraction`` update
per paper and field, against which the package's per-cell integer sums and
its one-``Fraction`` paper CNCI are checked.
The Monte Carlo trial kernels keep their one-call-per-draw forms: the
corpus generator in its first form (a ``randint`` per drawn size, a
``choices`` per doc type, a ``Fraction`` metric per journal and year, and a
``Paper`` per draw, with each citation draw testing its model's kind), a
quartile partition per drawn category size, a
``Fraction`` per sampled value, and one full ``global_cnci`` per counting regime
on the generated ``Corpus``. Highly-cited selection is done paper
by paper: each cell is sorted for its threshold and again for its decisions,
every paper's count is looked up by id, and quota mode filters the whole
cell for its above and borderline blocks. Three former package definitions
stay here as well: the provisional HCP set as the ids of an inclusive
``hcp_run``, the quota as ``round_half_up`` of the ``Fraction``
``share * n / 100``, and the quartile distribution as one ``rank_category``
per category, each scanning every journal, tallied afterwards.
Tests freeze their outputs or compare them against the package directly.
"""
from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction

from biblio.corpus import AuthorCredit, CellKey, Corpus, Journal, Paper, SchemaInfo
from biblio.errors import ComputationError, EmptyInputError, ZeroBaselineError
from biblio import excellence
from biblio.excellence import (
    CHRONOLOGY,
    CITING_EXCELLENCE,
    FULL,
    PARTIAL,
    TRAJECTORY,
    HcpDecision,
    ThresholdResult,
    tiebreak_chronology,
    tiebreak_citing_excellence,
    tiebreak_trajectory,
)
from biblio.normalization import FRACTIONAL, WHOLE, BaselineCell, BaselineTable
from biblio.ranking import (
    DistributionReport, Quartile, boundary_ties, quartile_partition, rank_category,
)
from biblio.rounding import round_half_up
from biblio.synthesis import REGIMES


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        value = call()
    except Exception as exc:  # the comparison covers the exception itself
        return type(exc), str(exc)
    return value


def competition_ranks(values) -> list[int]:
    """Rank of each value in input order: one plus the number of strictly
    better values."""
    return [1 + sum(1 for other in values if other > v) for v in values]


def positional_quartiles(n: int) -> list[int]:
    """Quartile of each of n descending positions, bucket b covering
    positions floor((b-1)n/4) exclusive through floor(bn/4) inclusive."""
    bounds = [b * n // 4 for b in range(5)]
    out = []
    for pos in range(1, n + 1):
        for b in range(1, 5):
            if pos <= bounds[b]:
                out.append(b)
                break
    return out


def quartiles_with_ties(metrics) -> list[int]:
    """Quartile per input item: positional quartile of the first (best)
    position of the item's tie block."""
    n = len(metrics)
    positional = positional_quartiles(n)
    ranks = competition_ranks(metrics)
    return [positional[r - 1] for r in ranks]


def midpoint_percentile(metrics, index) -> Fraction:
    """Share of the list at or below the item, counting the item itself as
    half. Matches the rank-based formula whenever metrics are distinct."""
    me = metrics[index]
    worse = sum(1 for other in metrics if other < me)
    return Fraction(100) * (Fraction(worse) + Fraction(1, 2)) / len(metrics)


def quartile_distribution(corpus, schema, year, level="journals", mode="per_category",
                          min_category_size=0) -> DistributionReport:
    """The quartile report composed from ``rank_category``: every category any
    journal holds is ranked on its own, and the rankings kept are then tallied."""
    if level not in ("journals", "papers"):
        raise ComputationError(f"unknown level {level!r}")
    if mode not in ("per_category", "database_best"):
        raise ComputationError(f"unknown mode {mode!r}")
    rankings, skipped, excluded = {}, [], set()
    held = {cat for j in corpus.journals.values() for cat in j.categories.get(schema, ())}
    for cat in sorted(held):
        try:
            ranking = rank_category(corpus, schema, cat, year)
        except ComputationError:
            # Unrankable: every member lacks a metric for the year, and is excluded.
            excluded.update(j.id for j in corpus.journals.values()
                            if cat in j.categories.get(schema, ()))
            skipped.append(cat)
            continue
        excluded.update(ranking.excluded)
        if ranking.n < min_category_size:
            skipped.append(cat)
            continue
        rankings[cat] = ranking
    if not rankings:
        raise ComputationError(f"no rankable category under {schema!r} for {year}")

    papers_by_journal = {}
    for p in corpus.papers.values():
        if p.year == year:
            papers_by_journal[p.journal_id] = papers_by_journal.get(p.journal_id, 0) + 1

    def weight(journal_id):
        return papers_by_journal.get(journal_id, 0) if level == "papers" else 1

    counts = {q: 0 for q in Quartile}
    ties, best = [], {}
    for cat, ranking in sorted(rankings.items()):
        for e in ranking.entries:
            if mode == "per_category":
                counts[e.quartile] += weight(e.journal_id)
            elif e.journal_id not in best or e.quartile < best[e.journal_id]:
                best[e.journal_id] = e.quartile
        ties.extend(boundary_ties(ranking))
    for jid, label in best.items():
        counts[label] += weight(jid)
    return DistributionReport(schema, year, level, mode, counts, tuple(sorted(excluded)),
                              tuple(sorted(skipped)), tuple(ties))


def decimal_half_up(value: Fraction) -> int:
    """Round to the nearest integer, halves away from zero, via decimal."""
    d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return int(d.quantize(decimal.Decimal(1), rounding=decimal.ROUND_HALF_UP))


def decimal_quantized(value: Fraction, places: int) -> str:
    """Fixed-point text of ``value`` rounded half-up by ``Decimal.quantize``.

    The quotient carries 200 significant digits, far more than a half-up cut
    at a few places can need for the rationals the tests draw. A result that
    rounds to zero prints unsigned ("0.00", not "-0.00").
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        exact = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        q = exact.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_UP)
    return format(q.copy_abs() if q.is_zero() else q, "f")


def quota_threshold(counts, percent: Fraction):
    """(quota, threshold, above, ties) for the top ``percent`` of counts."""
    ordered = sorted(counts, reverse=True)
    quota = decimal_half_up(Fraction(percent) * len(ordered) / 100)
    threshold = ordered[quota - 1]
    above = sum(1 for c in ordered if c > threshold)
    ties = sum(1 for c in ordered if c == threshold)
    return quota, threshold, above, ties


def ws_weights(counts, percent: Fraction):
    """Per-paper selection weights: 1 above the threshold, the solved
    fractional weight on the tie block, 0 below; weights sum to the quota."""
    quota, threshold, above, ties = quota_threshold(counts, percent)
    tie_weight = Fraction(quota - above, ties)
    return [
        Fraction(1) if c > threshold else (tie_weight if c == threshold else Fraction(0))
        for c in counts
    ]


def uniform_remainder_weights(low: int, high: int):
    """P(size mod 4 = r) for a uniform integer size, by enumeration."""
    sizes = range(low, high + 1)
    return tuple(
        Fraction(sum(1 for n in sizes if n % 4 == r), len(sizes)) for r in range(4)
    )


def exact_extras(num_categories: int, weights):
    """Exact expected Q2/Q3/Q4 extras over Q1 across the categories, from which
    quartiles receive a unit at each remainder (r=1 feeds Q4, r=2 feeds Q2 and
    Q4, r=3 feeds Q2, Q3 and Q4)."""
    gains = {0: (), 1: (3,), 2: (1, 3), 3: (1, 2, 3)}
    expected = [Fraction(0)] * 4
    for r, w in enumerate(weights):
        for q in gains[r]:
            expected[q] += w
    return tuple(num_categories * e for e in expected[1:])


def surplus_by_enumeration(num_categories: int, total_journals: int, weights=None):
    """Expected Q2/Q3/Q4 extras, rounded half-up, and integer per-quartile totals.

    Extras are :func:`exact_extras`; totals split the remaining journals evenly
    and repair the floor loss by giving spare units to the smallest exact totals.
    """
    if weights is None:
        weights = (Fraction(1, 4),) * 4
    extras = tuple(decimal_half_up(e) for e in exact_extras(num_categories, weights))
    base = Fraction(total_journals - sum(extras), 4)
    exact = [base, base + extras[0], base + extras[1], base + extras[2]]
    totals = [int(x) for x in exact]
    spare = total_journals - sum(totals)
    for i in sorted(range(4), key=lambda i: (exact[i], i))[:spare]:
        totals[i] += 1
    return extras, tuple(totals)


# -- field-normalized impact, paper by paper ------------------------------------


def compute_baselines(corpus, schema, counting=WHOLE, *, split_citations=False, papers=None):
    """Expected citation rate per cell, accumulated one paper at a time."""
    if counting not in (WHOLE, FRACTIONAL):
        raise ComputationError(f"unknown counting scheme {counting!r}")
    if split_citations and counting != WHOLE:
        raise ComputationError("split_citations presumes whole paper counting")
    pool = corpus.papers.values() if papers is None else papers
    sums: dict[CellKey, list[Fraction]] = {}
    sizes: dict[CellKey, int] = {}
    for p in pool:
        fields = corpus.categories_of(p.journal_id, schema)
        if not fields:
            continue
        k = len(fields)
        c = corpus.citation_counts[p.id]
        cite_mass = Fraction(c, k) if (counting == FRACTIONAL or split_citations) else Fraction(c)
        paper_mass = Fraction(1, k) if counting == FRACTIONAL else Fraction(1)
        for f in fields:
            key = CellKey(f, p.year, p.doc_type)
            cell = sums.setdefault(key, [Fraction(0), Fraction(0)])
            cell[0] += cite_mass
            cell[1] += paper_mass
            sizes[key] = sizes.get(key, 0) + 1
    cells = {
        key: BaselineCell(expected=cite / weight, weight=weight, papers=sizes[key])
        for key, (cite, weight) in sorted(sums.items())
        if weight > 0
    }
    return BaselineTable(
        schema=schema, counting=counting, split_citations=split_citations, cells=cells
    )


def cnci_paper(corpus, paper, baselines) -> Fraction:
    """Mean of c/e over the paper's cells, one ``Fraction`` update per field; an
    uncited paper over a zero baseline adds 0, a cited one is an error."""
    fields = corpus.categories_of(paper.journal_id, baselines.schema)
    if not fields:
        raise ComputationError(
            f"paper {paper.id!r} has no categories under {baselines.schema!r}"
        )
    c = corpus.citation_counts[paper.id]
    total = Fraction(0)
    for f in fields:
        e = baselines.expected(CellKey(f, paper.year, paper.doc_type))
        if e == 0 and c > 0:
            raise ZeroBaselineError(
                f"paper {paper.id!r} has {c} citations in a zero-baseline cell"
            )
        if e:
            total += Fraction(c) / e
    return total / len(fields)


def cnci_set(corpus, papers, baselines) -> Fraction:
    """Average-of-ratios: the unweighted mean of every paper's CNCI."""
    values = [cnci_paper(corpus, p, baselines) for p in papers]
    if not values:
        raise EmptyInputError("cannot average CNCI over an empty paper set")
    return sum(values, Fraction(0)) / len(values)


def nci_ratio_of_averages(corpus, papers, baselines) -> Fraction:
    """Ratio-of-averages: observed over expected mass, summed paper by paper."""
    split = baselines.split_citations
    fractional = baselines.counting == FRACTIONAL
    observed = Fraction(0)
    expected = Fraction(0)
    empty = True
    for p in papers:
        empty = False
        fields = corpus.categories_of(p.journal_id, baselines.schema)
        if not fields:
            raise ComputationError(
                f"paper {p.id!r} has no categories under {baselines.schema!r}"
            )
        k = len(fields)
        c = corpus.citation_counts[p.id]
        cite_mass = Fraction(c, k) if (split or fractional) else Fraction(c)
        paper_mass = Fraction(1, k) if fractional else Fraction(1)
        for f in fields:
            observed += cite_mass
            expected += paper_mass * baselines.expected(CellKey(f, p.year, p.doc_type))
    if empty:
        raise EmptyInputError("cannot aggregate an empty paper set")
    if expected == 0:
        raise ZeroBaselineError("total expected citation mass is zero")
    return observed / expected


def global_cnci(corpus, schema, config, years=None, doc_types=None) -> Fraction:
    """One regime over a year/doc-type slice, against full-corpus baselines."""
    papers = [
        p
        for p in corpus.papers.values()
        if corpus.categories_of(p.journal_id, schema)
        and (years is None or p.year in years)
        and (doc_types is None or p.doc_type in doc_types)
    ]
    baselines = compute_baselines(
        corpus, schema, config.counting, split_citations=config.split_citations
    )
    aggregate = cnci_set if config.aggregation == "aor" else nci_ratio_of_averages
    return aggregate(corpus, papers, baselines)


def relative_cnci(corpus, subunit, reference, schema, counting=WHOLE) -> Fraction:
    """Average-of-ratios over the subunit against the reference's own baselines."""
    subunit, reference = list(subunit), list(reference)
    if not subunit or not reference:
        raise EmptyInputError("subunit and reference sets must be non-empty")
    baselines = compute_baselines(corpus, schema, counting, papers=reference)
    return cnci_set(corpus, subunit, baselines)


# -- Monte Carlo trials, one call per draw ---------------------------------------


def size(spec, rng) -> int:
    """One draw of a size spec: ``randint`` over a uniform range, nothing for a fixed one."""
    return spec.value if spec.kind == "fixed" else rng.randint(spec.low, spec.high)


def citation_draw(model, rng) -> int:
    """One draw of a ``CitationModel``, with the kind tested and every parameter
    read on each call: the package's draw before its sampler bound them once."""
    try:
        if model.kind == "lognormal":
            return int(math.exp(rng.gauss(model.mu, model.sigma))) + model.shift
        w = rng.expovariate(model.rho)
        p = math.exp(-w)
        u = rng.random()
        if p >= 1.0:
            return 1 + model.shift
        log_q = math.log(1.0 - p) or math.log1p(-p)
        return 1 + int(math.log(1.0 - u) / log_q) + model.shift
    except (OverflowError, ZeroDivisionError):
        params = (f"rho {model.rho}" if model.kind == "yule"
                  else f"mu {model.mu} and sigma {model.sigma}")
        raise ComputationError(
            f"{model.kind} draw with {params} is too large to represent") from None


def generate_corpus(config, trial=None) -> Corpus:
    """The synthetic corpus of (config, trial), drawn one call at a time: a
    ``randint`` per size, a ``choices`` per doc type and a ``Fraction`` per metric."""
    rng = random.Random(f"{config.seed}/" + ("corpus" if trial is None else f"corpus/{trial}"))
    cats = [f"cat{i:02d}" for i in range(1, config.num_categories + 1)]
    schema = config.schema_name

    journals: list[Journal] = []
    homes: dict[str, list[int]] = {c: [] for c in cats}
    memberships: list[list[str]] = []
    for cat in cats:
        for j in range(size(config.journals_per_category, rng)):
            homes[cat].append(len(journals))
            memberships.append([cat])
            journals.append(None)  # placeholder; filled after categories settle
    for index, cat_list in enumerate(memberships):
        while (
            len(cat_list) < config.max_categories_per_journal
            and len(cat_list) < len(cats)
            and rng.random() < config.multi_attribution_prob
        ):
            foreign = [c for c in cats if c not in cat_list]
            cat_list.append(rng.choice(foreign))

    metrics: list[dict[int, Fraction]] = []
    for index, cat_list in enumerate(memberships):
        metrics.append(
            {y: Fraction(str(round(rng.lognormvariate(0.0, 0.5), 3))) for y in config.years}
        )
    for index, cat_list in enumerate(memberships):
        home = cat_list[0]
        jid = f"{home}-j{homes[home].index(index):03d}"
        journals[index] = Journal(
            id=jid, categories={schema: tuple(cat_list)}, metric_by_year=metrics[index]
        )

    papers: list[Paper] = []
    counts: dict[str, int] = {}
    doc_types = [t for t, _ in config.doc_type_mix]
    weights = [w for _, w in config.doc_type_mix]
    boost = config.multi_field_citation_boost
    for year in config.years:
        for cat in cats:
            indexes = homes[cat]
            volumes = [size(config.papers_per_journal, rng) for _ in indexes]
            if config.correlate_volume_with_metric:
                by_metric = sorted(
                    indexes, key=lambda i: (-metrics[i][year], journals[i].id)
                )
                paired = dict(zip(by_metric, sorted(volumes, reverse=True)))
            else:
                paired = dict(zip(indexes, volumes))
            for index in indexes:
                journal = journals[index]
                k = len(journal.categories[schema])
                for _ in range(paired[index]):
                    pid = f"p{len(papers):06d}"
                    doc_type = rng.choices(doc_types, weights=weights)[0]
                    c = citation_draw(config.citation_model, rng)
                    if k >= 2 and boost != 1.0:
                        try:
                            c = int(round(c * boost))
                        except OverflowError:
                            raise ComputationError(
                                f"a count times multi_field_citation_boost {boost} "
                                "is too large to represent") from None
                    counts[pid] = c
                    papers.append(
                        Paper(
                            id=pid,
                            journal_id=journal.id,
                            year=year,
                            doc_type=doc_type,
                            authors=(
                                AuthorCredit(f"au-{pid}", (f"org-{journal.id}",)),
                            ),
                        )
                    )

    info = SchemaInfo(name=schema, single_attribution=config.multi_attribution_prob == 0.0)
    return Corpus(
        schemas=[info],
        journals=journals,
        papers=papers,
        edges=None,
        citation_counts=counts,
    )


def surplus_rows(config, start, stop):
    """Per-quartile journal totals of trials start..stop-1: one partition per
    drawn category size, from the trial's own stream; an empty category adds
    nothing."""
    rows = []
    for t in range(start, stop):
        rng = random.Random(f"{config.seed}/surplus/{t}")
        totals = [0, 0, 0, 0]
        for _ in range(config.num_categories):
            drawn = size(config.journals_per_category, rng)
            if drawn == 0:
                continue
            counts = quartile_partition(drawn).counts
            for q in range(4):
                totals[q] += counts[q]
        rows.append(tuple(totals))
    return rows


def mean_se(values):
    """Mean and standard error, the sample variance summed value by value."""
    n = len(values)
    mean = Fraction(sum(values), n)
    if n < 2:
        return mean, None
    var = sum((Fraction(v) - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(float(var) / n)


def cnci_rows(config, start, stop):
    """Global CNCI of each trial's corpus, one full oracle run per regime."""
    rows = []
    for t in range(start, stop):
        corpus = generate_corpus(config, trial=t)
        rows.append({name: global_cnci(corpus, config.schema_name, regime)
                     for name, regime in REGIMES.items()})
    return rows


# -- highly-cited selection, paper by paper ----------------------------------------


def compute_threshold(corpus, cell, papers, top_percent=1) -> ThresholdResult:
    """Quota, threshold and borderline structure, counting over the whole cell."""
    if not papers:
        raise EmptyInputError(f"cell {cell} is empty")
    share = Fraction(top_percent)
    if not 0 < share <= 100:
        raise ComputationError(f"top_percent must be in (0, 100], got {share}")
    quota = decimal_half_up(share * len(papers) / 100)
    if quota == 0:
        return ThresholdResult(cell, share, 0, None, 0, 0)
    counts = sorted((corpus.citation_counts[p.id] for p in papers), reverse=True)
    threshold = counts[quota - 1]
    above = sum(1 for c in counts if c > threshold)
    ties = sum(1 for c in counts if c == threshold)
    return ThresholdResult(cell, share, quota, threshold, above, ties)


def _low_threshold(result, esi_low_threshold) -> bool:
    return esi_low_threshold and result.threshold is not None and result.threshold <= 2


def classify(corpus, result, papers, method, esi_low_threshold):
    """One decision per paper at or above the threshold, tested one by one."""
    if method not in ("inclusive", "exclusive", "fractional_ws"):
        raise ComputationError(f"unknown classification method {method!r}")
    if result.quota == 0 or _low_threshold(result, esi_low_threshold):
        return []
    threshold = result.threshold
    tie_weight = Fraction(result.quota - result.above_count, result.tie_count)
    decisions = []
    for p in sorted(papers, key=lambda p: (-corpus.citation_counts[p.id], p.id)):
        c = corpus.citation_counts[p.id]
        if c > threshold or (c == threshold and method == "inclusive"):
            decisions.append(HcpDecision(p.id, result.cell, FULL, Fraction(1), method))
        elif c == threshold and method == "fractional_ws":
            decisions.append(HcpDecision(p.id, result.cell, PARTIAL, tie_weight, method))
    return decisions


def _run_method(corpus, method, papers, provisional_hcp):
    if method == CHRONOLOGY:
        return tiebreak_chronology(papers)
    if method == TRAJECTORY:
        return tiebreak_trajectory(corpus, papers)
    assert method == CITING_EXCELLENCE
    if provisional_hcp is None:
        raise ComputationError("the citing-excellence tie-break needs a provisional HCP set")
    return tiebreak_citing_excellence(corpus, papers, provisional_hcp)


def select_quota(corpus, result, papers, chain, provisional_hcp=None):
    """Above and borderline blocks filtered from the whole cell, the borderline
    block resolved down the chain, every decision re-sorted at the end."""
    if result.quota < 1:
        raise ComputationError(f"cell {result.cell} has quota 0; nothing to select")
    by_id = {p.id: p for p in papers}
    threshold = result.threshold
    above = [p for p in papers if corpus.citation_counts[p.id] > threshold]
    borderline = sorted(
        (p for p in papers if corpus.citation_counts[p.id] == threshold), key=lambda p: p.id
    )
    decisions = [HcpDecision(p.id, result.cell, FULL, Fraction(1), "quota") for p in above]

    def resolve(group, need, methods, steps):
        def trace(p, last_step=None):
            inherited = [dict(s, evidence=s["evidence"].get(p.id, "")) for s in steps]
            return p.id, inherited + ([last_step] if last_step else [])

        if need <= 0:
            return []
        if len(group) <= need:
            return [trace(p) for p in sorted(group, key=lambda p: p.id)]
        if not methods:
            ordered = sorted(group, key=lambda p: p.id)
            return [trace(p, {"method": "id_order", "evidence": p.id, "tied": False,
                              "chain_exhausted": True}) for p in ordered[:need]]
        ordering = _run_method(corpus, methods[0], group, provisional_hcp)
        chosen = []
        for ids in ordering.groups:
            if need == 0:
                break
            members = [by_id[i] for i in ids]
            if len(ids) <= need:
                chosen.extend(
                    trace(p, {"method": ordering.method,
                              "evidence": ordering.evidence[p.id], "tied": False})
                    for p in sorted(members, key=lambda p: p.id)
                )
                need -= len(ids)
            else:
                step = {"method": ordering.method, "evidence": ordering.evidence,
                        "tied": True}
                chosen.extend(resolve(members, need, methods[1:], steps + [step]))
                need = 0
        return chosen

    for pid, steps in resolve(borderline, result.quota - len(above), list(chain), []):
        decisions.append(HcpDecision(pid, result.cell, FULL, Fraction(1), "quota",
                                     trace=tuple(steps) if steps else None))
    decisions.sort(key=lambda d: (-corpus.citation_counts[d.paper_id], d.paper_id))
    return decisions


def provisional_hcp_ids(corpus, schema, top_percent=1, esi_low_threshold=True):
    """Every paper an inclusive pass over all cells selects."""
    selected = set()
    for cell, papers in corpus.cells(schema).items():
        result = compute_threshold(corpus, cell, papers, top_percent)
        for d in classify(corpus, result, papers, "inclusive", esi_low_threshold):
            selected.add(d.paper_id)
    return frozenset(selected)


def hcp_run(corpus, schema, *, top_percent=1, method="inclusive", esi_low_threshold=True,
            tiebreak_chain=(), years=None, doc_types=None):
    """Threshold, then classification or quota selection, cell by cell."""
    if method not in ("inclusive", "exclusive", "fractional_ws", "quota"):
        raise ComputationError(f"unknown classification method {method!r}")
    if method == "quota" and not tiebreak_chain:
        raise ComputationError("quota selection needs a tie-break chain")
    provisional = None
    if method == "quota" and CITING_EXCELLENCE in tiebreak_chain:
        provisional = provisional_hcp_ids(corpus, schema, top_percent, esi_low_threshold)
    decisions = []
    for cell, papers in corpus.cells(schema, years, doc_types).items():
        result = compute_threshold(corpus, cell, papers, top_percent)
        if result.quota == 0 or _low_threshold(result, esi_low_threshold):
            continue
        if method == "quota":
            decisions.extend(select_quota(corpus, result, papers, tiebreak_chain, provisional))
        else:
            decisions.extend(classify(corpus, result, papers, method, esi_low_threshold))
    return decisions


# -- former package definitions ------------------------------------------------------


def rational_quota(top_percent, n: int) -> int:
    """The quota of a cell of ``n`` papers, rounded from its exact ``Fraction``."""
    return round_half_up(Fraction(top_percent) * n / 100)


def provisional_from_hcp_run(corpus, schema, top_percent=1, esi_low_threshold=True):
    """The provisional HCP set as the ids of the package's inclusive ``hcp_run``."""
    decisions = excellence.hcp_run(
        corpus, schema, top_percent=top_percent, esi_low_threshold=esi_low_threshold
    )
    return frozenset(d.paper_id for d in decisions)
