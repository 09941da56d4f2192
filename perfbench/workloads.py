"""The four benchmark workloads, each measured in a process of its own.

    python3 perfbench/workloads.py SPEC.json RESULT.json

``run.py`` writes SPEC (workload, seed, seconds, trace flag, sizes and input
files) and reads RESULT. Every workload is a closed loop: one operation at a
time, the next one only after the previous one returned. A pass is the
workload's fixed list of operations; the run repeats passes until the
measuring time is used up. Each operation's outputs are hashed and checked
against the first pass, against golden digests where they apply, and against
invariants that hold for any seed. A failed check or an exception counts as
one failed operation and never stops the run.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing

SCHEMA = "wos"
ENTITY = "org-0000"
REGIMES = (
    ("whole_aor", "whole", "aor", False),
    ("fractional_aor", "fractional", "aor", False),
    ("whole_roa", "whole", "roa", False),
    ("whole_roa_split", "whole", "roa", True),
    ("fractional_roa", "fractional", "roa", False),
)
# Regimes that equal exactly 1 on a closed corpus whose every cell is cited.
UNIT_REGIMES = ("fractional_aor", "whole_roa", "whole_roa_split", "fractional_roa")
QUOTA_CHAINS = (
    ("chronology",),
    ("trajectory", "chronology"),
    ("citing_excellence", "trajectory", "chronology"),
)
EXHAUSTED = "tie-break chain exhausted"
# Either gauge takes about this long on a quiet 2-core x86 host with CPython
# 3.11; gauged times are scaled to it so that they read as seconds.
GAUGE_NOMINAL_S = 0.010


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fresh_import_s(python: str, env: dict, module: str) -> float:
    """Wall time of a fresh interpreter that imports ``module`` and exits."""
    start = time.perf_counter()
    subprocess.run([python, "-c", f"import {module}"], env=env, check=True)
    return time.perf_counter() - start


@dataclass
class Outcome:
    outputs: dict[str, str | bytes]  # named outputs, hashed and compared
    items: int  # papers, trials or invocations this operation processed
    value: object = None  # raw result for the invariant checks
    problems: list[str] = field(default_factory=list)


class Workload:
    """What the measuring loop needs from a workload besides setup() and ops()."""

    def gauge(self) -> float:
        """Seconds the host takes right now for fixed benchmark-owned work of the
        kind the operations do: here Fraction sums and dict updates."""
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 3000):
            total += Fraction(i % 89, i % 97 + 1)
            seen[i % 211] = seen.get(i % 211, 0) + 1
        return time.perf_counter() - start

    def check(self, name: str, value) -> list[str]:
        """Invariant violations in one operation's raw result."""
        return []

    def layer_extras(self) -> dict:
        """Workload-specific per-layer numbers for the traced run."""
        return {}


# -- impact --------------------------------------------------------------------


class Impact(Workload):
    """Indicator calls on one loaded corpus S."""

    def __init__(self, spec: dict):
        self.files = spec["files"]
        self.corpus = None

    def setup(self, tracer) -> float:
        import biblio.io

        self.corpus = None
        start = time.perf_counter()
        corpus = biblio.io.load_corpus(self.files["journals"], self.files["papers"])
        corpus.cells(SCHEMA)
        with tracer.span("corpus.Corpus.citation_counts.build") if tracer else contextlib.nullcontext():
            corpus.citation_counts
        elapsed = time.perf_counter() - start
        self.corpus = corpus
        self._prepare()
        return elapsed

    def _prepare(self) -> None:
        papers = list(self.corpus.papers.values())
        self.all_papers = len(papers)
        self.slice_papers = sum(1 for p in papers if p.year == 2021 and p.doc_type == "article")
        self.reference = [p for p in papers if p.year == 2020]
        self.subunit = [p for p in self.reference
                        if any(ENTITY in a.entities for a in p.authors)]
        self.per_paper = [p for p in self.reference if p.doc_type == "review"]

    def ops(self):
        import biblio.normalization as norm
        from biblio.rounding import rational_json

        corpus = self.corpus
        tables = {}

        def baselines(label, counting, split):
            table = norm.compute_baselines(corpus, SCHEMA, counting, split_citations=split)
            tables[label] = table
            return Outcome({"csv": table.to_csv_text()}, self.all_papers, table)

        def cnci(regime, counting, aggregation, split, years, doc_types, papers):
            config = norm.CnciConfig(counting=counting, aggregation=aggregation,
                                     split_citations=split)
            value = norm.global_cnci(corpus, SCHEMA, config, years, doc_types)
            return Outcome({"value": dumps(rational_json(value, 4))}, papers, (regime, value))

        def relative():
            value = norm.relative_cnci(corpus, self.subunit, self.reference, SCHEMA, "whole")
            return Outcome({"value": dumps(rational_json(value, 4))}, len(self.reference))

        def per_paper():
            rendered = {p.id: rational_json(norm.cnci_paper(corpus, p, tables["whole"]), 4)
                        for p in self.per_paper}
            return Outcome({"per_paper": dumps(rendered)}, len(self.per_paper))

        ops = [
            (f"baselines.{label}", lambda a=(label, counting, split): baselines(*a))
            for label, counting, split in (
                ("whole", "whole", False),
                ("fractional", "fractional", False),
                ("whole_split", "whole", True),
            )
        ]
        for scope, years, doc_types, papers in (
            ("full", None, None, self.all_papers),
            ("slice", [2021], ["article"], self.slice_papers),
        ):
            for regime, counting, aggregation, split in REGIMES:
                args = (regime if scope == "full" else None, counting, aggregation, split,
                        years, doc_types, papers)
                ops.append((f"global_cnci.{regime}.{scope}", lambda a=args: cnci(*a)))
        ops.append(("relative_cnci.year2020", relative))
        ops.append(("cnci_paper.year2020_review", per_paper))
        return ops

    def check(self, name: str, value) -> list[str]:
        if isinstance(value, tuple) and value[0] in UNIT_REGIMES and value[1] != 1:
            return [f"{name}: {value[0]} is {value[1]}, not exactly 1"]
        return []

    def layer_extras(self) -> dict:
        cells = self.corpus.cells(SCHEMA)
        used = self.corpus.cells(SCHEMA, [2021], ["article"])
        return {"normalization.cells_used_ratio": (len(used) / len(cells), "ratio")}


# -- hcp -------------------------------------------------------------------------


class Hcp(Workload):
    """Highly-cited-paper selection on one loaded corpus S+E."""

    def __init__(self, spec: dict):
        self.files = spec["files"]
        self.log_path = Path(spec["work"]) / "quota_stderr.log"
        self.corpus = None
        self.tiebreak_blocks = 0
        self.tiebreak_exhausted = 0
        self.decisions = 0

    def setup(self, tracer) -> float:
        import biblio.io

        self.corpus = None
        start = time.perf_counter()
        corpus = biblio.io.load_corpus(
            self.files["journals"], self.files["papers"], self.files["edges"]
        )
        corpus.cells(SCHEMA)
        with tracer.span("corpus.Corpus.citation_counts.build") if tracer else contextlib.nullcontext():
            corpus.citation_counts
        corpus.in_edges
        elapsed = time.perf_counter() - start
        self.corpus = corpus
        self._prepare()
        return elapsed

    def _prepare(self) -> None:
        """Cells and, per top percent, how many papers each cell must select."""
        counts = self.corpus.citation_counts
        self.cells = self.corpus.cells(SCHEMA)
        self.cell_papers = sum(len(ps) for ps in self.cells.values())
        self.expected = {}
        for top in (1, 10):
            selected = {}
            for cell, papers in self.cells.items():
                quota = (2 * top * len(papers) + 100) // 200  # half-up of top% of n
                ranked = sorted((counts[p.id] for p in papers), reverse=True)
                low = quota == 0 or ranked[quota - 1] <= 2
                selected[cell] = 0 if low else quota
            self.expected[top] = selected

    def ops(self):
        import biblio.excellence as exc

        corpus = self.corpus
        weighted = {}
        self.log_path.write_text("", encoding="utf-8")
        self.tiebreak_blocks = self.tiebreak_exhausted = self.decisions = 0

        def run(top, method, chain=()):
            kwargs = {"top_percent": top, "method": method}
            if chain:
                kwargs["tiebreak_chain"] = exc.parse_tiebreak_chain(chain)
                with open(self.log_path, "a", encoding="utf-8") as log, \
                        contextlib.redirect_stderr(log):
                    decisions = exc.hcp_run(corpus, SCHEMA, **kwargs)
            else:
                decisions = exc.hcp_run(corpus, SCHEMA, **kwargs)
            if method == "fractional_ws":
                weighted[top] = decisions
            rendered = dumps([d.to_json_dict() for d in decisions])
            return Outcome({"decisions": rendered}, self.cell_papers, (top, method, decisions))

        def report(top):
            result = exc.hcp_report(corpus, SCHEMA, weighted[top], top_percent=top)
            return Outcome({"report": dumps(result.to_json_dict())}, 0)

        def share(top):
            result = exc.entity_hcp_share(corpus, ENTITY, weighted[top], "fractional")
            return Outcome({"share": dumps(result.to_json_dict())}, 0)

        ops = []
        for top in (1, 10):
            for method in ("inclusive", "exclusive", "fractional_ws"):
                ops.append((f"hcp_run.{method}.top{top}", lambda a=(top, method): run(*a)))
            for chain in QUOTA_CHAINS:
                ops.append((f"hcp_run.quota.{'+'.join(chain)}.top{top}",
                            lambda a=(top, "quota", chain): run(*a)))
            ops.append((f"hcp_report.fractional_ws.top{top}", lambda t=top: report(t)))
            ops.append((f"entity_hcp_share.fractional.top{top}", lambda t=top: share(t)))
        return ops

    def check(self, name: str, value) -> list[str]:
        if not isinstance(value, tuple):
            return []
        top, method, decisions = value
        self.decisions += len(decisions)
        expected = self.expected[top]
        got: dict = {}
        for d in decisions:
            got[d.cell] = got.get(d.cell, 0) + (d.weight if method == "fractional_ws" else 1)
        if method == "quota":
            self._tally_tiebreaks(decisions)
        bad = []
        for cell, want in expected.items():
            have = got.get(cell, 0)
            if method in ("fractional_ws", "quota") and have != want:
                bad.append(cell)
            elif method == "inclusive" and (have < want or (want == 0 and have)):
                bad.append(cell)
            elif method == "exclusive" and have > want:
                bad.append(cell)
        return [f"{name}: {len(bad)} cell(s) select the wrong amount, e.g. {bad[0]}"] if bad else []

    def _tally_tiebreaks(self, decisions) -> None:
        needing, exhausted = set(), set()
        for d in decisions:
            if d.trace:
                needing.add(d.cell)
                if any(step.get("chain_exhausted") for step in d.trace):
                    exhausted.add(d.cell)
        self.tiebreak_blocks += len(needing)
        self.tiebreak_exhausted += len(exhausted)

    def layer_extras(self) -> dict:
        lines = self.log_path.read_text(encoding="utf-8").splitlines() \
            if self.log_path.exists() else []
        blocks = self.tiebreak_blocks
        return {
            "excellence.chain_exhausted": (sum(EXHAUSTED in line for line in lines), "count"),
            "excellence.tiebreak_resolved_ratio": (
                (blocks - self.tiebreak_exhausted) / blocks if blocks else 0.0, "ratio"),
            "excellence.decisions": (self.decisions, "count"),
        }


# -- montecarlo ----------------------------------------------------------------------


class MonteCarlo(Workload):
    """Quartile-surplus and global-CNCI Monte Carlo experiments, serial."""

    def __init__(self, spec: dict):
        from biblio.synthesis import CitationModel, GenConfig, SizeDist

        sizes = spec["sizes"]
        self.python, self.env = spec["python"], spec["env"]
        self.surplus_trials = sizes["surplus_trials"]
        self.cnci_trials = sizes["cnci_trials"]
        self.surplus = GenConfig(
            seed=spec["seed"], num_categories=sizes["surplus_categories"],
            journals_per_category=SizeDist.uniform(13, 20),
            papers_per_journal=SizeDist.fixed(1),
        )
        self.cnci = GenConfig(
            seed=spec["seed"], num_categories=3,
            journals_per_category=SizeDist.uniform(2, 4),
            papers_per_journal=SizeDist.uniform(1, 4),
            multi_attribution_prob=0.6, max_categories_per_journal=3,
            citation_model=CitationModel(kind="yule", rho=2.0),
        )

    def setup(self, tracer) -> float:
        import biblio.synthesis as syn

        elapsed = fresh_import_s(self.python, self.env, "biblio.synthesis")
        start = time.perf_counter()
        syn.monte_carlo_surplus(self.surplus, 20)
        syn.monte_carlo_global_cnci(self.cnci, 5)
        return elapsed + time.perf_counter() - start

    def ops(self, workers: int | None = None):
        import biblio.synthesis as syn
        from biblio.rounding import rational_json

        def surplus():
            r = syn.monte_carlo_surplus(self.surplus, self.surplus_trials, workers)
            summary = {
                "analytic_extras": list(r.analytic_extras),
                "mean_extras": [rational_json(m, 3) for m in r.mean_extras],
                "mean_totals": [rational_json(m, 3) for m in r.mean_totals],
                "se_extras": [None if s is None else f"{s:.6g}" for s in r.se_extras],
                "flagged": list(r.flagged),
                "agrees": r.agrees,
            }
            trials = "".join(f"{t},{a},{b},{c},{d}\n"
                             for t, (a, b, c, d) in enumerate(r.per_trial_totals))
            problems = [] if r.agrees else [f"surplus flagged {', '.join(r.flagged)}"]
            return Outcome({"summary": dumps(summary), "trials.csv": trials},
                           r.trials, problems=problems)

        def cnci():
            r = syn.monte_carlo_global_cnci(self.cnci, self.cnci_trials, workers)
            summary = {
                name: {"min": rational_json(s.minimum, 4), "mean": rational_json(s.mean, 4),
                       "max": rational_json(s.maximum, 4), "violations": s.violations}
                for name, s in sorted(r.regimes.items())
            }
            problems = [] if r.all_pins_hold else ["cnci pins violated"]
            return Outcome({"summary": dumps(summary)}, r.trials, problems=problems)

        return [("monte_carlo_surplus", surplus), ("monte_carlo_global_cnci", cnci)]



# -- cli -------------------------------------------------------------------------------


class Cli(Workload):
    """A fixed mix of ``biblio`` invocations, each a fresh process."""

    def __init__(self, spec: dict):
        self.python, self.env = spec["python"], spec["env"]
        self.work = Path(spec["work"])
        self.runner = str(Path(__file__).resolve().parent / "cli_runner.py")
        self.tracer = None
        self.trace_dir = self.work / "cli_traces"
        self.files = files = spec["files"]
        corpus = ["--journals", files["journals"], "--papers", files["papers"]]
        journal, ids = self._pick(files)
        ids_path = self.work / "subunit_ids.txt"
        ids_path.write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
        sizes = spec["sizes"]
        surplus_cfg = self.work / "surplus.json"
        surplus_cfg.write_text(dumps({
            "seed": spec["seed"], "num_categories": sizes["surplus_categories"],
            "journals_per_category": {"uniform": [13, 20]}, "papers_per_journal": 1,
        }), encoding="utf-8")
        corpus_cfg = self.work / "generate.json"
        corpus_cfg.write_text(dumps({
            "seed": spec["seed"], "num_categories": sizes["simulate_categories"],
            "journals_per_category": 17, "papers_per_journal": {"uniform": [1, 30]},
            "multi_attribution_prob": 0.4, "citation_model": {"kind": "yule", "rho": 2.0},
            "years": [2020, 2021], "doc_type_mix": {"article": 0.8, "review": 0.2},
        }), encoding="utf-8")
        self.sim_surplus = self.work / "sim_surplus"
        self.sim_corpus = self.work / "sim_corpus"
        s = ["--schema", SCHEMA]
        self.mix = [
            ("validate", ["validate", *corpus]),
            ("rank", ["rank", *corpus, *s, "--category", "c000", "--year", "2020"]),
            ("percentile", ["percentile", *corpus, *s, "--journal", journal, "--year", "2021"]),
            ("quartiles_per_category", ["quartiles", *corpus, *s, "--year", "2020"]),
            ("quartiles_database_best", ["quartiles", *corpus, *s, "--year", "2021",
                                         "--level", "papers", "--mode", "database-best"]),
            ("baselines_whole", ["baselines", *corpus, *s]),
            ("baselines_fractional_csv", ["baselines", *corpus, *s, "--counting", "fractional",
                                          "--format", "csv"]),
            ("baselines_whole_split", ["baselines", *corpus, *s, "--split-citations"]),
            ("cnci_whole_aor_per_paper", ["cnci", *corpus, *s, "--per-paper"]),
            ("cnci_fractional_aor", ["cnci", *corpus, *s, "--counting", "fractional"]),
            ("cnci_whole_roa", ["cnci", *corpus, *s, "--aggregation", "roa"]),
            ("cnci_whole_roa_split", ["cnci", *corpus, *s, "--aggregation", "roa",
                                      "--split-citations"]),
            ("cnci_fractional_roa", ["cnci", *corpus, *s, "--counting", "fractional",
                                     "--aggregation", "roa"]),
            ("relative_cnci", ["relative-cnci", *corpus, *s, "--subunit-ids", str(ids_path),
                               "--years", "2020"]),
            ("hcp_top10", ["hcp", *corpus, *s, "--top-percent", "10"]),
            ("hcp_report_fractional_ws", ["hcp-report", *corpus, *s, "--method",
                                          "fractional-ws"]),
            ("entity_share_fractional", ["entity-share", *corpus, *s, "--entity", ENTITY,
                                         "--counting", "fractional"]),
            ("simulate_surplus", ["simulate", "--config", str(surplus_cfg), "--experiment",
                                  "surplus", "--trials", str(sizes["cli_surplus_trials"]),
                                  "--out-dir", str(self.sim_surplus)]),
            ("simulate_corpus", ["simulate", "--config", str(corpus_cfg), "--experiment",
                                 "corpus", "--out-dir", str(self.sim_corpus)]),
        ]
        self.stdout_bytes = 0
        self.entry_s: dict[str, list[float]] = {}

    @staticmethod
    def _pick(files: dict) -> tuple[str, list[str]]:
        """A multi-category journal, and the entity's 2020 papers for relative-cnci."""
        journal = None
        with open(files["journals"], encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if journal is None and len(record.get("categories", {}).get(SCHEMA, ())) > 1:
                    journal = record["id"]
        ids = []
        with open(files["papers"], encoding="utf-8") as fh:
            for line in fh:
                p = json.loads(line)
                if p["year"] == 2020 and any(ENTITY in a["entities"] for a in p["authors"]):
                    ids.append(p["id"])
        return journal, ids

    def setup(self, tracer) -> float:
        self.startup_s = fresh_import_s(self.python, self.env, "biblio.cli")
        return self.startup_s

    def ops(self):
        self.stdout_bytes = 0
        return [(name, lambda n=name, a=argv: self._invoke(n, a)) for name, argv in self.mix]

    def _invoke(self, name: str, argv: list[str]) -> Outcome:
        if self.tracer is None:
            command = [self.python, "-m", "biblio.cli", *argv]
        else:
            trace_out = self.trace_dir / f"{self.tracer.op}.json"
            command = [self.python, self.runner, str(trace_out), "--", *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, env=self.env, capture_output=True, timeout=150)
        self.entry_s.setdefault(name, []).append(time.perf_counter() - start)
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        outputs: dict[str, str | bytes] = {"stdout": proc.stdout}
        if name == "simulate_surplus":
            outputs["trials.csv"] = (self.sim_surplus / "trials.csv").read_bytes()
        elif name == "simulate_corpus":
            for f in ("journals.jsonl", "papers.jsonl", "summary.json"):
                outputs[f] = (self.sim_corpus / f).read_bytes()
        self.stdout_bytes += len(proc.stdout)
        if self.tracer is not None and proc.returncode == 0:
            self._merge(trace_out)
        return Outcome(outputs, 1, problems=problems)

    def _merge(self, path: Path) -> None:
        """Fold one invocation's spans and counters into the run's tracer."""
        data = json.loads(path.read_text(encoding="utf-8"))
        tracer = self.tracer
        offset = len(tracer.spans)
        root = tracer._stack[-1] if tracer._stack else -1
        for sid, parent, _op, name, start, end in data["spans"]:
            tracer.spans.append([sid + offset, parent + offset if parent >= 0 else root,
                                 tracer.op, name, start, end])
        for name, n in data["counts"].items():
            tracer.count(name, n)
        for sid, seconds in data["rendered_in"].items():
            tracer.rendered_in[int(sid) + offset] = seconds
        tracer.render_s += data["render_s"]
        tracer.gc_s += data["gc_s"]
        tracer.gc_collections += data["gc_collections"]

    def gauge(self) -> float:
        """Seconds a bare interpreter takes to start and exit right now: the
        invocations are mostly process start-up, which load on the host slows
        less than it slows pure Python."""
        start = time.perf_counter()
        subprocess.run([self.python, "-S", "-c", "pass"], check=True)
        return time.perf_counter() - start

    def layer_extras(self) -> dict:
        extras = {"cli.stdout_bytes": (self.stdout_bytes, "B"),
                  "cli.startup_s": (self.startup_s, "s")}
        for name, times in sorted(self.entry_s.items()):
            extras[f"cli.{name}_s"] = (statistics.median(times), "s")
        return extras


WORKLOADS = {"cli": Cli, "impact": Impact, "hcp": Hcp, "montecarlo": MonteCarlo}


# -- the measuring loop -------------------------------------------------------------------


class Checker:
    """Counts operations and failures; compares each output's digest."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_s: dict[str, list[float]] = {}
        self.op_gauge_s: dict[str, list[float]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def compare(self, name: str, outputs: dict) -> list[str]:
        problems = []
        for key, data in outputs.items():
            label = f"{name}:{key}"
            digest = sha(data)
            if label not in self.first:
                self.first[label] = digest
                if self.golden is not None and self.golden.get(label) != digest:
                    problems.append(f"{label}: differs from the golden digest")
            elif self.first[label] != digest:
                problems.append(f"{label}: output changed between passes")
        return problems


def one_pass(workload, checker: Checker, tracer) -> tuple[float, int]:
    """Run every operation once; returns (summed operation seconds, items).

    The gauge runs before the first operation and after each one, so every
    operation has a gauge reading on both sides.
    """
    total, items = 0.0, 0
    before = workload.gauge()
    for name, fn in workload.ops():
        checker.attempted += 1
        row = None
        if tracer is not None:
            tracer.op += 1
            row = tracer.begin(f"bench.{name}")
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            outcome = None
            error = f"{name}: {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if row is not None:
                tracer.end(row)
        after = workload.gauge()
        total += elapsed
        checker.op_s.setdefault(name, []).append(elapsed)
        checker.op_gauge_s.setdefault(name, []).append((before + after) / 2)
        before = after
        if outcome is None:
            checker.fail(error)
            continue
        items += outcome.items
        problems = outcome.problems + workload.check(name, outcome.value)
        problems += checker.compare(name, outcome.outputs)
        if problems:
            checker.fail("; ".join(problems))
    return total, items


def gauged_pass_s(checker: Checker, passes: slice = slice(None)) -> float:
    """One pass's seconds on a host where the gauge takes ``GAUGE_NOMINAL_S``.

    Each operation's time is divided by the gauge readings taken right before
    and after it, which saw the same load from other tenants; the median of
    those ratios over the run (or over the given passes), summed over the
    pass, is the pass in gauge units.
    """
    return GAUGE_NOMINAL_S * sum(
        statistics.median(t / g for t, g in zip(times[passes], checker.op_gauge_s[name][passes]))
        for name, times in checker.op_s.items()
    )


def measure(workload, checker: Checker, seconds: float, min_passes: int, tracer=None):
    """Repeat passes; start another only if it should end within ``seconds``."""
    times, items = [], []
    start = time.perf_counter()
    while len(times) < min_passes or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        elapsed, n = one_pass(workload, checker, tracer)
        times.append(elapsed)
        items.append(n)
    return times, items


def peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_layers(workload, name: str, checker: Checker, seconds: float,
                  spans_path: Path) -> dict:
    """Run traced passes after the untraced ones already in ``checker`` and
    turn the spans into the per-layer table."""
    untraced = len(next(iter(checker.op_s.values())))
    tracer = tracing.Tracer()
    uninstall = None
    if name == "cli":
        workload.tracer = tracer
        workload.trace_dir.mkdir(parents=True, exist_ok=True)
    else:
        uninstall = tracing.install(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            setup_s = workload.setup(tracer)
        setup_wall = time.perf_counter() - start
        times, items = measure(workload, checker, seconds, 1, tracer)
    finally:
        if uninstall is not None:
            uninstall()
        workload.tracer = None
    tracing.write_spans(spans_path, tracer.spans)

    wall = setup_wall + sum(times)
    self_s = tracing.self_times(tracer.spans, tracer.rendered_in)
    inclusive = tracing.inclusive_times(tracer.spans)
    table: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        spans = sum(calls for n, (_, calls) in inclusive.items() if tracing.layer_of(n) == layer)
        counted = sum(n for k, n in tracer.counts.items() if tracing.layer_of(k) == layer)
        table[f"{layer}.self_pct"] = (100.0 * self_s.get(layer, 0.0) / wall, "%")
        table[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        table[f"{layer}.calls"] = (spans + counted, "count")
    table["bench.self_s"] = (self_s.get("bench", 0.0), "s")
    table["runtime.gc_s"] = (tracer.gc_s, "s")
    table["runtime.gc_collections"] = (tracer.gc_collections, "count")
    table["rounding.render_s"] = (tracer.render_s, "s")
    table["rounding.values_rendered"] = (
        sum(n for k, n in tracer.counts.items() if k.startswith("rounding.")), "count")
    table["normalization.cnci_paper_count"] = (
        tracer.counts.get("normalization.cnci_paper", 0), "count")
    table["ranking.quartile_partition_calls"] = (
        tracer.counts.get("ranking.quartile_partition", 0), "count")
    untraced_pass_s = gauged_pass_s(checker, slice(None, untraced))
    traced_pass_s = gauged_pass_s(checker, slice(untraced, None))
    table["trace.traced_pass_s"] = (traced_pass_s, "s")
    table["trace.untraced_pass_s"] = (untraced_pass_s, "s")
    table["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    table["trace.overhead_pct"] = (100.0 * (traced_pass_s / untraced_pass_s - 1.0), "%")
    table["trace.setup_s"] = (setup_s, "s")
    for span_name, (total, calls) in sorted(inclusive.items()):
        table.setdefault(f"{span_name}_s", (total, "s"))
        table.setdefault(f"{span_name}.calls", (calls, "count"))
    for counted_name, n in sorted(tracer.counts.items()):
        table.setdefault(f"{counted_name}.calls", (n, "count"))
    loads = inclusive.get("io.load_corpus", (0.0, 0))
    table["io.bytes_read"] = (loads[1] * workload_input_bytes(workload), "B")
    table.update(workload.layer_extras())
    return table


def workload_input_bytes(workload) -> int:
    files = getattr(workload, "files", None)
    if files is None:
        return 0
    return sum(Path(p).stat().st_size for p in files.values() if p)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    name = spec["workload"]
    workload = WORKLOADS[name](spec)
    golden = spec.get("golden")
    checker = Checker(golden)
    seconds = spec["seconds"]
    result: dict = {}
    if not spec["trace"]:
        setups, setup_ratios = [], []
        for _ in range(spec["setups"]):
            before = workload.gauge()
            setups.append(workload.setup(None))
            setup_ratios.append(setups[-1] / ((before + workload.gauge()) / 2))
        times, items = measure(workload, checker, seconds, 2)
        result.update(setups=setups, pass_s=times, items=items, peak_rss_mib=peak_rss_mib(name),
                      setup_gauged_s=GAUGE_NOMINAL_S * statistics.median(setup_ratios),
                      pass_gauged_s=gauged_pass_s(checker))
    else:
        workload.setup(None)
        times, items = measure(workload, checker, seconds / 2, 1)
        untraced = statistics.median(times)
        layers = traced_layers(workload, name, checker, seconds / 2,
                               Path(spec["work"]) / "spans.jsonl")
        if name == "montecarlo":
            start = time.perf_counter()
            for _, fn in workload.ops(workers=2):
                fn()
            layers["synthesis.pool_speedup"] = (untraced / (time.perf_counter() - start), "ratio")
            for op, trials in (("monte_carlo_surplus", workload.surplus_trials),
                               ("monte_carlo_global_cnci", workload.cnci_trials)):
                total, calls = layers[f"bench.{op}_s"][0], layers[f"bench.{op}.calls"][0]
                layers[f"synthesis.{op}.trial_s"] = (total / (calls * trials), "s")
        result.update(pass_s=times, items=items, layers=layers)
    result.update(attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems, digests=checker.first, op_s=checker.op_s,
                  gauge_s=statistics.median(g for gs in checker.op_gauge_s.values() for g in gs))
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
