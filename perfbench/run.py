"""biblio benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,impact,hcp,montecarlo} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a biblio checkout. The inputs are generated from the
seed under ``.bench_work/``; the workload itself runs in a child process
(``workloads.py``) so that its peak memory is its own. The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` (its ``end_to_end`` list with
``--trace 0``, its ``per_layer`` list with ``--trace 1``). The lines before it
are the run record and a readable table.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
TIME_LIMIT_S = 170.0
SIZES = {
    "full": {
        "impact_categories": 12,
        "hcp_categories": 24,
        "cli_categories": 4,
        "simulate_categories": 16,
        "surplus_categories": 236,
        "surplus_trials": 400,
        "cnci_trials": 80,
        "cli_surplus_trials": 200,
    },
    "small": {
        "impact_categories": 3,
        "hcp_categories": 3,
        "cli_categories": 2,
        "simulate_categories": 2,
        "surplus_categories": 20,
        "surplus_trials": 50,
        "cnci_trials": 10,
        "cli_surplus_trials": 20,
    },
}
SETUPS = {"cli": 7, "impact": 5, "hcp": 5, "montecarlo": 5}
# What one pass processes, for the readable throughput line.
THROUGHPUT = {
    "cli": ("cli_invocations_per_s", "invocations/s"),
    "impact": ("impact_papers_per_s", "papers/s"),
    "hcp": ("hcp_papers_per_s", "papers/s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["cli", "impact", "hcp", "montecarlo"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=sorted(SIZES), default="full",
                   help="input sizes; 'small' is for the self-test and skips the golden gate")
    p.add_argument("--update-golden", action="store_true",
                   help="store this run's output digests as the golden ones")
    return p.parse_args(argv)


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return None


def read_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; git itself is not run."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_inputs(workload: str, seed: int, sizes: dict, work: Path) -> dict:
    spec: dict = {}
    if workload == "impact":
        files = inputs.write_corpus(work / "s", seed, sizes["impact_categories"], dated=False)
    elif workload == "hcp":
        files = inputs.write_corpus(work / "se", seed, sizes["hcp_categories"], dated=True)
    elif workload == "cli":
        files = inputs.write_corpus(work / "s", seed, sizes["cli_categories"], dated=False)
    else:
        return spec
    spec["files"] = {"journals": str(files.journals), "papers": str(files.papers),
                     "edges": str(files.edges) if files.edges else None}
    spec["papers"] = files.papers_count
    spec["edges"] = files.edges_count
    return spec


def run_worker(spec_path: Path, result_path: Path, env: dict, deadline: float) -> int:
    """Run the workload process in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), str(spec_path), str(result_path)],
        env=env, start_new_session=True, stdout=sys.stderr,
    )
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: workload exceeded its time limit", file=sys.stderr)
        return -1


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "biblio" / "__init__.py").is_file():
        print("perfbench: run from the root of a biblio checkout (no src/biblio here)",
              file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer"] if args.trace else config["end_to_end"]

    golden = None
    golden_path = HERE / "golden.json"
    if args.scale == "full" and args.seed == DEFAULT_SEED and not args.update_golden:
        stored = json.loads(golden_path.read_text(encoding="utf-8"))
        golden = stored.get(args.workload, {})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "commit": read_commit(root),
        "loadavg_start": read_loadavg(), "golden_gate": golden is not None,
    }
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = dict(os.environ)
    env.pop("BIBLIO_THREADS", None)  # the serial default
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    sizes = SIZES[args.scale]
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "sizes": sizes, "setups": SETUPS[args.workload],
        "work": str(work), "python": sys.executable, "env": env, "golden": golden,
    }
    started = time.perf_counter()
    spec.update(make_inputs(args.workload, args.seed, sizes, work))
    record["inputs_s"] = time.perf_counter() - started
    record["input_papers"] = spec.get("papers")
    record["input_edges"] = spec.get("edges")
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    code = run_worker(spec_path, result_path, env, deadline)
    record["loadavg_end"] = read_loadavg()
    if code != 0 or not result_path.is_file():
        print(f"perfbench: workload process failed (exit {code})", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    passes, items = result["pass_s"], result["items"]
    record["passes"] = len(passes)
    record["problems"] = result["problems"]
    table: dict[str, tuple[float, str]] = {}
    if args.trace:
        table.update({k: tuple(v) for k, v in result["layers"].items()})
    else:
        table["setup_s"] = (result["setup_gauged_s"], "s")
        table["setup_wall_s"] = (statistics.median(result["setups"]), "s")
        gauged = result["pass_gauged_s"]
        table["items_per_s"] = (statistics.median(items) / gauged, "items/s")
        table["pass_gauged_s"] = (gauged, "s")
        table["pass_wall_s"] = (statistics.median(passes), "s")
        table["gauge_s"] = (result["gauge_s"], "s")
        table["peak_rss_mib"] = (result["peak_rss_mib"], "MiB")
        if args.workload == "montecarlo":
            for metric, op, trials in (
                ("surplus_trials_per_s", "monte_carlo_surplus", sizes["surplus_trials"]),
                ("cnci_trials_per_s", "monte_carlo_global_cnci", sizes["cnci_trials"]),
            ):
                times = result["op_s"][op]
                table[metric] = (trials * len(times) / sum(times), "trials/s")
        else:
            name, unit = THROUGHPUT[args.workload]
            table[name] = (sum(items) / sum(passes), unit)
        if args.workload == "cli":
            table["cli_pass_s"] = (statistics.median(passes), "s")
    table["fail_ratio"] = (result["failed"] / max(1, result["attempted"]), "failed/attempted")

    if args.update_golden:
        stored = json.loads(golden_path.read_text(encoding="utf-8")) \
            if golden_path.is_file() else {}
        stored[args.workload] = result["digests"]
        golden_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")

    (work / "layers.json" if args.trace else work / "metrics.json").write_text(
        json.dumps({"record": record, "table": table}, indent=1, sort_keys=True),
        encoding="utf-8")
    print(json.dumps({"run": record}, sort_keys=True))
    for name, (value, unit) in sorted(table.items()):
        print(f"{name:48s} {value:>16.6g} {unit}")
    metrics = {m["name"]: {"value": table.get(m["name"], (0, m["unit"]))[0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
