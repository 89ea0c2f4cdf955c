"""Alternating before/after pairs of benchmark runs, in one command.

    python tests/pairs.py --against REV --out BENCH_N.json
        [--workloads ingest,query,density,montecarlo] [--pairs 10]
        [--seed 1] [--seconds 10] [--aa] [--claimed WORKLOAD:METRIC]

The parent side is ``git archive REV``; the change side is the working
tree's files that git tracks or would track (not ignored), copied the same
way, so neither side holds caches or build outputs.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once on each side, from that side's directory and with the pair's seed on
both.  The side that runs first alternates: the parent on even pairs, the
change on odd ones.  ``--aa`` adds a second copy of the parent as a third
arm, ``aa``, to show how far two copies of one tree read apart; the three
arms then rotate by one place per pair.  Workload k of the list takes the
seeds SEED + k * PAIRS onwards.  Every process runs with
``PYTHONDONTWRITEBYTECODE=1``, so every process of both sides compiles the
sources it imports.

The runs go to ``--out`` as they finish, in the layout of
``BENCH_39.json``: ``about``, ``machine``, ``claimed``, ``summary`` and
``runs``.  ``summary`` is ``summarize(runs)``, a pure function of the
runs: per workload and metric, each arm's median and inclusive quartiles
and how many pairs read lower than the parent.  The script prints that
table.  It exits 1 if any run is not ``correct`` or has ``failed > 0``,
and 2 if REV cannot be archived.  It uses the standard library alone,
edits no file of ``perfbench/``, and has no ``test_`` prefix, so pytest
does not collect it.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def arms(pair, aa):
    """The arms of ``pair`` in the order they run."""
    names = ("parent", "change", "aa") if aa else ("parent", "change")
    shift = pair % len(names)
    return names[shift:] + names[:shift]


def summarize(runs, method="inclusive"):
    """{workload: {metric: {arm: {median, q1, q3}, ..., "<arm>_lower":
    "k/n"}, "runs_correct_with_0_failed": "k/n"}} of ``runs``, figures
    rounded to 4 places.  "<arm>_lower" counts the pairs whose run of the
    arm reads below the parent's; quartiles are
    ``statistics.quantiles(n=4, method=method)``, a single run's value
    when there is one."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        names = [a for a in ("parent", "change", "aa")
                 if any(r["side"] == a for r in mine)]
        entry = {}
        for metric in dict.fromkeys(m for r in mine for m in r["metrics"]):
            figures = {}
            for arm in names:
                values = [r["metrics"][metric] for r in mine
                          if r["side"] == arm]
                q1, _, q3 = (statistics.quantiles(values, n=4, method=method)
                             if len(values) > 1 else values * 3)
                figures[arm] = {"median": round(statistics.median(values), 4),
                                "q1": round(q1, 4), "q3": round(q3, 4)}
            by_pair = {}
            for r in mine:
                by_pair.setdefault(r["pair"], {})[r["side"]] = \
                    r["metrics"][metric]
            for arm in names[1:]:
                lower = sum(p[arm] < p["parent"] for p in by_pair.values())
                figures[f"{arm}_lower"] = f"{lower}/{len(by_pair)}"
            entry[metric] = figures
        ok = sum(r["correct"] is True and r["failed"] == 0 for r in mine)
        entry["runs_correct_with_0_failed"] = f"{ok}/{len(mine)}"
        summary[workload] = entry
    return summary


def archive_rev(rev, dest):
    """Extract ``git archive rev`` into ``dest``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_tree(dest):
    """Copy the working tree's tracked and untracked, not ignored files
    into ``dest``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_one(tree, workload, seed, seconds, metrics):
    """The result line of one ``run.py`` run in ``tree``, its metrics
    reduced to the values of ``metrics``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"run.py exited {out.returncode} in {tree}:\n"
                           f"{out.stderr[-2000:]}")
    line = json.loads(lines[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: line["metrics"][k]["value"] for k in metrics}}


def machine():
    """The host, interpreter and library versions, for ``machine``."""
    versions = ", ".join(f"{p} {metadata.version(p)}"
                         for p in ("numpy", "scipy"))
    libc = " ".join(platform.libc_ver())
    return (f"{os.cpu_count()}-vCPU {platform.machine()} host, Python "
            f"{platform.python_version()}, {versions}, {libc}; run.py "
            f"pins each run to one CPU")


def print_summary(summary):
    for workload, entry in summary.items():
        print(f"{workload} ({entry['runs_correct_with_0_failed']} runs "
              f"correct with 0 failed)")
        for metric, figures in entry.items():
            if not isinstance(figures, dict):
                continue
            cells = [f"{arm} {f['median']:g} [{f['q1']:g}, {f['q3']:g}]"
                     for arm, f in figures.items() if isinstance(f, dict)]
            lower = [f"{k} {v}" for k, v in figures.items()
                     if not isinstance(v, dict)]
            print(f"  {metric:<16} " + "  ".join(cells + lower))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="alternating parent/change pairs of perfbench runs")
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads",
                        default="ingest,query,density,montecarlo")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--aa", action="store_true",
                        help="add a second copy of the parent as an arm")
    parser.add_argument("--claimed", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    claimed = None
    if args.claimed:
        workload, metric = args.claimed.split(":")
        claimed = {"workload": workload, "metric": metric}
    seeds = ", ".join(
        f"{args.seed + k * args.pairs}-"
        f"{args.seed + (k + 1) * args.pairs - 1} {w}"
        for k, w in enumerate(workloads))
    about = (
        f"perfbench/run.py result lines (--seconds {args.seconds:g} "
        f"--trace 0) for {args.against} (parent) and the working tree "
        f"(change)"
        + (", and a second copy of the parent (aa)" if args.aa else "")
        + f", each from its own copy (git archive; the working tree's "
        f"tracked and untracked, not ignored files), with "
        f"PYTHONDONTWRITEBYTECODE=1, written by tests/pairs.py. Pairs ran "
        f"back to back, alternating which side ran first ("
        + ("the arms rotating by one place a pair, parent first on pair 0"
           if args.aa else "parent first on even pairs")
        + f"); both sides of a pair used its seed. Seeds {seeds}. "
        f"Quartiles are statistics.quantiles' inclusive method.")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {arm: Path(tmp) / arm for arm in ("parent", "change", "aa")}
        try:
            archive_rev(args.against, trees["parent"])
            if args.aa:
                archive_rev(args.against, trees["aa"])
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.decode(errors="replace").strip(),
                  file=sys.stderr)
            return 2
        copy_tree(trees["change"])
        for k, workload in enumerate(workloads):
            for pair in range(args.pairs):
                seed = args.seed + k * args.pairs + pair
                order = arms(pair, args.aa)
                for arm in order:
                    result = run_one(trees[arm], workload, seed,
                                     args.seconds, metrics)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": arm, "pair": pair,
                                 "ran_first": order[0], **result})
                    print(f"{workload} pair {pair} {arm}: "
                          f"{json.dumps(result)}", flush=True)
                record = {"about": about, "machine": machine(),
                          "claimed": claimed, "summary": summarize(runs),
                          "runs": runs}
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record["summary"])
    bad = [r for r in runs if r["correct"] is not True or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
