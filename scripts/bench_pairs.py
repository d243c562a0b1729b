#!/usr/bin/env python3
"""Run the grid benchmark on two commits in alternating pairs.

Run from the root of a checkout::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        [--seconds S] [--seed K]

``PARENT`` and ``CHANGE`` are git revisions.  Each is exported once
with ``git archive`` into a temporary directory.  Path strings shift
the allocator's layout and so peak RSS, so no run starts in either
export: before each run, that side's tree is moved to one run
directory, and moved back afterwards, and every benchmark process of
both sides sees the same path.  Pair ``i`` runs
``perfbench/run.py --workload W --seconds S --seed K --trace 0`` on
both sides, one after the other, the parent first in even pairs and
the change first in odd ones.  Every run's last stdout line (the
benchmark's JSON verdict) is kept, with its pair, side and revision, in
one raw file under ``.perfbench/pairs/``; the table is printed from it:
per end-to-end metric of ``BENCHMARK.json``, each side's median, the
parent's q1-q3, how many pairs the change won and a verdict
(:func:`verdict`).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]
#: The two sides.
SIDES = ("parent", "change")
#: Where a side's tree sits while it is measured, next to the exports.
RUN_DIR = "run"


class Summary(NamedTuple):
    """One metric over the pairs."""

    parent_median: float
    change_median: float
    #: The parent's first and third quartiles.
    parent_q1: float
    parent_q3: float
    #: Pairs in which the change did better.
    wins: int
    pairs: int
    verdict: str


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``, interpolated as ``numpy.percentile`` does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Summary:
    """Summarise a metric's pairs: ``parent[i]`` and ``change[i]`` ran
    as pair ``i``; ``better`` is ``"lower"`` or ``"higher"`` and
    ``bound`` the relative worsening ``BENCHMARK.json`` allows.

    - ``unresolved``: either side's q1-q3 spread, relative to its
      median, is wider than the bound, so a worsening within the bound
      could not be told from noise — unless every change run reads
      better than every parent run;
    - ``worse``: the change's median is worse than the parent's by more
      than the bound;
    - ``gain``: the change won at least nine pairs in ten, and the
      medians lie further apart than the parent's q1-q3 spread;
    - ``held``: none of these.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = max(
        (q3 - q1) / abs(median) if median else 0.0
        for q1, median, q3 in ((p_q1, p_median, p_q3), (c_q1, c_median, c_q3))
    )
    worsening = sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    # Every change run better than every parent run.
    dominates = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not dominates:
        label = "unresolved"
    elif worsening > bound:
        label = "worse"
    elif 10 * wins >= 9 * len(parent) and sign * (p_median - c_median) > (
        p_q3 - p_q1
    ):
        label = "gain"
    else:
        label = "held"
    return Summary(p_median, c_median, p_q1, p_q3, wins, len(parent), label)


def export(revision: str, directory: Path) -> None:
    """``git archive`` of ``revision``, unpacked into ``directory``."""
    directory.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        stdout=subprocess.PIPE,
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(directory, filter="data")
    if archive.wait():
        raise SystemExit(f"error: git archive {revision} failed")


def resolve(revision: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify",
         f"{revision}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def run_once(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``; its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seconds", str(args.seconds), "--seed", str(args.seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(
            f"error: the benchmark failed in {checkout}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def run_moved(tree: Path, run_dir: Path, args) -> dict:
    """:func:`run_once` with ``tree`` moved to ``run_dir`` for the run
    and moved back afterwards, so that every side runs from one path."""
    tree.rename(run_dir)
    try:
        return run_once(run_dir, args)
    finally:
        run_dir.rename(tree)


def table(runs: List[dict], workload: str) -> List[str]:
    """The per-metric lines of the summary table."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = sorted({run["pair"] for run in runs})
    by_side: Dict[str, Dict[int, dict]] = {side: {} for side in SIDES}
    for run in runs:
        by_side[run["side"]][run["pair"]] = run["result"]
    complete = [p for p in pairs if all(p in by_side[s] for s in SIDES)]
    lines = [
        f"{workload}: {len(complete)} pairs; correct on every run: "
        f"{all(run['result'].get('correct') for run in runs)}",
        f"{'metric':<14}{'parent':>12}{'change':>12}"
        f"{'parent q1-q3':>24}{'wins':>8}  verdict",
    ]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {
            side: [by_side[side][p]["metrics"][name]["value"] for p in complete]
            for side in SIDES
            if complete and name in by_side[side][complete[0]]["metrics"]
        }
        if len(values) < 2:
            continue
        summary = verdict(
            values["parent"], values["change"], metric["better"],
            metric["bound"],
        )
        lines.append(
            f"{name:<14}{summary.parent_median:>12.4g}"
            f"{summary.change_median:>12.4g}"
            f"{summary.parent_q1:>12.4g}-{summary.parent_q3:<11.4g}"
            f"{summary.wins:>4}/{summary.pairs:<3}  {summary.verdict}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revisions = dict(zip(SIDES, map(resolve, (args.parent, args.change))))
    raw = ROOT / ".perfbench" / "pairs" / (
        f"{args.workload}-seed{args.seed}-"
        f"{revisions['parent'][:7]}-{revisions['change'][:7]}.json"
    )
    raw.parent.mkdir(parents=True, exist_ok=True)
    runs: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            export(revisions[side], trees[side])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs.append(
                    dict(
                        pair=pair, side=side, revision=revisions[side],
                        result=run_moved(
                            trees[side], Path(scratch) / RUN_DIR, args
                        ),
                    )
                )
                raw.write_text(json.dumps(
                    dict(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, runs=runs),
                    indent=1,
                ) + "\n")
    print(f"raw runs: {raw}")
    print("\n".join(table(runs, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
