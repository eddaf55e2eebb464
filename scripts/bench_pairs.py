"""Interleaved parent/change runs of the benchmark, and their verdict.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S --seed0 K

Each directory is a checkout holding ``BENCHMARK.json`` and the benchmark
it names.  Pair i runs the benchmark command with ``--workload W --seed
K+i --seconds S --trace 0`` once in each checkout, the parent first on
even i and the change first on odd i, and reads the result object from
the last line the run prints.  For each end-to-end metric of the parent's
``BENCHMARK.json`` it then prints both sides' medians and quartiles, the
pairs the change wins by the metric's ``better`` direction (ties count
for neither side), and whether the pairs show a gain: the change wins at
least nine pairs in ten, and its median is better than the parent's by
more than the parent's interquartile range.  Failed and attempted rows
are summed per side.

The two checkouts must be alike in one respect the benchmark cannot see:
a tree holding ``src/qtransistor/__pycache__`` skips compiling the
package, so it starts sooner and peaks lower.  When exactly one of them
holds it, the script runs nothing and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """Result object of one benchmark run in ``checkout``."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, end_to_end: list) -> list:
    """Verdict lines for ``pairs`` of (parent, change) result objects."""
    lines = []
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        sign = 1.0 if better == "higher" else -1.0
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (q1, med, q3), (c1, cmed, c3) = _quartiles(old), _quartiles(new)
        gain = 10 * wins >= 9 * len(pairs) and sign * (cmed - med) > q3 - q1
        lines.append(
            f"{name} ({better} is better): parent {med:.6g} "
            f"[{q1:.6g}, {q3:.6g}] -> change {cmed:.6g} [{c1:.6g}, "
            f"{c3:.6g}]; change wins {wins}/{len(pairs)}; gain "
            + ("shown" if gain else "not shown"))
    for side, label in ((0, "parent"), (1, "change")):
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        lines.append(f"{label}: {failed}/{attempted} rows failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cached = [(checkout / "src" / "qtransistor" / "__pycache__").is_dir()
              for checkout in (args.parent, args.change)]
    if cached[0] != cached[1]:
        print(f"bench_pairs: only the {('parent', 'change')[cached[1]]} "
              "checkout holds src/qtransistor/__pycache__, which makes its "
              "runs start sooner and peak lower; remove it or compile both",
              file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))

    pairs = []
    for i in range(args.pairs):
        seed, order = args.seed0 + i, (0, 1) if i % 2 == 0 else (1, 0)
        runs = [None, None]
        for side in order:
            runs[side] = run_once((args.parent, args.change)[side],
                                  bench["command"], args.workload, seed,
                                  args.seconds)
        pairs.append(tuple(runs))
        values = ", ".join(
            f"{name} {runs[0]['metrics'][name]['value']:.6g} -> "
            f"{runs[1]['metrics'][name]['value']:.6g}"
            for name in (m["name"] for m in bench["end_to_end"]))
        print(f"pair {i + 1}/{args.pairs}, seed {seed}, "
              f"{('parent', 'change')[order[0]]} first: {values}",
              flush=True)
    print("\n".join(summarize(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
