"""Run-to-run spread of the benchmark, and paired A/B runs of one setting.

    python3 bench/spread.py --workload train --seeds 1-10 --seconds 20
    python3 bench/spread.py --workload reproduce --seeds 1-5 --seconds 20 \\
        --pair ECGKIT_THREADS=2

Without ``--pair`` it runs ``bench/run.py`` once per seed, one run at a
time, and prints for each end-to-end metric the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median. With ``--pair NAME=VALUE`` each seed runs twice, once
with the variable unset and once set, alternating which goes first, and it
prints both medians, quartile spreads and how many pairs the setting won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, env):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=RUN.parent.parent, env=env, capture_output=True, text=True,
        timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pair", default=None, metavar="NAME=VALUE")
    args = parser.parse_args()

    base = dict(os.environ)
    sides = {"base": base}
    if args.pair:
        name, _, value = args.pair.partition("=")
        base.pop(name, None)
        sides = {"unset": base, args.pair: dict(base, **{name: value})}
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            metrics = run_once(args.workload, seed, args.seconds, sides[side])
            runs[side].append(metrics)
            print(json.dumps({"side": side, "seed": seed, **metrics}),
                  flush=True)

    for side, results in runs.items():
        for metric in results[0]:
            median, share = spread([r[metric] for r in results])
            print(f"{side:>20} {metric:>12} median {median:.6g} "
                  f"quartile spread {share:.2%} (n={len(results)})")
    if args.pair:
        (a, ra), (b, rb) = runs.items()
        for metric in ra[0]:
            wins = sum(y[metric] < x[metric] for x, y in zip(ra, rb))
            print(f"{metric}: {b} lower than {a} in {wins}/{len(ra)} pairs")


if __name__ == "__main__":
    main()
