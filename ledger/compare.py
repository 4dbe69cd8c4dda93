#!/usr/bin/env python3
"""Compare two commits on the layer-ledger benchmark.

  python3 ledger/compare.py run --parent DIR --change DIR [--pairs 10]
          [--seed 1] [--workload W ...] [--trace 0|1] --out FILE
  python3 ledger/compare.py report FILE

`run` measures pairs: pair i runs every workload at seed (seed + i) on
both checkouts, parent first on even pairs and change first on odd ones,
with the same ledger/run.py settings on both sides.  Each DIR is a
source checkout holding BENCHMARK.json and the ledger directory (copy
them into the parent if it predates them).  Every run.py result is
appended to FILE as one JSON line tagged with its side and pair.

`report` prints, for each workload and end-to-end metric, each side's
median and quartiles, the fraction of pairs the change wins (ties count
for neither side) and a verdict:

  gain        the change wins at least 9 pairs in 10 and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  the parent's quartile spread is wider than the bound and
              not every change run beats every parent run
  unchanged   otherwise

Per-layer results (--trace 1 runs) are compared pair by pair: counts and
allocations must match exactly, since the program makes them
deterministically; times are listed as medians.  A gain needs at least
10 pairs.  Exits 1 when a regression or a counter mismatch is found.
Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "Mw")  # per-layer units the program reproduces exactly


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_pairs(a, spec):
    rel = os.path.relpath(os.path.join(HERE, "run.py"), os.path.dirname(HERE))
    for side in (a.parent, a.change):
        if not os.path.isfile(os.path.join(side, rel)):
            sys.exit(f"compare.py: {side} has no {rel}; copy the benchmark into it first")
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    for i in range(a.pairs):
        order = [("parent", a.parent), ("change", a.change)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for rank, (side, path) in enumerate(order):
                r = subprocess.run(
                    ["python3", rel, "--workload", w, "--seed", str(a.seed + i),
                     "--trace", str(a.trace)],
                    cwd=path, stdout=subprocess.PIPE)
                if r.returncode != 0:
                    sys.exit(f"compare.py: {side} run failed on {w}, pair {i}")
                result = json.loads(r.stdout.decode().strip().split("\n")[-1])
                line = {"side": side, "pair": i, "first": rank == 0, "workload": w,
                        "seed": a.seed + i, "trace": a.trace, "result": result}
                with open(a.out, "a") as f:
                    f.write(json.dumps(line) + "\n")
                print(f"pair {i} {w:<13} {side:<6} failed {result['failed']}/{result['attempted']}")


def quartiles(values):
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, bound, lower_better):
    """parent, change: values in pair order (equal lengths)."""
    sign = 1 if lower_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse = sign * (cm - pm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        v = "gain"
    elif worse > bound:
        v = "regression"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, wins / len(parent), worse


def report(path, spec):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = False
    for (w, trace), pairs in sorted(runs.items()):
        done = sorted(i for i, sides in pairs.items() if set(sides) == {"parent", "change"})
        if not done:
            continue
        print(f"\n{w} ({'per-layer' if trace else 'end-to-end'}, {len(done)} pairs)")
        if len(done) < 10:
            print("  fewer than 10 pairs: no gain can be claimed")
        for side in ("parent", "change"):
            failed = sum(pairs[i][side]["failed"] for i in done)
            attempted = sum(pairs[i][side]["attempted"] for i in done)
            print(f"  {side}: {failed} of {attempted} operations failed")
        names = list(pairs[done[0]]["parent"]["metrics"])
        for name in names:
            spec_m = units.get(name, {"unit": "?", "better": "lower"})
            par = [pairs[i]["parent"]["metrics"][name]["value"] for i in done]
            chg = [pairs[i]["change"]["metrics"][name]["value"] for i in done]
            pq, cq = quartiles(par), quartiles(chg)
            cols = (f"  {name:<22} parent {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  change {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec_m['unit']}")
            if trace and spec_m["unit"] in EXACT_UNITS:
                diff = [i for i, p, c in zip(done, par, chg) if p != c]
                bad |= bool(diff)
                print(f"{cols}  {'identical' if not diff else 'DIFFERS in pairs ' + str(diff)}")
            elif trace:
                print(cols)
            else:
                v, wins, worse = verdict(par, chg, spec_m["bound"], spec_m["better"] == "lower")
                bad |= v == "regression"
                print(f"{cols}  wins {wins:.0%}  worse {worse:+.1%} (bound {spec_m['bound']:.0%})  {v}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("file")
    a = ap.parse_args()
    spec = load_spec()
    if a.cmd == "run":
        run_pairs(a, spec)
    else:
        sys.exit(1 if report(a.file, spec) else 0)


if __name__ == "__main__":
    main()
