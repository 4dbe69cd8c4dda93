#!/usr/bin/env python3
"""Check the evaluator's two counter laws on scald metrics files.

Usage: check_metrics_laws.py METRICS.json...

A report carries one counter snapshot, so in every metrics file
(scald_tv --metrics, scald_tv serve --metrics, BENCH_<id>.json):

  events_queued = evaluations + events_coalesced   when "converged"
  sum(evals_by_kind) = evaluations

Exits 0 when every file satisfies both, 1 naming each failure.
"""

import json
import sys


def failures(path):
    with open(path) as f:
        m = json.load(f)
    out = []
    if m["converged"] and m["events_queued"] != m["evaluations"] + m["events_coalesced"]:
        out.append("events_queued %d != evaluations %d + events_coalesced %d"
                   % (m["events_queued"], m["evaluations"], m["events_coalesced"]))
    by_kind = sum(m["evals_by_kind"].values())
    if by_kind != m["evaluations"]:
        out.append("evals_by_kind sums to %d, evaluations is %d" % (by_kind, m["evaluations"]))
    return out


def main(paths):
    bad = False
    for path in paths:
        for msg in failures(path):
            print("%s: %s" % (path, msg))
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
