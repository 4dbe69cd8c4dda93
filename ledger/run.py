#!/usr/bin/env python3
"""Layer-ledger benchmark: run the built scald_tv on generated workloads.

Usage, from the repository root:

  python3 ledger/run.py --workload W --seed N [--seconds S] [--trace 0|1] [--out F]
  python3 ledger/run.py [--seed N] [--out F]   every workload, both passes
  python3 ledger/run.py --smoke                500-chip self-check, ~6 s

Each run builds scald_tv and the ledger program with dune, generates the
workload's inputs from the seed (ledger/main.exe gen), and then either

  --trace 0  measures the end-to-end metrics by running the real
             bin/scald_tv.exe as a child process (one process per
             verdict, or one long-lived `scald_tv serve` driven by one
             closed-loop client), or
  --trace 1  measures the per-layer ledger with a separate traced run
             (ledger/main.exe trace) next to a few untraced operations.

Every verdict is checked against the verdicts the generator planted.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --out appends it, tagged with workload,
seed and pass, to a JSON-lines file that compare.py reads.  Workloads,
metric names, units and bounds live in BENCHMARK.json.  Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
SCALD = os.path.join("_build", "default", "bin", "scald_tv.exe")
PROG = os.path.join("_build", "default", HERE, "main.exe")
CALIBRATE = os.path.join("_build", "default", HERE, "calibrate.exe")
WORK = ".ledger-work"
HEADER = "SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS"
SETUPS = 3  # set-up repetitions per run; setup_s is their median
# The calibration job's time on the reference host, a quiet 2-vCPU Xeon
# VM.  Every time this benchmark reports is a measured wall time scaled by
# REF_CAL_S over the mean of the job's times just before and just after
# the measurement: seconds as the reference host would have taken.  A
# shared host that runs 50% slower for minutes at a time slows the job
# and the measured operation alike, so the ratio holds where the raw wall
# time does not.
REF_CAL_S = 0.040
# untraced operations at least, whatever --seconds says: scald_tv runs
# for the CLI workloads, edit cycles for serve
MIN_OPS = {"runs": 3, "cycles": 1}
SMOKE_OPS = {"runs": 5, "cycles": 20}


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except OSError as e:
        die(f"cannot read BENCHMARK.json ({e}); run from the repository root")


def build():
    if not os.path.isfile("dune-project"):
        die("no dune-project here; run from the repository root")
    # keep every file the build writes inside the checkout: no shared
    # dune cache, compiler temporaries under the work directory
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/scald_tv.exe", f"./{HERE}/main.exe",
         f"./{HERE}/calibrate.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp),
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("dune build failed")


def gen(workload, seed, scale):
    os.makedirs(WORK, exist_ok=True)
    r = subprocess.run([PROG, "gen", workload, str(seed), scale, WORK])
    if r.returncode != 0:
        die(f"input generation failed for {workload}")
    with open(os.path.join(WORK, workload + ".json")) as f:
        return json.load(f)


def now():
    return time.perf_counter()


def calibration():
    """The calibration job's time now, in seconds."""
    r = subprocess.run([CALIBRATE], stdout=subprocess.PIPE)
    if r.returncode != 0:
        die("calibration failed")
    return float(r.stdout.split()[0])


class Bracket:
    """Host factors for a series of operations, each bracketed by the
    calibration before it and the one after it (which opens the next)."""

    def __init__(self):
        self.before = calibration()

    def factor(self):
        after = calibration()
        f = 2 * REF_CAL_S / (self.before + after)
        self.before = after
        return f


# ---- verdict checks: the generator's planted violations ------------------------


def listing_body(listing):
    """Violation lines of the first (reference-corner) error listing."""
    lines = listing.split("\n")
    if HEADER not in lines:
        return None
    body = []
    for line in lines[lines.index(HEADER) + 1:]:
        if line == "":
            break
        if line != "(no errors)":
            body.append(line)
    return body


def listing_ok(m, listing):
    body = listing_body(listing)
    if body is None or len(body) != 2 * len(m["planted"]):
        return False
    for net in m["planted"]:
        for kind in ("SETUP", "HOLD"):
            needle = f": {kind} TIME VIOLATED  SIGNAL = {net}  "
            if sum(needle in line for line in body) != 1:
                return False
    return True


def corner_counts(listing):
    """Per-corner error counts of the MULTI-CORNER SUMMARY, in table order."""
    lines = listing.split("\n")
    if "MULTI-CORNER SUMMARY" not in lines:
        return []
    counts = []
    for line in lines[lines.index("MULTI-CORNER SUMMARY") + 1:]:
        if line.strip() == "":
            break
        counts.append(int(line.split()[-2]))
    return counts


# ---- child processes -----------------------------------------------------------


def run_cli(args):
    """One scald_tv process: wall time from exec to exit, exit code,
    standard output and peak RSS in kB (from wait4)."""
    t0 = now()
    p = subprocess.Popen([SCALD] + args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out.decode(errors="replace"), ru.ru_maxrss


class Daemon:
    """One `scald_tv serve` process and its single closed-loop client: each
    request is written only after the previous response has been read."""

    def __init__(self):
        self.p = subprocess.Popen(
            [SCALD, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        hello = self.p.stdout.readline()
        if not hello:
            self.kill()
            die("scald_tv serve printed no banner")

    def request(self, line):
        """Send one request; return (latency in s, decoded response or None)."""
        t0 = now()
        self.p.stdin.write(line.encode() + b"\n")
        self.p.stdin.flush()
        resp = self.p.stdout.readline()
        dt = now() - t0
        try:
            return dt, json.loads(resp)
        except ValueError:
            return dt, None

    def shutdown(self):
        """Stop the daemon and return its peak RSS in kB."""
        self.request('{"op":"shutdown"}')
        self.p.stdin.close()
        self.p.stdout.close()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_maxrss

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            os.wait4(self.p.pid, 0)
            self.p.returncode = -9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


# ---- the CLI workloads ---------------------------------------------------------


def cli_verdict(m, tally):
    wall, code, out, rss = run_cli(m["args"])
    tally.count(code == m["exit"] and listing_ok(m, out))
    return wall, rss, out


def check_corners(m, listing, tally):
    """Each non-reference corner of the packed run against a dedicated
    single-corner run at that corner."""
    packed = corner_counts(listing)
    for i, corner in enumerate(m["other_corners"], start=1):
        args = [a if a != m["corners"] else corner for a in m["args"]]
        _, code, out, _ = run_cli(args)
        body = listing_body(out)
        tally.count(code in (0, 2) and body is not None and len(packed) > i
                    and packed[i] == len(body))


def cli_end_to_end(workload, seed, scale, seconds, tally, tamper, min_ops):
    setups = []
    host = Bracket()
    for _ in range(SETUPS):
        t0 = now()
        m = tamper(gen(workload, seed, scale))
        _, _, listing = cli_verdict(m, tally)
        setups.append((now() - t0) * host.factor())
    if m.get("other_corners"):
        check_corners(m, listing, tally)
    walls, raw, rss = [], [], []
    host = Bracket()
    deadline = now() + seconds
    while len(walls) < min_ops or now() < deadline:
        wall, kb, _ = cli_verdict(m, tally)
        walls.append(wall * host.factor() * 1000)
        raw.append(wall * 1000)
        rss.append(kb)
    return setups, walls, raw, statistics.median(rss) / 1024


# ---- the serve workload --------------------------------------------------------


def serve_cycles(d, m, tally, seconds, min_cycles, on_cycle, calibrate=True):
    """Replay the edit cycles (wrapping round the script) for `seconds`;
    on_cycle gets each cycle's four request latencies and the cycle's host
    factor (1 when not calibrating)."""
    cycles = m["cycles"]
    host = Bracket() if calibrate else None
    deadline = now() + seconds
    i = 0
    while i < min_cycles or now() < deadline:
        lat = []
        for j, line in enumerate(cycles[i % len(cycles)]):
            dt, resp = d.request(line)
            ok = resp is not None and resp.get("ok") is True
            if j == 3:  # the verify after the revert: back to the planted verdicts
                ok = ok and resp.get("violations") == m["violations"]
            tally.count(ok)
            lat.append(dt)
        on_cycle(lat, host.factor() if host else 1.0)
        i += 1


def serve_start(m, tally):
    d = Daemon()
    _, resp = d.request(m["load"])
    tally.count(resp is not None and resp.get("ok") is True)
    return d


def serve_end_to_end(workload, seed, scale, seconds, tally, tamper, min_ops):
    setups = []
    d = None
    try:
        host = Bracket()
        for _ in range(SETUPS):
            if d is not None:
                d.shutdown()
            t0 = now()
            m = tamper(gen(workload, seed, scale))
            d = serve_start(m, tally)
            setups.append((now() - t0) * host.factor())
        verify_ms, raw = [], []

        def on_cycle(lat, f):
            verify_ms.extend([lat[1] * f * 1000, lat[3] * f * 1000])
            raw.extend([lat[1] * 1000, lat[3] * 1000])

        serve_cycles(d, m, tally, seconds, min_ops, on_cycle)
        rss = d.shutdown()
    finally:
        if d is not None:
            d.kill()
    return setups, verify_ms, raw, rss / 1024


# ---- the two passes ------------------------------------------------------------


def end_to_end(workload, seed, scale, seconds, tamper, min_ops):
    tally = Tally()
    if workload == "serve_edits":
        setups, lat, raw, rss = serve_end_to_end(workload, seed, scale, seconds, tally, tamper,
                                                 min_ops["cycles"])
        what = "verify requests"
    else:
        setups, lat, raw, rss = cli_end_to_end(workload, seed, scale, seconds, tally, tamper,
                                               min_ops["runs"])
        what = "scald_tv runs"
    q1, q2, q3 = statistics.quantiles(lat, n=4) if len(lat) > 1 else (lat[0],) * 3
    print(f"{workload}: {len(lat)} {what}; verdict ms quartiles {q1:.2f} / {q2:.2f} / {q3:.2f} "
          f"(wall median {statistics.median(raw):.2f}); "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_ms_p50": statistics.median(lat),
        "peak_rss_mb": rss,
    }
    return tally, metrics


def traced(workload, seed, scale, seconds, tamper, min_ops):
    """A few untraced operations, then the traced run for the rest of the
    time; trace.overhead is the traced op time over the untraced median."""
    tally = Tally()
    m = tamper(gen(workload, seed, scale))
    budget = 0.3 * seconds
    if workload == "serve_edits":
        d = serve_start(m, tally)
        pairs = []
        try:
            # one op = a delta and the verify after it, as in the trace
            serve_cycles(d, m, tally, budget, min(min_ops["cycles"], 5),
                         lambda lat, _: pairs.extend([lat[0] + lat[1], lat[2] + lat[3]]),
                         calibrate=False)
            d.shutdown()
        finally:
            d.kill()
        untraced = statistics.median(pairs)
    else:
        walls = []
        deadline = now() + budget
        while len(walls) < 2 or now() < deadline:
            walls.append(cli_verdict(m, tally)[0])
        untraced = statistics.median(walls)
    cal = [calibration() for _ in range(3)]
    r = subprocess.run([PROG, "trace", os.path.join(WORK, workload + ".json"),
                        str(max(0.0, seconds - budget))], stdout=subprocess.PIPE)
    if r.returncode != 0:
        die(f"traced run failed for {workload}")
    cal += [calibration() for _ in range(3)]
    f = REF_CAL_S / statistics.median(cal)
    t = json.loads(r.stdout.decode().strip().split("\n")[-1])
    tally.attempted += t["ops"]
    tally.failed += t["failed"]
    print(f"{workload}: {t['ops']} traced ops, {t['op_s'] * 1000:.2f} ms each; self time per fine layer:")
    for layer, s in t["fine_s"].items():
        if s > 0:
            print(f"  {layer:<18} {s * 1000:10.3f} ms")
    # layer times in reference-host seconds, like the end-to-end times
    metrics = {k: v * f if k.endswith("_s") else v for k, v in t["metrics"].items()}
    metrics["trace.overhead"] = t["op_s"] / untraced
    return tally, metrics


def run(spec, workload, seed, seconds, trace, scale="full", tamper=lambda m: m,
        min_ops=MIN_OPS):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        die(f"unknown workload {workload!r}; known: {', '.join(names)}")
    step = traced if trace else end_to_end
    tally, values = step(workload, seed, scale, seconds, tamper, min_ops)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [x["name"] for x in wanted if x["name"] not in values]
    if missing:
        die(f"{workload}: no value for {', '.join(missing)}")
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in wanted}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def append(path, workload, seed, trace, result):
    if path:
        with open(path, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "result": result}) + "\n")


# ---- smoke test ----------------------------------------------------------------


def shape_errors(spec, result, trace):
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errs.append("attempted is not a positive whole number")
    if not isinstance(result.get("failed"), int):
        errs.append("failed is not a whole number")
    wanted = {x["name"]: x["unit"] for x in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        errs.append(f"metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, v in got.items():
        if set(v) != {"value", "unit"} or v["unit"] != wanted.get(name):
            errs.append(f"{name}: {v}")
        elif not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
            errs.append(f"{name}: value {v['value']!r} is not a number")
    return errs


def smoke(spec):
    """Every workload through both passes at 500 chips, five runs and twenty
    serve cycles each; then one run against a wrong expected verdict,
    which must be counted as failed."""
    t0 = now()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = run(spec, w["name"], 1, 0, trace, scale="smoke", min_ops=SMOKE_OPS)
            for e in shape_errors(spec, r, trace):
                problems.append(f"{w['name']} --trace {trace}: {e}")
            if not r["correct"] or r["failed"]:
                problems.append(f"{w['name']} --trace {trace}: {r['failed']} of {r['attempted']} failed")

    def wrong(m):
        m["planted"][0] = "NO SUCH NET"
        return m

    r = run(spec, "sweep256", 1, 0, 0, scale="smoke", tamper=wrong, min_ops=SMOKE_OPS)
    if r["correct"] or r["failed"] != r["attempted"]:
        problems.append(f"wrong expected verdicts not caught: {r['failed']} of {r['attempted']} failed")
    for p in problems:
        print("SMOKE FAIL:", p)
    ok = not problems
    print(f"smoke {'passed' if ok else 'FAILED'} in {now() - t0:.1f} s")
    return ok


# ---- entry point ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", help="append each result as a JSON line to this file")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    build()
    if a.smoke:
        sys.exit(0 if smoke(spec) else 1)
    seconds = spec["run_seconds"] if a.seconds is None else a.seconds
    if a.workload:
        trace = a.trace or 0
        result = run(spec, a.workload, a.seed, seconds, trace)
        append(a.out, a.workload, a.seed, trace, result)
        print(json.dumps(result))
        return
    # every workload, both passes, every metric by name with its unit
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in spec["workloads"]:
        for trace in ((0, 1) if a.trace is None else (a.trace,)):
            result = run(spec, w["name"], a.seed, seconds, trace)
            append(a.out, w["name"], a.seed, trace, result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            rows.append(f"  {w['name']:<13} ops {result['attempted']:>6}  failed {result['failed']}")
            for name, v in result["metrics"].items():
                combined["metrics"][f"{w['name']}/{name}"] = v
                rows.append(f"  {w['name']:<13} {name:<26} {v['value']:>14.6g} {v['unit']}")
    print("\n".join(rows))
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
