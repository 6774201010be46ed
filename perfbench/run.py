#!/usr/bin/env python3
"""End-to-end benchmark of the Homework router stack.

Builds the measuring program (perfbench/main) with dune from the source
tree this file sits in, runs one workload and passes its output through:

    python3 perfbench/run.py --workload household --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}). With --trace 1 the traced
pass's spans are written to perfbench/out/trace-<workload>-<seed>.json
(Chrome trace-event JSON; open it in https://ui.perfetto.dev).

Two further modes:

    run.py --steadiness --workload W [--runs 10] [--seconds 10] [--save F]
        repeats the workload on seeds 1..runs and prints each end-to-end
        metric's median and interquartile range as a share of the median,
        calibrated beside raw.

    run.py --selftest [--seconds 1]
        checks the quartile helper on known arrays, then runs every
        workload twice on seed 1 and twice on seed 2, traced (an untraced
        and a traced pass each), and asserts that the exact counters of
        both passes, allocated words per path included, repeat bit-for-bit.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/main/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main", "perfbench.exe")
WORKLOADS = ["household", "stream", "churn", "fleet"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def dune_env():
    """The environment with an opam switch's bin directory on PATH when
    dune is not already reachable."""
    env = dict(os.environ)
    if shutil.which("dune") is None:
        for bindir in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin"))):
            if os.path.exists(os.path.join(bindir, "dune")):
                env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
                break
    return env


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT,
            env=dune_env(),
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exn:
        print(f"perfbench: build failed: {exn}", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.exists(EXE)


def no_aslr():
    """A launcher prefix that disables address-space randomisation, so the
    program's heap and code land at the same addresses in every run and
    cache-conflict patterns do not change from run to run; empty where
    setarch is missing or not permitted."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, os.uname().machine, "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return prefix if ok else []


def run_once(workload, seed, seconds, trace, spans_out=None):
    """Runs the measuring program once; returns (exit code, stdout lines)."""
    cmd = no_aslr() + [EXE, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def parse(lines):
    """(detail, result) from a run's output."""
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartile_spread(values):
    """Interquartile range as a share of the median, with quartiles as
    statistics.quantiles(values, n=4) gives them (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def steadiness(args):
    rows = {}
    for seed in range(args.seed, args.seed + args.runs):
        code, lines = run_once(args.workload, seed, args.seconds, 0)
        if code != 0:
            print("\n".join(lines[-2:]), file=sys.stderr)
            print(f"perfbench: {args.workload} seed {seed} failed", file=sys.stderr)
            return 1
        detail, result = parse(lines)
        for name, m in result["metrics"].items():
            rows.setdefault(name, {"unit": m["unit"], "cal": [], "raw": []})["cal"].append(m["value"])
            raw = detail["raw"].get(name + "_raw")
            if raw is not None:
                rows[name]["raw"].append(raw["value"])
    print(f"{args.workload}: {args.runs} runs x {args.seconds} s, seeds {args.seed}..{args.seed + args.runs - 1}")
    print(f"{'metric':<22}{'unit':<10}{'median':>12}{'IQR%':>8}{'raw median':>14}{'raw IQR%':>10}")
    for name, r in rows.items():
        raw_med = f"{statistics.median(r['raw']):>14.6g}" if r["raw"] else f"{'-':>14}"
        raw_iqr = f"{100 * quartile_spread(r['raw']):>10.2f}" if r["raw"] else f"{'-':>10}"
        print(f"{name:<22}{r['unit']:<10}{statistics.median(r['cal']):>12.6g}"
              f"{100 * quartile_spread(r['cal']):>8.2f}{raw_med}{raw_iqr}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
                       "first_seed": args.seed,
                       "taken_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                       "metrics": rows}, f, indent=1)
            f.write("\n")
    return 0


def selftest(args):
    # quartile helper on known arrays (values checked against
    # statistics.quantiles' documented "exclusive" method)
    assert statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
    assert abs(quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 5.5 / 5.5) < 1e-12
    assert quartile_spread([4.0, 4.0, 4.0, 4.0]) == 0.0
    # determinism: the exact counters of two runs on one seed must match,
    # whether or not a run this short has enough samples to pass its checks
    ok = True
    for workload in WORKLOADS:
        for seed in (1, 2):
            exacts = []
            for _ in range(2):
                code, lines = run_once(workload, seed, args.seconds, 1)
                try:
                    detail, _ = parse(lines)
                except (IndexError, ValueError, KeyError):
                    print(f"FAIL {workload} seed {seed}: exit {code}, no result")
                    ok = False
                    break
                exacts.append({**{"untraced." + k: v for k, v in detail["exact"].items()},
                               **{"traced." + k: v for k, v in detail["exact_traced"].items()}})
            if len(exacts) == 2:
                diff = {k: [e.get(k) for e in exacts] for k in exacts[0]
                        if exacts[1].get(k) != exacts[0][k]}
                print(f"{'ok  ' if not diff else 'FAIL'} {workload} seed {seed}: "
                      f"{len(exacts[0])} exact counters "
                      f"{'repeat' if not diff else 'differ: ' + json.dumps(diff)}")
                ok = ok and not diff
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.steadiness:
        return steadiness(args)
    spans_out = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_out = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace, spans_out)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
