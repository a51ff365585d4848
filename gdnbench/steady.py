#!/usr/bin/env python3
"""Steadiness check for the GDN benchmark.

Runs a set of runs of each workload, one seed per run, and prints each
metric's median and its quartile spread (the distance between the first
and third quartile as a share of the median), next to the bound that
BENCHMARK.json fixes for it. Run from the repository root:

    python3 gdnbench/steady.py --runs 10 --first-seed 1
    python3 gdnbench/steady.py --workloads bulk-download --runs 5

Each run's line also gives the share of CPU time the hypervisor stole
during its measured phase, as the generator prints it on its '#' lines:
on a shared virtual machine that share, not the program, is what moves
wall-clock figures between sets taken at different times.

Exits 1 if a run fails or a spread other than setup_s reaches a third of
its bound (the margin the benchmark is tuned to keep).
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

STEAL = re.compile(r"^# host steal share over the measured phase=(\S+)$", re.M)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="append every run's JSON line to this file")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        shares, steals = set(), []
        started = time.time()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            found = STEAL.search(out.stdout)
            steal = found.group(1) if found else "not printed"
            if found and steal != "unavailable":
                steals.append(float(steal))
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            line = out.stdout.strip().splitlines()[-1]
            res = json.loads(line)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "steal": steal, "result": res}) + "\n")
            shares.add(res["failed"] / res["attempted"])
            if not res["correct"]:
                ok = False
            for m in metrics:
                if m["name"] in res["metrics"]:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"  {wl} seed {seed}: {time.time() - t0:.1f}s attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']} steal={steal}", file=sys.stderr)
        stolen = f"{min(steals):.3f}-{max(steals):.3f}" if steals else "unavailable"
        print(f"{wl}: {args.runs} runs in {time.time() - started:.0f}s, failed shares {sorted(map(str, shares))}, "
              f"steal {stolen}")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<30} {len(v)} values")
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread >= bound / 3:
                flag = "  <-- over a third of the bound"
                ok = False
            print(f"  {m['name']:<30} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
