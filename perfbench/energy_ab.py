#!/usr/bin/env python3
"""One-off ledger measurement: what energy metering costs on mesh16.

Runs mesh16 with the EnergyModel attached (as the workload does) and with
it off, in alternating order, and prints each side's median and quartiles
of sim_s_per_wall_s and how many pairs metering-off won.

  python3 perfbench/energy_ab.py [--pairs 10] [--seconds 20] [--seed 1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(seed, seconds, energy):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mesh16",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--energy", "on" if energy else "off"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return metrics["sim_s_per_wall_s"]["value"]


def describe(name, values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    print(f"{name:>12}: median {med:,.0f}  quartiles {q1:,.0f} .. {q3:,.0f}  "
          f"(n={len(values)})")
    return med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    on, off = [], []
    for i in range(args.pairs):
        order = (True, False) if i % 2 == 0 else (False, True)
        for energy in order:
            (on if energy else off).append(run(args.seed, args.seconds, energy))
        print(f"pair {i + 1}: on {on[-1]:,.0f}  off {off[-1]:,.0f}", flush=True)
    med_on = describe("energy on", on)
    med_off = describe("energy off", off)
    wins = sum(1 for a, b in zip(off, on) if a > b)
    print(f"metering off faster in {wins}/{args.pairs} pairs; "
          f"median cost {1 - med_on / med_off:+.1%} of sim_s_per_wall_s")


if __name__ == "__main__":
    main()
