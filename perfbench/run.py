#!/usr/bin/env python3
"""SafeFlow time-to-verdict benchmark: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest     # determinism check
    python3 perfbench/run.py --metadata     # rewrite perfbench/METADATA.json

The benchmark is an OCaml executable (perfbench/main.ml) linked against
the SafeFlow library; this script builds it with dune from the sources
in the current directory and hands over the arguments.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status is non-zero, with no result printed,
when the sources or the build are missing.
"""

import argparse
import json
import os
import platform
import socket
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["wide", "deep", "audit", "edit"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "baselines", "systems", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die(f"run from the repository root: {need} not found")
    # no shared dune cache: the build reads and writes inside this tree only
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
                       stdout=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run(args, capture=False):
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE if capture else None, text=True)
    if r.returncode != 0:
        die(f"{' '.join(args)} exited with {r.returncode}")
    return r.stdout


def metadata(seed, seconds):
    """Host and format identity, plus the layer shares each workload's
    traced run measured, written to perfbench/METADATA.json."""
    meta = json.loads(run(["meta"], capture=True).strip().splitlines()[-1])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    meta.update({
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit.stdout.strip() or None,
        "seed": seed,
        "seconds": seconds,
    })
    for w in meta["workloads"]:
        out = run(["--workload", w["name"], "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1"], capture=True)
        m = json.loads(out.strip().splitlines()[-1])["metrics"]
        w["layer_shares"] = {k[:-len(".share")]: round(v["value"], 4)
                             for k, v in m.items() if k.endswith(".share")}
    path = os.path.join("perfbench", "METADATA.json")
    with open(path, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--metadata", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        run(["selftest"])
    elif a.metadata:
        metadata(a.seed, a.seconds)
    elif a.workload:
        run(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--trace", a.trace])
    else:
        ap.error("--workload, --selftest or --metadata is required")


if __name__ == "__main__":
    main()
