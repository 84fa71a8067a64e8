#!/usr/bin/env python3
"""Maintain BENCH_host.json: host wall-clock trajectory per grid per PR.

The checked-in sweep reports are untimed by design (byte-stable), so
host-time history needs its own ledger.  Each entry records the
host_ms_total of one timed sweep (`sweep_main --time`) at one PR, plus
the per-phase totals (summed host_ms_build / _setup / _clone / _run of
its cells) when the report carries them:

    {"schema": "ssp-host-bench-v1",
     "entries": [{"pr": 7, "figure": "scale64", "cells": 54,
                  "host_ms_total": 15200.0,
                  "phase_ms": {"build": 300.0, "setup": 12100.0,
                               "clone": 0.0, "run": 2700.0}}, ...]}

Subcommands:

  append LEDGER --pr N TIMED.json [TIMED.json ...]
      Record each timed report's host_ms_total (and phase totals) under
      PR N, replacing any existing (pr, figure) entry so re-runs are
      idempotent.

  compare LEDGER TIMED.json [--threshold X] [--warn-only]
      Compare a fresh timed run against the most recent ledger entry
      for the same figure, and print that figure's full trajectory.
      Entries whose cell count differs (a subset or grown grid) are
      reported but never compared.  Exit 1 if the fresh run is slower
      than --threshold x the last recorded total (default 1.5 — host
      ledgers span different machines, so the bar is loose), unless
      --warn-only.  Shared CI runners are noisy: CI passes --warn-only
      and the ledger is only appended to deliberately, from a dev box.
"""

import argparse
import json
import sys

SCHEMA = "ssp-host-bench-v1"
# Per-cell host phases a timed report carries (sweep_runner.hh).
PHASES = ("build", "setup", "clone", "run")


def load_ledger(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return {"schema": SCHEMA, "entries": []}
    if doc.get("schema") != SCHEMA:
        sys.exit(f"host_bench: {path} has schema {doc.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
    return doc


def load_timed(path):
    with open(path) as f:
        doc = json.load(f)
    if "host_ms_total" not in doc:
        sys.exit(f"host_bench: {path} has no host_ms_total "
                 "(re-run sweep_main with --time)")
    bad = [c["label"] for c in doc.get("cells", []) if not c.get("ok")]
    if bad:
        sys.exit(f"host_bench: {path} has {len(bad)} failed cell(s) "
                 f"(e.g. {bad[0]}); refusing to record a partial total")
    timed = {
        "figure": doc["figure"],
        "cells": len(doc.get("cells", [])),
        "host_ms_total": doc["host_ms_total"],
    }
    cells = doc.get("cells", [])
    if cells and all(f"host_ms_{p}" in c for c in cells for p in PHASES):
        timed["phase_ms"] = {
            p: round(sum(c[f"host_ms_{p}"] for c in cells), 3)
            for p in PHASES
        }
    return timed


def cmd_append(args):
    ledger = load_ledger(args.ledger)
    for path in args.timed:
        timed = load_timed(path)
        entry = {"pr": args.pr, **timed}
        ledger["entries"] = [
            e for e in ledger["entries"]
            if not (e["pr"] == args.pr and e["figure"] == timed["figure"])
        ] + [entry]
        phases = "".join(f", {p} {ms:.1f}"
                         for p, ms in timed.get("phase_ms", {}).items())
        print(f"recorded pr {args.pr} {timed['figure']} "
              f"({timed['cells']} cells): "
              f"{timed['host_ms_total']:.1f} ms{phases}")
    ledger["entries"].sort(key=lambda e: (e["figure"], e["pr"]))
    with open(args.ledger, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    return 0


def cmd_compare(args):
    ledger = load_ledger(args.ledger)
    timed = load_timed(args.timed)
    history = [e for e in ledger["entries"]
               if e["figure"] == timed["figure"]]
    if not history:
        print(f"host_bench: no ledger history for figure "
              f"'{timed['figure']}'; nothing to compare")
        return 0

    print(f"{'pr':>4} {'cells':>6} {'host_ms_total':>14}")
    for e in history:
        print(f"{e['pr']:>4} {e['cells']:>6} {e['host_ms_total']:>14.1f}")
    print(f"{'now':>4} {timed['cells']:>6} "
          f"{timed['host_ms_total']:>14.1f}")

    last = history[-1]
    if last["cells"] != timed["cells"]:
        print(f"cell count changed ({last['cells']} -> {timed['cells']}); "
              "totals are not comparable, skipping the gate")
        return 0
    ratio = (timed["host_ms_total"] / last["host_ms_total"]
             if last["host_ms_total"] > 0 else float("inf"))
    print(f"vs pr {last['pr']}: {ratio:.2f}x")
    if ratio > args.threshold:
        print(f"host-time regression beyond {args.threshold}x"
              + (" (warn-only)" if args.warn_only else ""))
        return 0 if args.warn_only else 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    ap_append = sub.add_parser("append", help="record timed totals")
    ap_append.add_argument("ledger")
    ap_append.add_argument("--pr", type=int, required=True)
    ap_append.add_argument("timed", nargs="+")
    ap_append.set_defaults(func=cmd_append)

    ap_compare = sub.add_parser("compare",
                                help="gate a fresh timed run")
    ap_compare.add_argument("ledger")
    ap_compare.add_argument("timed")
    ap_compare.add_argument("--threshold", type=float, default=1.5)
    ap_compare.add_argument("--warn-only", action="store_true")
    ap_compare.set_defaults(func=cmd_compare)

    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
