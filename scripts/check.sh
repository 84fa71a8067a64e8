#!/usr/bin/env bash
#
# Full local CI pipeline: configure, build, run the test suite, then
# prove the sweep/JSON pipeline end to end with one smoke cell.
#
# Usage: scripts/check.sh [--lint] [--tsan] [--regen] [build-dir]
#        (default build-dir: build)
#
#   --lint   also run clang-format --dry-run --Werror over every
#            tracked C++ source (mirrors the CI format-lint job).
#   --tsan   configure a separate Debug build with -fsanitize=thread
#            and run ctest only (mirrors the CI gcc-debug-tsan leg);
#            the sweep/JSON pipeline steps are skipped.
#   --regen  build, then regenerate all nine checked-in BENCH_*.json
#            grids into <build-dir>/regen/ and cmp each against the
#            checked-in file, and check the fig5 run printed both
#            Figure 5 geomean rows (mirrors the CI gcc-release
#            regeneration gate); ctest and the other pipeline steps are
#            skipped.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_lint=0
run_tsan=0
run_regen=0
while [ $# -gt 0 ]; do
    case "$1" in
        --lint) run_lint=1; shift ;;
        --tsan) run_tsan=1; shift ;;
        --regen) run_regen=1; shift ;;
        *) break ;;
    esac
done
if [ "$run_tsan" = 1 ]; then
    build_dir="${1:-$repo_root/build-tsan}"
else
    build_dir="${1:-$repo_root/build}"
fi
jobs="$(nproc 2>/dev/null || echo 2)"

if [ "$run_lint" = 1 ]; then
    echo "== clang-format lint =="
    if ! command -v clang-format >/dev/null; then
        echo "error: --lint needs clang-format on PATH" >&2
        exit 1
    fi
    (cd "$repo_root" &&
        git ls-files '*.cc' '*.hh' | xargs clang-format --dry-run --Werror)
fi

echo "== configure =="
if [ "$run_tsan" = 1 ]; then
    cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
else
    cmake -B "$build_dir" -S "$repo_root"
fi

echo "== build (-j$jobs) =="
cmake --build "$build_dir" -j "$jobs"

if [ "$run_regen" = 1 ]; then
    # Every checked-in report must regenerate byte-identically from the
    # current tree at default flags and any --jobs value.
    mkdir -p "$build_dir/regen"
    for figure in smoke scale scale64 scale256 chan queue shard fault fig5; do
        echo "== regenerate BENCH_$figure.json =="
        "$build_dir/sweep_main" --figure "$figure" --jobs "$jobs" --quiet \
            --json "$build_dir/regen/BENCH_$figure.json" \
            >"$build_dir/regen/$figure.txt"
        cmp "$repo_root/BENCH_$figure.json" \
            "$build_dir/regen/BENCH_$figure.json"
    done
    # The full fig5 grid prints the paper's Figure 5a/5b tables, each
    # closed by its geomean row.
    [ "$(grep -c '^geomean ' "$build_dir/regen/fig5.txt")" = 2 ]
    echo "OK (regen)"
    exit 0
fi

echo "== ctest =="
if [ "$run_tsan" = 1 ]; then
    # Any TSan report fails the run.  The --jobs worker pool is the
    # only code that runs simulation on more than one host thread; the
    # sweep-runner tests drive it with several workers.
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
    echo "OK (tsan)"
    exit 0
fi
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "== smoke sweep =="
"$build_dir/sweep_main" --figure smoke --jobs 2 \
    --json "$repo_root/BENCH_smoke.json"

echo "== bad --txs / --seed exit 2 =="
status=0
"$build_dir/sweep_main" --figure smoke --txs -1 2>/dev/null || status=$?
[ "$status" = 2 ]
status=0
"$build_dir/sweep_main" --figure smoke --seed -1 2>/dev/null || status=$?
[ "$status" = 2 ]

echo "== paper tables =="
# The paper grids that are not checked in still run end to end: every
# cell ok (exit 0) and the paper's table printed with its reference line.
mkdir -p "$build_dir/paper"
for figure in fig6 fig7 fig8 fig9 table3 table45; do
    "$build_dir/sweep_main" --figure "$figure" --txs 200 --jobs "$jobs" \
        --quiet --json "$build_dir/paper/BENCH_$figure.json" \
        >"$build_dir/paper/$figure.txt"
    grep -q '^paper reference: ' "$build_dir/paper/$figure.txt"
done

echo "== scale sweep (single-core cells) =="
"$build_dir/sweep_main" --figure scale --cores 1 --jobs 2 --quiet \
    --json "$build_dir/BENCH_scale_c1.json"

echo "== scale vs smoke timing cross-check =="
python3 "$repo_root/scripts/diff_scale_smoke.py" \
    "$repo_root/BENCH_smoke.json" "$build_dir/BENCH_scale_c1.json"

echo "== --time harness validation =="
# A timed run must carry host_ms and its phases on every cell and
# host_ms_total on the document, while leaving every simulated metric
# untouched — perf_compare hard-fails on cycle drift and, with both
# sides timed, would flag regressions (the untimed side here skips
# that leg).
"$build_dir/sweep_main" --figure smoke --jobs 1 --quiet --time \
    --json "$build_dir/BENCH_smoke_timed.json"
python3 - "$build_dir/BENCH_smoke_timed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert "host_ms_total" in doc, "--time must emit host_ms_total"
assert all("host_ms" in c for c in doc["cells"]), \
    "--time must emit host_ms per cell"
for phase in ("build", "setup", "clone", "run"):
    assert all(f"host_ms_{phase}" in c for c in doc["cells"]), \
        f"--time must emit host_ms_{phase} per cell"
print("host_ms present; total %.1f ms" % doc["host_ms_total"])
EOF
python3 "$repo_root/scripts/perf_compare.py" \
    "$repo_root/BENCH_smoke.json" "$build_dir/BENCH_smoke_timed.json"

echo "== queue report schema validation =="
# The checked-in open-loop grid must carry the serve schema on every
# cell: the arrival coordinate plus tail-latency/queueing metrics, with
# every generated request either acked or shed.
python3 - "$repo_root/BENCH_queue.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["figure"] == "queue", "BENCH_queue.json is not a queue report"
assert doc["cells"], "queue report has no cells"
fields = ("p50_cycles", "p99_cycles", "p999_cycles",
          "mean_queue_depth", "rejected_txs", "offered_load")
for c in doc["cells"]:
    assert c.get("ok"), "cell %s failed" % c["label"]
    assert "arrival" in c, "cell %s lacks the arrival coordinate" % \
        c["label"]
    m = c["metrics"]
    for f in fields:
        assert f in m, "cell %s lacks %s" % (c["label"], f)
    assert m["p50_cycles"] <= m["p99_cycles"] <= m["p999_cycles"], \
        "cell %s has unordered percentiles" % c["label"]
    assert m["committed_txs"] + m["rejected_txs"] == c["txs"], \
        "cell %s lost requests" % c["label"]
print("queue schema ok across %d cells" % len(doc["cells"]))
EOF

echo "== scale256 report schema validation =="
# The checked-in interconnect grid must pair every cell with its
# coherence coordinate and message count; the directory-only counters
# exist exactly on directory-mode cells, and on every contended
# (Zipf, >= 128 cores) pair the directory must move strictly less
# traffic than the broadcast bus — the grid's headline claim.  Legacy
# broadcast reports must stay free of the new fields.
python3 - "$repo_root/BENCH_scale256.json" "$repo_root/BENCH_smoke.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["figure"] == "scale256", \
    "BENCH_scale256.json is not a scale256 report"
assert doc["cells"], "scale256 report has no cells"
dir_fields = ("directory_lookups", "hop_traversal_cycles",
              "snoop_filter_evictions", "back_invalidations")
messages = {}
for c in doc["cells"]:
    assert c.get("ok"), "cell %s failed" % c["label"]
    assert c.get("coherence") in ("broadcast", "directory"), \
        "cell %s lacks the coherence coordinate" % c["label"]
    m = c["metrics"]
    assert "coherence_messages" in m, \
        "cell %s lacks coherence_messages" % c["label"]
    directory = c["coherence"] == "directory"
    for f in dir_fields:
        assert (f in m) == directory, \
            "cell %s %s %s" % (c["label"],
                               "lacks" if directory else "leaks", f)
    key = (c["workload"], c["backend"], c["cores"])
    messages.setdefault(key, {})[c["coherence"]] = \
        m["coherence_messages"]
contended = 0
for (workload, backend, cores), by_mode in messages.items():
    assert len(by_mode) == 2, \
        "unpaired coherence modes for %s/%s/c%d" % (workload, backend,
                                                    cores)
    if "Zipf" in workload and cores >= 128:
        contended += 1
        assert by_mode["directory"] < by_mode["broadcast"], \
            "directory traffic not below broadcast for %s/%s/c%d" % \
            (workload, backend, cores)
assert contended > 0, "no contended (Zipf, >=128 cores) cells found"
smoke = json.load(open(sys.argv[2]))
for c in smoke["cells"]:
    assert "coherence" not in c, "legacy report grew a coherence key"
    assert "coherence_messages" not in c.get("metrics", {}), \
        "legacy report grew coherence_messages"
print("scale256 schema ok across %d cells "
      "(%d contended pairs checked)" % (len(doc["cells"]), contended))
EOF

echo "== shard report schema validation =="
# The checked-in cluster grid must carry the machines coordinate on
# every cell; the 2PC counters (and the cross-shard fraction) exist
# exactly on multi-machine cells, cells with a cross-shard fraction
# actually exercised the network, and every 1-machine cell's metrics
# are byte-identical to the scale grid's 4-core cell of the same
# (backend, workload) — the single-shard fast-path guarantee.
python3 - "$repo_root/BENCH_shard.json" "$repo_root/BENCH_scale.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["figure"] == "shard", "BENCH_shard.json is not a shard report"
assert doc["cells"], "shard report has no cells"
tpc_fields = ("single_shard_txs", "cross_shard_txs",
              "prepare_round_trips", "cross_shard_aborts",
              "coordinator_stall_cycles", "network_messages",
              "network_cycles", "shard_cycles", "shard_committed_txs")
scale = json.load(open(sys.argv[2]))
scale_cells = {c["label"]: c for c in scale["cells"]}
single, multi = 0, 0
for c in doc["cells"]:
    assert c.get("ok"), "cell %s failed" % c["label"]
    assert "machines" in c, "cell %s lacks the machines coordinate" % \
        c["label"]
    m = c["metrics"]
    clustered = c["machines"] > 1
    assert ("cross_shard_pct" in c) == clustered, \
        "cell %s cross_shard_pct presence" % c["label"]
    for f in tpc_fields:
        assert (f in m) == clustered, \
            "cell %s %s %s" % (c["label"],
                               "lacks" if clustered else "leaks", f)
    if clustered:
        multi += 1
        assert len(m["shard_cycles"]) == c["machines"], \
            "cell %s shard_cycles length" % c["label"]
        if c["cross_shard_pct"] > 0:
            assert m["cross_shard_txs"] > 0 and m["network_cycles"] > 0, \
                "cell %s priced no 2PC traffic" % c["label"]
    else:
        single += 1
        ref_label = c["label"].replace("shard/", "scale/", 1)
        assert ref_label.endswith("/m1"), c["label"]
        ref = scale_cells.get(ref_label[:-len("/m1")])
        assert ref is not None, "no scale twin for %s" % c["label"]
        assert m == ref["metrics"], \
            "1-machine cell %s is not byte-identical to its scale twin" \
            % c["label"]
assert single and multi, "shard grid lost a machine-count class"
print("shard schema ok across %d cells "
      "(%d single-machine identities checked)" % (len(doc["cells"]),
                                                  single))
EOF

echo "== fault report schema validation =="
# The checked-in fault grid must carry the machines / fault_rate_tenths
# / replicated coordinates on every cell (constant-schema axes); the
# fault-harness counters exist exactly on injecting cells (rate > 0)
# and the log-shipping counters exactly on replicated cells; every
# injected failure was either recovered in place or failed over
# (replication decides which, exclusively); and every zero-fault
# non-replicated cell is byte-identical to its shard-grid (clustered)
# or scale-grid (single-machine) twin — faults are strictly opt-in.
python3 - "$repo_root/BENCH_fault.json" "$repo_root/BENCH_shard.json" \
    "$repo_root/BENCH_scale.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["figure"] == "fault", "BENCH_fault.json is not a fault report"
assert doc["cells"], "fault report has no cells"
fault_fields = ("injected_power_fails", "coordinator_crashes",
                "participant_crashes", "recoveries", "failovers",
                "recovery_stall_cycles", "failover_stall_cycles",
                "presumed_aborts", "decision_records", "messages_lost",
                "rpc_retries", "rpc_timeout_stall_cycles",
                "committed_despite_faults")
ship_fields = ("log_ship_messages", "log_ship_cycles")
shard_cells = {c["label"]: c
               for c in json.load(open(sys.argv[2]))["cells"]}
scale_cells = {c["label"]: c
               for c in json.load(open(sys.argv[3]))["cells"]}
injecting, quiet, twins = 0, 0, 0
for c in doc["cells"]:
    assert c.get("ok"), "cell %s failed" % c["label"]
    for coord in ("machines", "fault_rate_tenths", "replicated"):
        assert coord in c, "cell %s lacks the %s coordinate" % \
            (c["label"], coord)
    m = c["metrics"]
    injects = c["fault_rate_tenths"] > 0
    for f in fault_fields:
        assert (f in m) == injects, \
            "cell %s %s %s" % (c["label"],
                               "lacks" if injects else "leaks", f)
    for f in ship_fields:
        assert (f in m) == c["replicated"], \
            "cell %s %s %s" % (c["label"],
                               "lacks" if c["replicated"] else "leaks",
                               f)
    if injects:
        injecting += 1
        assert m["injected_power_fails"] > 0, \
            "cell %s injected nothing at a nonzero rate" % c["label"]
        assert (m["recoveries"] + m["failovers"]
                == m["injected_power_fails"]), \
            "cell %s lost a failure (power fails != recoveries " \
            "+ failovers)" % c["label"]
        # Replication converts every in-place recovery into a failover.
        if c["replicated"]:
            assert m["recoveries"] == 0, \
                "replicated cell %s recovered in place" % c["label"]
        else:
            assert m["failovers"] == 0, \
                "unreplicated cell %s failed over" % c["label"]
    elif not c["replicated"]:
        # Zero-fault, unreplicated: the harness must not have run at
        # all.  Clustered cells replay the shard grid's matching
        # (machines, x10) cell; single-machine cells replay the scale
        # grid's 4-core cell — both metrics-dict byte-identity.
        quiet += 1
        label = c["label"]
        assert label.endswith("/f0"), label
        base = label[:-len("/f0")]
        if c["machines"] > 1:
            ref = shard_cells.get(base.replace("fault/", "shard/", 1))
        else:
            assert base.endswith("/m1"), label
            ref = scale_cells.get(
                base[:-len("/m1")].replace("fault/", "scale/", 1))
        assert ref is not None, "no twin for %s" % label
        twins += 1
        assert m == ref["metrics"], \
            "zero-fault cell %s is not byte-identical to its twin" \
            % label
assert injecting and quiet, "fault grid lost a rate class"
assert twins == quiet, "fault grid quiet/twin mismatch"
print("fault schema ok across %d cells (%d injecting, "
      "%d zero-fault twins checked)" % (len(doc["cells"]), injecting,
                                        twins))
EOF

echo "OK"
