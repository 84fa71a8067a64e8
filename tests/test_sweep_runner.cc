/**
 * @file
 * Sweep subsystem tests: grid construction, determinism of the parallel
 * runner (identical results for any worker count), JSON round-trip of
 * the emitted BENCH_*.json report, replay of a filtered slice of every
 * checked-in BENCH_*.json, which cells share a setup, and the CLI count
 * parsers.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::sweep::test
{
namespace
{

/** A tiny fig5 grid that keeps the suite fast on one core. */
SweepGridOptions
tinyOptions()
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::UndoLog, BackendKind::Ssp};
    opts.workloads = {WorkloadKind::BTreeRand, WorkloadKind::Sps};
    opts.txs = 80;
    opts.scale.keySpace = 256;
    opts.scale.spsElements = 1024;
    opts.scale.seed = 7;
    return opts;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nvramWrites, b.nvramWrites);
    EXPECT_EQ(a.loggingWrites, b.loggingWrites);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_EQ(a.consolidationWrites, b.consolidationWrites);
    EXPECT_EQ(a.checkpointWrites, b.checkpointWrites);
    EXPECT_EQ(a.journalWrites, b.journalWrites);
    EXPECT_EQ(a.avgLinesPerTx, b.avgLinesPerTx);
    EXPECT_EQ(a.avgPagesPerTx, b.avgPagesPerTx);
    EXPECT_EQ(a.maxPagesPerTx, b.maxPagesPerTx);
}

TEST(SweepGrid, KnownFiguresBuildNonEmptyGrids)
{
    for (const std::string &figure : knownFigures()) {
        const auto cells = buildFigureGrid(figure);
        ASSERT_FALSE(cells.empty()) << figure;
        for (const SweepCell &cell : cells) {
            EXPECT_EQ(cell.figure, figure);
            EXPECT_GT(cell.txs, 0u);
        }
    }
    EXPECT_THROW(buildFigureGrid("fig42"), std::runtime_error);
}

TEST(SweepGrid, UnknownFigureErrorListsEveryKnownGrid)
{
    // A typo'd --figure must be a one-round-trip fix: the error names
    // all the grids the caller could have meant.
    try {
        buildFigureGrid("fig42");
        FAIL() << "unknown figure did not throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("fig42"), std::string::npos);
        EXPECT_NE(msg.find("known grids:"), std::string::npos);
        for (const std::string &figure : knownFigures())
            EXPECT_NE(msg.find(figure), std::string::npos) << figure;
    }
}

TEST(SweepGrid, FigureShapesMatchTheBenches)
{
    // fig5: 2 thread counts x 7 microbenchmarks x 3 designs.
    EXPECT_EQ(buildFigureGrid("fig5").size(), 2u * 7u * 3u);
    // fig8: 2 workloads x 5 latency multipliers x 3 designs.
    EXPECT_EQ(buildFigureGrid("fig8").size(), 2u * 5u * 3u);
    // fig9: 7 REDO-LOG baselines + 5 latencies x 7 workloads of SSP.
    EXPECT_EQ(buildFigureGrid("fig9").size(), 7u + 5u * 7u);
    // table3: SSP across all nine workloads.
    EXPECT_EQ(buildFigureGrid("table3").size(), 9u);
    // scale: 4 core counts x 6 workloads x 3 designs.
    EXPECT_EQ(buildFigureGrid("scale").size(), 4u * 6u * 3u);
    EXPECT_EQ(buildFigureGrid("smoke").size(), 1u);
}

TEST(SweepGrid, FiltersApply)
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::Ssp};
    for (const SweepCell &cell : buildFigureGrid("fig5", opts))
        EXPECT_EQ(cell.backend, BackendKind::Ssp);

    opts.workloads = {WorkloadKind::Sps};
    for (const SweepCell &cell : buildFigureGrid("fig6", opts)) {
        EXPECT_EQ(cell.backend, BackendKind::Ssp);
        EXPECT_EQ(cell.workload, WorkloadKind::Sps);
    }
}

TEST(SweepGrid, SeedsAreStableUnderFiltering)
{
    // A cell's private RNG stream must not depend on which other cells
    // were filtered out of the grid.
    const auto full = buildFigureGrid("fig5");
    SweepGridOptions opts;
    opts.backends = {BackendKind::Ssp};
    const auto filtered = buildFigureGrid("fig5", opts);
    for (const SweepCell &f : filtered) {
        bool matched = false;
        for (const SweepCell &cell : full) {
            if (cell.backend == f.backend &&
                cell.workload == f.workload && cell.cores == f.cores) {
                EXPECT_EQ(cell.scale.seed, f.scale.seed);
                matched = true;
            }
        }
        EXPECT_TRUE(matched);
    }
}

TEST(SweepGrid, ChanGridSweepsChannelCounts)
{
    // Default: 4 channel counts x 7 microbenchmarks x 3 designs.
    EXPECT_EQ(buildFigureGrid("chan").size(), 4u * 7u * 3u);

    SweepGridOptions opts;
    opts.channels = {1, 16};
    const auto cells = buildFigureGrid("chan", opts);
    EXPECT_EQ(cells.size(), 2u * 7u * 3u);
    for (const SweepCell &cell : cells) {
        EXPECT_TRUE(cell.nvramChannels == 1 || cell.nvramChannels == 16);
        const SspConfig cfg = cell.config();
        EXPECT_EQ(cfg.nvramChannels, cell.nvramChannels);
        EXPECT_EQ(cfg.interleaveGranularity, InterleaveGranularity::Page);
    }
}

TEST(SweepGrid, ChanGridSharesSeedsAcrossChannelCounts)
{
    // Cells differing only in channel count must replay the identical
    // operation stream, so channel scaling is measured on the same work.
    const auto cells = buildFigureGrid("chan");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

TEST(SweepGrid, DevicePresetAppliesToEveryCell)
{
    SweepGridOptions opts = tinyOptions();
    opts.nvramDevice = NvramDevice::SttMramFast;
    const auto cells = buildFigureGrid("fig5", opts);
    ASSERT_FALSE(cells.empty());
    const MemTimingParams preset =
        nvramDevicePreset(NvramDevice::SttMramFast);
    for (const SweepCell &cell : cells) {
        const SspConfig cfg = cell.config();
        EXPECT_EQ(cfg.nvram.name, preset.name);
        EXPECT_EQ(cfg.nvram.writeLatency, preset.writeLatency);
        EXPECT_NE(cell.label().find("stt-mram"), std::string::npos);
    }
}

TEST(SweepRunner, ChanGridIsBitIdenticalForAnyJobCount)
{
    // The determinism guarantee must hold across the channel dimension:
    // N-channel results may not depend on sweep worker scheduling.
    SweepGridOptions opts = tinyOptions();
    opts.channels = {1, 2, 4};
    const auto cells = buildFigureGrid("chan", opts);
    ASSERT_EQ(cells.size(), 3u * 2u * 2u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameRun(serial[i].run, parallel[i].run);
    }
    EXPECT_EQ(sweepReport("chan", serial).dump(2),
              sweepReport("chan", parallel).dump(2));
}

TEST(SweepReport, ChanCellsCarryChannelCoordinates)
{
    SweepGridOptions opts = tinyOptions();
    opts.channels = {2};
    const auto cells = buildFigureGrid("chan", opts);
    const auto results = runSweep(cells, 2);
    const Json parsed = Json::parse(sweepReport("chan", results).dump(2));
    ASSERT_EQ(parsed["cells"].size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(parsed["cells"].at(i)["nvram_channels"].asUint(), 2u);
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial)
{
    const auto cells = buildFigureGrid("fig5", tinyOptions());
    ASSERT_EQ(cells.size(), 2u * 2u * 2u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameRun(serial[i].run, parallel[i].run);
    }

    // The strongest form of the guarantee: the emitted JSON documents
    // are byte-identical.
    EXPECT_EQ(sweepReport("fig5", serial).dump(2),
              sweepReport("fig5", parallel).dump(2));
}

TEST(SweepRunner, FailingCellIsCapturedNotFatal)
{
    SweepCell cell;
    cell.figure = "fig5";
    cell.backend = BackendKind::Ssp;
    cell.workload = WorkloadKind::Sps;
    cell.base = ssp::test::smallConfig();
    cell.txs = 10;
    // An SPS array far larger than the 2 MiB heap: setup must fail.
    cell.scale.spsElements = std::uint64_t{1} << 24;
    const auto results = runSweep({cell}, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(SweepReport, JsonRoundTripsThroughputWritesAndLatency)
{
    const auto cells = buildFigureGrid("fig5", tinyOptions());
    const auto results = runSweep(cells, 2);

    const Json report = sweepReport("fig5", results);
    const Json parsed = Json::parse(report.dump(2));

    EXPECT_EQ(parsed["schema"].asString(), "ssp-bench-report-v1");
    EXPECT_EQ(parsed["figure"].asString(), "fig5");
    ASSERT_EQ(parsed["cells"].size(), results.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &c = parsed["cells"].at(i);
        const CellResult &r = results[i];
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(c["backend"].asString(),
                  backendKindName(r.cell.backend));
        EXPECT_EQ(c["workload"].asString(),
                  workloadKindName(r.cell.workload));
        EXPECT_EQ(c["cores"].asUint(), r.cell.cores);
        char seed_hex[32];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(r.cell.scale.seed));
        EXPECT_EQ(c["seed"].asString(), seed_hex);

        const Json &m = c["metrics"];
        // Throughput, NVRAM-write and latency fields must round-trip
        // exactly (shortest-round-trip double formatting).
        EXPECT_EQ(m["tps"].asDouble(), r.run.tps());
        EXPECT_EQ(m["committed_txs"].asUint(), r.run.committedTxs);
        EXPECT_EQ(m["nvram_writes"].asUint(), r.run.nvramWrites);
        EXPECT_EQ(m["logging_writes"].asUint(), r.run.loggingWrites);
        EXPECT_EQ(m["cycles"].asUint(), r.run.cycles);
        EXPECT_EQ(m["avg_cycles_per_tx"].asDouble(),
                  static_cast<double>(r.run.cycles) /
                      static_cast<double>(r.run.committedTxs));
        EXPECT_EQ(m["avg_lines_per_tx"].asDouble(), r.run.avgLinesPerTx);
    }
}

TEST(SweepReport, JsonParserHandlesEscapesAndNesting)
{
    const Json j = Json::parse(
        "{\"a\": [1, 2.5, -3e2, true, false, null],"
        " \"s\": \"line\\nbreak \\\"q\\\" \\u0041\","
        " \"nested\": {\"empty_arr\": [], \"empty_obj\": {}}}");
    EXPECT_EQ(j["a"].size(), 6u);
    EXPECT_EQ(j["a"].at(0).asUint(), 1u);
    EXPECT_EQ(j["a"].at(1).asDouble(), 2.5);
    EXPECT_EQ(j["a"].at(2).asDouble(), -300.0);
    EXPECT_TRUE(j["a"].at(3).asBool());
    EXPECT_FALSE(j["a"].at(4).asBool());
    EXPECT_TRUE(j["a"].at(5).isNull());
    EXPECT_EQ(j["s"].asString(), "line\nbreak \"q\" A");
    EXPECT_EQ(j["nested"]["empty_arr"].size(), 0u);
    EXPECT_EQ(j["nested"]["empty_obj"].size(), 0u);

    // dump -> parse -> dump is the identity.
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
    EXPECT_EQ(Json::parse(j.dump(2)).dump(2), j.dump(2));

    EXPECT_THROW(Json::parse("{\"unterminated\": "), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,] trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("nope"), std::runtime_error);
    // strtod-isms that are not JSON must fail as parse errors too.
    EXPECT_THROW(Json::parse("[1e999]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[inf]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[nan]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[+1]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[0x10]"), std::runtime_error);
}

TEST(SweepReport, JsonCopiesAreDeepAndAMovedFromValueIsNull)
{
    Json doc = Json::object();
    Json list = Json::array();
    list.push(Json::str("x"));
    doc.set("list", list);
    doc.set("n", Json::number(std::uint64_t{7}));

    Json copy = doc;
    copy.set("n", Json::number(std::uint64_t{8}));
    copy.set("extra", Json::boolean(true));
    EXPECT_EQ(doc.dump(), "{\"list\":[\"x\"],\"n\":7}");
    EXPECT_EQ(copy.dump(), "{\"list\":[\"x\"],\"n\":8,\"extra\":true}");
    EXPECT_EQ(list.size(), 1u); // set() copied it in

    copy = doc;
    EXPECT_EQ(copy.dump(), doc.dump());
    const Json moved = std::move(copy);
    EXPECT_EQ(moved.dump(), doc.dump());
    EXPECT_TRUE(copy.isNull()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.dump(), "null");
}

TEST(SweepReport, NumberFormattingIsAShortestRoundTripFixedPoint)
{
    // emit -> parse -> emit must be the identity for any double, and
    // integers must keep their plain form (no ".0", no exponent) so
    // checked-in reports stay byte-stable.
    const std::vector<double> tricky = {
        0.0,       0.1,     0.3,           1.0 / 3.0,
        2.5e-7,    1e-9,    12345.6789,    0.30000000000000004,
        1e20,      -42.125, 9007199254740992.0,
        5096.887692307692, // a real tps value from BENCH_smoke.json
    };
    for (double v : tricky) {
        const std::string s = jsonNumberToString(v);
        const double parsed = Json::parse("[" + s + "]").at(0).asDouble();
        EXPECT_EQ(parsed, v) << s;
        EXPECT_EQ(jsonNumberToString(parsed), s) << s;
    }
    EXPECT_EQ(jsonNumberToString(4000.0), "4000");
    EXPECT_EQ(jsonNumberToString(0.0), "0");
    EXPECT_EQ(jsonNumberToString(-1.0), "-1");
    EXPECT_EQ(jsonNumberToString(0.5), "0.5");
}

TEST(SweepCli, CountListParsesValidInput)
{
    EXPECT_EQ(parseCountList("--cores", "1,2,4,8"),
              (std::vector<unsigned>{1, 2, 4, 8}));
    EXPECT_EQ(parseCountList("--channels", "64"),
              (std::vector<unsigned>{64}));
}

TEST(SweepCli, EmptyOrInvalidCountListIsFatalNotASilentDefault)
{
    // An empty list must never fall back to the grid default: the
    // sweep CLI exits non-zero instead of "succeeding" on a grid the
    // caller did not ask for.
    EXPECT_THROW(parseCountList("--cores", ""), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", ",,,"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "0"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "65"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "4x"), std::runtime_error);
    EXPECT_THROW(parseCountList("--channels", "two"),
                 std::runtime_error);
    EXPECT_THROW(parseCountList("--channels", "1,,x"),
                 std::runtime_error);
}

TEST(SweepCli, CountRejectsInvalidValues)
{
    // --jobs and --txs go through the list parser's element parser;
    // ssp_fatal throws std::runtime_error, which sweep_main turns into
    // exit code 2.
    for (const char *bad : {"0", "65", "4x", "", "-2", "-1", "+4", " 4",
                            "four"}) {
        EXPECT_THROW(parseCount("--jobs", bad, 64), std::runtime_error)
            << "'" << bad << "'";
    }
    const std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    EXPECT_THROW(parseCount("--txs", "-1", any), std::runtime_error);
    EXPECT_THROW(parseCount("--txs", "2x", any), std::runtime_error);
    EXPECT_THROW(parseCount("--txs", "18446744073709551616", any),
                 std::runtime_error); // 2^64 overflows
    EXPECT_EQ(parseCount("--jobs", "64", 64), 64u);
    EXPECT_EQ(parseCount("--txs", "18446744073709551615", any), any);
    // --seed takes the whole 64-bit range, 0 included, digits only.
    for (const char *bad : {"-1", "4x", " 7", "7 ", "", "+7", "seven",
                            "18446744073709551616"}) {
        EXPECT_THROW(parseCount("--seed", bad, any, 0), std::runtime_error)
            << "'" << bad << "'";
    }
    EXPECT_EQ(parseCount("--seed", "0", any, 0), 0u);
    EXPECT_EQ(parseCount("--seed", "18446744073709551615", any, 0), any);
}

// ---- host wall-clock harness ---------------------------------------------

TEST(SweepReport, HostTimeIsOptInAndKeepsDefaultReportsByteStable)
{
    auto cells = buildFigureGrid("smoke");
    cells[0].txs = 20;
    const auto results = runSweep(cells, 1);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    // The runner always measures; only the report opts in.
    EXPECT_GE(results[0].hostMillis, 0.0);

    const Json plain = sweepReport("smoke", results);
    EXPECT_FALSE(plain.has("host_ms_total"));
    EXPECT_FALSE(plain["cells"].at(0).has("host_ms"));

    const Json timed = sweepReport("smoke", results, true);
    ASSERT_TRUE(timed.has("host_ms_total"));
    ASSERT_TRUE(timed["cells"].at(0).has("host_ms"));
    EXPECT_GE(timed["cells"].at(0)["host_ms"].asDouble(), 0.0);
    EXPECT_GE(timed["host_ms_total"].asDouble(),
              timed["cells"].at(0)["host_ms"].asDouble());

    // Everything except the host-time fields is identical, so --time
    // cannot perturb the simulated metrics it annotates.
    EXPECT_EQ(plain["cells"].at(0)["metrics"].dump(2),
              timed["cells"].at(0)["metrics"].dump(2));
}

// ---- scale64 grid ---------------------------------------------------------

TEST(SweepGrid, Scale64GridCoversTheBigMachineTo64Cores)
{
    const auto cells = buildFigureGrid("scale64");
    // 7 core counts x 6 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 126u);
    std::set<unsigned> cores;
    for (const auto &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_EQ(cell.figure, "scale64");
        // The big machine: SSP cache and journal sized for 64 cores,
        // identical at every core count so the axis measures cores.
        EXPECT_EQ(cell.base.sspCacheSlots, 8192u);
        EXPECT_GE(cell.base.caches.l3.sizeBytes, 64u * 1024 * 1024);
        EXPECT_EQ(cell.txs, 2000u);
    }
    EXPECT_EQ(cores, (std::set<unsigned>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(SweepGrid, Scale64SeedsArePinnedPerWorkloadBackend)
{
    SweepGridOptions all;
    const auto full = buildFigureGrid("scale64", all);
    SweepGridOptions one;
    one.coreCounts = {64};
    const auto only64 = buildFigureGrid("scale64", one);
    ASSERT_EQ(only64.size(), 18u);
    // A 64-core cell replays the same stream whether or not the other
    // core counts were generated (the ordinal is pinned, not
    // positional).
    for (const auto &cell : only64) {
        bool found = false;
        for (const auto &ref : full) {
            if (ref.cores == 64 && ref.backend == cell.backend &&
                ref.workload == cell.workload) {
                EXPECT_EQ(ref.scale.seed, cell.scale.seed);
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(SweepReport, Scale64EmitsPerCoreCountersAtEveryCoreCount)
{
    SweepGridOptions opts;
    opts.coreCounts = {1};
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    auto cells = buildFigureGrid("scale64", opts);
    ASSERT_EQ(cells.size(), 3u);
    const auto results = runSweep(cells, 1);
    const Json report = sweepReport("scale64", results);
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &m = report["cells"].at(i)["metrics"];
        // Unlike the older grids (whose single-core reports must stay
        // byte-identical to the 1-core model), scale64 keeps one
        // schema across the whole 1..64-core axis.
        EXPECT_TRUE(m.has("core_busy_cycles"));
        EXPECT_TRUE(m.has("coherence_flips"));
        EXPECT_TRUE(m.has("tx_aborts"));
    }
}

// ---- queue grid ------------------------------------------------------------

TEST(SweepGrid, QueueGridCoversLoadsCoresAndSharingScenarios)
{
    const auto cells = buildFigureGrid("queue");
    // 2 core counts x 4 loads x 3 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 2u * 4u * 3u * 3u);
    std::set<unsigned> cores;
    std::set<std::string> labels;
    for (const SweepCell &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_GT(cell.offeredLoad, 0.0);
        EXPECT_EQ(cell.arrival, serve::ArrivalKind::Poisson);
        EXPECT_EQ(cell.txs, 2000u);
        // Big machine at every cell, like scale64.
        EXPECT_EQ(cell.base.sspCacheSlots, 8192u);
        // Partitioned scenario: Hash-Rand shards its keys per core.
        if (cell.workload == WorkloadKind::HashRand)
            EXPECT_EQ(cell.keyShards, cell.cores);
        else
            EXPECT_EQ(cell.keyShards, 1u);
        labels.insert(cell.label());
    }
    EXPECT_EQ(cores, (std::set<unsigned>{4, 16}));
    // Labels carry the open-loop coordinates and stay unique.
    EXPECT_EQ(labels.size(), cells.size());
    EXPECT_TRUE(labels.count("queue/SSP/SPS/c4/poisson/load30"));
    EXPECT_TRUE(labels.count("queue/REDO-LOG/Hash-Rand/c16/p16/"
                             "poisson/load120"));
}

TEST(SweepGrid, QueueSeedsArePinnedAcrossLoadsAndCores)
{
    // Cells differing only in offered load or core count replay the
    // identical key stream — the load axis measures queueing delay on
    // the same work.
    const auto cells = buildFigureGrid("queue");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

TEST(SweepGrid, AxisOptionsAreAcceptedOnlyByTheGridsThatSweepThem)
{
    // One column per axis option, in this order: channels, coreCounts,
    // loads, arrival, machines, faultRates, replicateModes.  'y' = the
    // grid accepts the option; '-' = buildFigureGrid rejects it (and
    // sweep_main exits 2).
    const std::vector<std::pair<std::string, std::string>> matrix = {
        {"fig5", "-------"},     {"fig6", "-------"},
        {"fig7", "-------"},     {"fig8", "-------"},
        {"fig9", "-------"},     {"table3", "-------"},
        {"table45", "-------"},  {"chan", "y------"},
        {"scale", "-y-----"},    {"scale64", "-y-----"},
        {"scale256", "-y-----"}, {"queue", "-yyy---"},
        {"shard", "----y--"},    {"fault", "----yyy"},
        {"smoke", "-------"},
    };
    const std::vector<std::function<void(SweepGridOptions &)>> options = {
        [](SweepGridOptions &o) { o.channels = {2}; },
        [](SweepGridOptions &o) { o.coreCounts = {4}; },
        [](SweepGridOptions &o) { o.loads = {0.5}; },
        [](SweepGridOptions &o) { o.arrival = serve::ArrivalKind::Bursty; },
        [](SweepGridOptions &o) { o.machines = {2}; },
        [](SweepGridOptions &o) { o.faultRates = {5}; },
        [](SweepGridOptions &o) { o.replicateModes = {true}; },
    };
    std::vector<std::string> figures;
    for (const auto &[figure, accepts] : matrix) {
        figures.push_back(figure);
        ASSERT_EQ(accepts.size(), options.size()) << figure;
        for (std::size_t k = 0; k < options.size(); ++k) {
            SweepGridOptions opts;
            options[k](opts);
            if (accepts[k] == 'y') {
                EXPECT_FALSE(buildFigureGrid(figure, opts).empty())
                    << figure << " option " << k;
            } else {
                EXPECT_THROW(buildFigureGrid(figure, opts),
                             std::runtime_error)
                    << figure << " option " << k;
            }
        }
    }
    EXPECT_EQ(figures, knownFigures());
}

TEST(SweepCli, LoadListParsesValidInputAndRejectsGarbage)
{
    EXPECT_EQ(parseLoadList("--load", "0.3,0.6,1.2"),
              (std::vector<double>{0.3, 0.6, 1.2}));
    EXPECT_EQ(parseLoadList("--load", "2"), (std::vector<double>{2.0}));
    EXPECT_THROW(parseLoadList("--load", ""), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "0"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "-0.5"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "0.6x"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "eleven"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "12"), std::runtime_error);
}

TEST(SweepReport, QueueCellsCarryTailLatencyMetricsAndCoordinates)
{
    SweepGridOptions opts;
    opts.coreCounts = {2};
    opts.loads = {1.0};
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 120;
    opts.arrival = serve::ArrivalKind::Bursty;
    const auto cells = buildFigureGrid("queue", opts);
    ASSERT_EQ(cells.size(), 1u);
    const auto results = runSweep(cells, 1);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    const Json report =
        Json::parse(sweepReport("queue", results).dump(2));
    const Json &c = report["cells"].at(0);
    EXPECT_EQ(c["arrival"].asString(), "bursty");
    const Json &m = c["metrics"];
    EXPECT_TRUE(m.has("p50_cycles"));
    EXPECT_TRUE(m.has("p99_cycles"));
    EXPECT_TRUE(m.has("p999_cycles"));
    EXPECT_TRUE(m.has("mean_queue_depth"));
    EXPECT_TRUE(m.has("rejected_txs"));
    EXPECT_EQ(m["offered_load"].asDouble(), 1.0);
    EXPECT_GT(m["p50_cycles"].asUint(), 0u);
    EXPECT_GE(m["p99_cycles"].asUint(), m["p50_cycles"].asUint());
    // Every request is accounted for: acked + shed == generated.
    EXPECT_EQ(m["committed_txs"].asUint() + m["rejected_txs"].asUint(),
              120u);

    // Closed-loop reports must not grow the serve fields.
    const auto smoke_cells = buildFigureGrid("smoke");
    const auto smoke = runSweep(smoke_cells, 1);
    const Json smoke_report =
        Json::parse(sweepReport("smoke", smoke).dump(2));
    EXPECT_FALSE(smoke_report["cells"].at(0).has("arrival"));
    EXPECT_FALSE(
        smoke_report["cells"].at(0)["metrics"].has("p99_cycles"));
}

// ---- scale256 grid --------------------------------------------------------

TEST(SweepCli, CountListHonorsTheCallerProvidedCeiling)
{
    // --cores parses up to kMaxCores (the per-figure machine ceiling is
    // buildFigureGrid's job); --channels keeps the historical 64.
    EXPECT_EQ(parseCountList("--cores", "128,256", kMaxCores),
              (std::vector<unsigned>{128, 256}));
    EXPECT_EQ(parseCountList("--cores", "65", kMaxCores),
              (std::vector<unsigned>{65}));
    EXPECT_THROW(parseCountList("--cores", "257", kMaxCores),
                 std::runtime_error);
}

TEST(SweepGrid, CoreCeilingIsPerFigureMachine)
{
    // A core count beyond the figure's machine provisioning must fail
    // in grid construction with a clear message, never as a Machine
    // assert deep inside a sweep worker.
    SweepGridOptions opts;
    opts.coreCounts = {128};
    EXPECT_THROW(buildFigureGrid("scale64", opts), std::runtime_error);
    EXPECT_THROW(buildFigureGrid("scale", opts), std::runtime_error);
    EXPECT_THROW(buildFigureGrid("queue", opts), std::runtime_error);
    try {
        buildFigureGrid("scale64", opts);
        FAIL() << "over-provisioned core count did not throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("128"), std::string::npos);
        EXPECT_NE(msg.find("scale256"), std::string::npos); // the fix
    }
    opts.coreCounts = {256};
    EXPECT_FALSE(buildFigureGrid("scale256", opts).empty());
}

TEST(SweepGrid, Scale256PairsBroadcastAndDirectoryAtEveryCoreCount)
{
    const auto cells = buildFigureGrid("scale256");
    // 6 core counts x 2 coherence models x 3 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 6u * 2u * 3u * 3u);
    std::set<unsigned> cores;
    std::set<std::string> labels;
    std::size_t directory_cells = 0;
    for (const SweepCell &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_EQ(cell.figure, "scale256");
        EXPECT_EQ(cell.txs, 1000u);
        // The mesh machine: provisioned for 256 cores at every cell so
        // the axes measure cores and interconnect, not capacity.
        EXPECT_EQ(cell.base.sspCacheSlots, 16384u);
        EXPECT_GE(cell.base.caches.l3.sizeBytes, 96u * 1024 * 1024);
        if (cell.coherenceMode == CoherenceMode::Directory)
            ++directory_cells;
        // Partitioned scenario: Hash-Rand shards its keys per core.
        if (cell.workload == WorkloadKind::HashRand && cell.cores > 1) {
            EXPECT_EQ(cell.keyShards, cell.cores);
        }
        labels.insert(cell.label());
    }
    EXPECT_EQ(cores, (std::set<unsigned>{1, 4, 16, 64, 128, 256}));
    EXPECT_EQ(directory_cells, cells.size() / 2);
    // The coherence model is a label coordinate, so labels stay unique.
    EXPECT_EQ(labels.size(), cells.size());
}

TEST(SweepGrid, Scale256SeedsArePinnedAcrossCoherenceModesAndCores)
{
    // A broadcast cell and its directory twin (and every core count)
    // replay the identical operation stream: any traffic or cycle
    // difference between them is the interconnect, not reseeded noise.
    const auto cells = buildFigureGrid("scale256");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

/** How many setups runSweep ran for @p cells: the cell that builds a
 *  setup group's state is the only one with build time. */
std::size_t
setupsRun(const std::vector<SweepCell> &cells)
{
    std::size_t setups = 0;
    for (const CellResult &r : runSweep(cells, 2)) {
        EXPECT_TRUE(r.ok) << r.cell.label() << ": " << r.error;
        if (r.hostMillisBuild > 0)
            ++setups;
    }
    return setups;
}

TEST(SweepRunner, OnlyBroadcastCellsFromFiveCoresShareASetupAcrossCores)
{
    SweepGridOptions opts;
    opts.txs = 20;
    opts.scale.keySpace = 256;
    opts.scale.spsElements = 1024;
    opts.backends = {BackendKind::Ssp};
    opts.workloads = {WorkloadKind::Sps, WorkloadKind::HashRand};
    // Two planes.  Each sets up alone at 1 and 4 cores and for every
    // directory cell, and once for its broadcast cells at 16 and 64.
    opts.coreCounts = {1, 4, 16, 64};
    EXPECT_EQ(setupsRun(buildFigureGrid("scale256", opts)),
              2u * (2 + 2 + 2 + 1));
    // Below the sharer-index cutover no broadcast cell groups either.
    opts.coreCounts = {2, 4};
    EXPECT_EQ(setupsRun(buildFigureGrid("scale64", opts)), 2u * 2);
    // Open-loop cells share a calibrated setup across loads only.
    opts.coreCounts = {8, 16};
    opts.loads = {0.3, 0.6};
    EXPECT_EQ(setupsRun(buildFigureGrid("queue", opts)), 2u * 2);
}

TEST(SweepReport, Scale256EmitsDirectoryCountersOnlyInDirectoryMode)
{
    SweepGridOptions opts;
    opts.coreCounts = {1};
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    const auto cells = buildFigureGrid("scale256", opts);
    ASSERT_EQ(cells.size(), 6u); // 2 modes x 3 backends
    const auto results = runSweep(cells, 1);
    const Json report =
        Json::parse(sweepReport("scale256", results).dump(2));
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        ASSERT_TRUE(c["ok"].asBool()) << c["label"].asString();
        // Every scale256 cell names its interconnect and reports the
        // message count — the broadcast-vs-directory comparison axis.
        ASSERT_TRUE(c.has("coherence"));
        const bool directory = c["coherence"].asString() == "directory";
        const Json &m = c["metrics"];
        EXPECT_TRUE(m.has("coherence_messages"));
        // Directory-only counters exist iff the cell ran the directory.
        EXPECT_EQ(m.has("directory_lookups"), directory);
        EXPECT_EQ(m.has("hop_traversal_cycles"), directory);
        EXPECT_EQ(m.has("snoop_filter_evictions"), directory);
        EXPECT_EQ(m.has("back_invalidations"), directory);
    }

    // Legacy broadcast grids carry neither the coordinate nor the
    // counters, keeping their checked-in reports byte-identical.
    const auto smoke = runSweep(buildFigureGrid("smoke"), 1);
    const Json smoke_report =
        Json::parse(sweepReport("smoke", smoke).dump(2));
    EXPECT_FALSE(smoke_report["cells"].at(0).has("coherence"));
    EXPECT_FALSE(
        smoke_report["cells"].at(0)["metrics"].has("coherence_messages"));
}

// ---- paper tables ----------------------------------------------------------

/** Every cell of @p figure's default grid, ok, with @p fill's metrics
 *  over 1e9 cycles (so tps is proportional to committed_txs). */
std::vector<CellResult>
syntheticResults(const std::string &figure,
                 const std::function<void(const SweepCell &, RunResult &)>
                     &fill)
{
    std::vector<CellResult> results;
    for (const SweepCell &cell : buildFigureGrid(figure)) {
        CellResult r;
        r.cell = cell;
        r.ok = true;
        r.run.cycles = 1'000'000'000;
        fill(cell, r.run);
        results.push_back(std::move(r));
    }
    return results;
}

/** Position of @p w in the microbenchmark list. */
std::uint64_t
microIndex(WorkloadKind w)
{
    const auto kinds = microbenchmarks();
    return static_cast<std::uint64_t>(
        std::find(kinds.begin(), kinds.end(), w) - kinds.begin());
}

/** The whitespace-split columns of the first table row starting with
 *  @p key at or after offset @p from of @p text. */
std::vector<std::string>
rowOf(const std::string &text, const std::string &key,
      std::size_t from = 0)
{
    std::size_t at = text.find("\n" + key + " ", from);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return {};
    std::istringstream line(
        text.substr(at + 1, text.find('\n', at + 1) - at - 1));
    std::vector<std::string> cols;
    for (std::string col; line >> col;)
        cols.push_back(col);
    return cols;
}

TEST(PaperTables, Fig5GeomeanRowsFoldEachThreadCount)
{
    // 1 core: SSP/UNDO = 1, 2, 4, 8, 1, 2, 4 across the seven
    // workloads (geomean 2^(9/7) = 2.44), SSP == REDO; 4 cores: SSP is
    // 3x UNDO-LOG and 1.5x REDO-LOG everywhere.
    const std::uint64_t ratio[] = {1, 2, 4, 8, 1, 2, 4};
    const auto results = syntheticResults(
        "fig5", [&](const SweepCell &cell, RunResult &run) {
            const bool four = cell.cores == 4;
            const std::uint64_t ssp =
                four ? 300 : 100 * ratio[microIndex(cell.workload)];
            run.committedTxs = cell.backend == BackendKind::UndoLog ? 100
                               : cell.backend == BackendKind::RedoLog
                                   ? (four ? 200 : ssp)
                                   : ssp;
        });
    const std::string text = renderSweepTable("fig5", results);
    EXPECT_EQ(rowOf(text, "geomean"),
              (std::vector<std::string>{"geomean", "1.00", "-", "-", "2.44",
                                        "1.00"}));
    EXPECT_EQ(rowOf(text, "BTree-Zipf"),
              (std::vector<std::string>{"BTree-Zipf", "1.00", "1.00",
                                        "1.00", "1.00", "1.00"}));
    const std::size_t part_b = text.find("Figure 5b");
    ASSERT_NE(part_b, std::string::npos);
    EXPECT_EQ(rowOf(text, "geomean", part_b),
              (std::vector<std::string>{"geomean", "1.00", "-", "-", "3.00",
                                        "1.50"}));
    EXPECT_NE(text.find("paper reference: Fig 5b"), std::string::npos);
}

TEST(PaperTables, Fig6PrintsInfForLogFreeSspAndAveragesTheRest)
{
    // UNDO 100 / REDO 50 / SSP 10 logging writes, except SSP logs
    // nothing on BTree-Rand and 20 on RBTree-Rand.
    const auto results = syntheticResults(
        "fig6", [](const SweepCell &cell, RunResult &run) {
            std::uint64_t ssp = 10;
            if (cell.workload == WorkloadKind::BTreeRand)
                ssp = 0;
            if (cell.workload == WorkloadKind::RbTreeRand)
                ssp = 20;
            run.loggingWrites = cell.backend == BackendKind::UndoLog ? 100
                                : cell.backend == BackendKind::RedoLog ? 50
                                                                       : ssp;
        });
    const std::string text = renderSweepTable("fig6", results);
    EXPECT_EQ(rowOf(text, "BTree-Rand"),
              (std::vector<std::string>{"BTree-Rand", "1.00", "0.50", "0.00",
                                        "inf", "inf"}));
    EXPECT_EQ(rowOf(text, "SPS"), (std::vector<std::string>{
                                      "SPS", "1.00", "0.50", "0.10", "10.0",
                                      "5.0"}));
    // The average skips the inf row: (5 x 10 + 5) / 6 and
    // (5 x 5 + 2.5) / 6.
    EXPECT_EQ(rowOf(text, "average"),
              (std::vector<std::string>{"average", "-", "-", "-", "9.2",
                                        "4.6"}));
}

TEST(PaperTables, Fig7BreaksSspWritesDownInPercent)
{
    const auto results = syntheticResults(
        "fig7", [](const SweepCell &cell, RunResult &run) {
            switch (cell.backend) {
              case BackendKind::UndoLog:
                run.nvramWrites = 400;
                break;
              case BackendKind::RedoLog:
                run.nvramWrites = 250;
                break;
              default:
                run.nvramWrites = 200;
                run.dataWrites = 100;
                run.journalWrites = 50;
                run.consolidationWrites = 40;
                run.checkpointWrites = 10;
            }
        });
    const std::string text = renderSweepTable("fig7", results);
    EXPECT_EQ(rowOf(text, "average"),
              (std::vector<std::string>{"average", "-", "-", "-", "50%",
                                        "20%"}));
    const std::size_t part_b = text.find("Figure 7b");
    ASSERT_NE(part_b, std::string::npos);
    EXPECT_EQ(rowOf(text, "Hash-Zipf", part_b),
              (std::vector<std::string>{"Hash-Zipf", "50.0", "25.0", "20.0",
                                        "5.0"}));
}

TEST(PaperTables, Fig9DividesByTheWorkloadsOwnRedoBaseline)
{
    // Each workload's REDO-LOG baseline differs; SSP scales with it, so
    // the speedup at latency L is L / 100 in every column.
    const auto results = syntheticResults(
        "fig9", [](const SweepCell &cell, RunResult &run) {
            const std::uint64_t scale = microIndex(cell.workload) + 1;
            run.committedTxs = cell.backend == BackendKind::RedoLog
                                   ? 100 * scale
                                   : cell.sspCacheFixedLatency * scale;
        });
    const std::string text = renderSweepTable("fig9", results);
    EXPECT_EQ(rowOf(text, "20"), (std::vector<std::string>{
                                     "20", "0.20", "0.20", "0.20", "0.20",
                                     "0.20", "0.20", "0.20"}));
    EXPECT_EQ(rowOf(text, "180"), (std::vector<std::string>{
                                      "180", "1.80", "1.80", "1.80", "1.80",
                                      "1.80", "1.80", "1.80"}));
}

TEST(PaperTables, Table3FlagsAWriteSetPastTheBuffer)
{
    auto fill = [](std::uint64_t vacation_max_pages) {
        return [=](const SweepCell &cell, RunResult &run) {
            run.avgLinesPerTx = 3;
            run.avgPagesPerTx = 2;
            run.maxPagesPerTx = cell.workload == WorkloadKind::Vacation
                                    ? vacation_max_pages
                                    : 4;
        };
    };
    const std::string fits =
        renderSweepTable("table3", syntheticResults("table3", fill(64)));
    EXPECT_NE(fits.find("sufficient for all workloads: yes"),
              std::string::npos);
    EXPECT_EQ(rowOf(fits, "Memcached"),
              (std::vector<std::string>{"Memcached", "3.0", "2.0", "4",
                                        "3/2/35"}));
    const std::string overflows =
        renderSweepTable("table3", syntheticResults("table3", fill(65)));
    EXPECT_NE(overflows.find("sufficient for all workloads: NO"),
              std::string::npos);
    EXPECT_NE(overflows.find("paper reference: none of the evaluated"),
              std::string::npos);
}

TEST(PaperTables, Table45ReportsSpeedupAndWriteSavingPercentages)
{
    const auto results = syntheticResults(
        "table45", [](const SweepCell &cell, RunResult &run) {
            switch (cell.backend) {
              case BackendKind::UndoLog:
                run.committedTxs = 100;
                run.nvramWrites = 1000;
                break;
              case BackendKind::RedoLog:
                run.committedTxs = 150;
                run.nvramWrites = 500;
                break;
              default:
                run.committedTxs = 300;
                run.nvramWrites = 250;
            }
        });
    const std::string text = renderSweepTable("table45", results);
    EXPECT_EQ(rowOf(text, "Memcached"),
              (std::vector<std::string>{"Memcached", "200%", "100%", "75%",
                                        "/", "35%"}));
    const std::size_t table5 = text.find("Table 5:");
    ASSERT_NE(table5, std::string::npos);
    EXPECT_EQ(rowOf(text, "Vacation", table5),
              (std::vector<std::string>{"Vacation", "75%", "50%", "38%", "/",
                                        "17%"}));
}

TEST(PaperTables, FailedOrFilteredGridsFallBackToTheGenericTable)
{
    auto fill = [](const SweepCell &, RunResult &run) {
        run.committedTxs = 100;
    };
    auto results = syntheticResults("fig5", fill);
    EXPECT_NE(renderSweepTable("fig5", results).find("geomean"),
              std::string::npos);

    results[3].ok = false;
    results[3].error = "boom";
    const std::string failed = renderSweepTable("fig5", results);
    EXPECT_EQ(failed.find("geomean"), std::string::npos);
    EXPECT_NE(failed.find("FAILED: boom"), std::string::npos);
    EXPECT_NE(failed.find(results[0].cell.label()), std::string::npos);

    // A backend filter drops cells the paper table needs.
    results = syntheticResults("fig5", fill);
    std::erase_if(results, [](const CellResult &r) {
        return r.cell.backend != BackendKind::Ssp;
    });
    const std::string filtered = renderSweepTable("fig5", results);
    EXPECT_EQ(filtered.find("geomean"), std::string::npos);
    EXPECT_NE(filtered.find(results[0].cell.label()), std::string::npos);
}

// ---- replay of the checked-in BENCH grids ----------------------------------

Json
loadCheckedIn(const std::string &figure)
{
    const std::string name = "BENCH_" + figure + ".json";
    std::ifstream in(std::string(SSP_SOURCE_DIR) + "/" + name);
    EXPECT_TRUE(in) << "checked-in " << name << " missing";
    std::stringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
}

/** One filtered slice of a checked-in grid, at the grid's own txs. */
struct ReplayRow
{
    const char *figure;
    SweepGridOptions opts;
    std::size_t cells; ///< expected slice size
};

std::vector<ReplayRow>
replayRows()
{
    std::vector<ReplayRow> rows;
    auto add = [&](const char *figure, std::size_t cells,
                   auto &&filter) {
        ReplayRow row{figure, {}, cells};
        filter(row.opts);
        rows.push_back(row);
    };
    add("smoke", 1, [](SweepGridOptions &) {});
    add("scale", 3, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::BTreeZipf};
        o.coreCounts = {4};
    });
    add("scale64", 3, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::HashZipf};
        o.coreCounts = {16};
    });
    add("queue", 3, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.coreCounts = {4};
        o.loads = {0.6};
    });
    add("fig5", 2, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.backends = {BackendKind::Ssp};
    });
    add("chan", 1, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.backends = {BackendKind::Ssp};
        o.channels = {2};
    });
    add("scale256", 2, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.backends = {BackendKind::Ssp};
        o.coreCounts = {16};
    });
    add("shard", 3, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.backends = {BackendKind::Ssp};
        o.machines = {2};
    });
    add("fault", 2, [](SweepGridOptions &o) {
        o.workloads = {WorkloadKind::Sps};
        o.backends = {BackendKind::Ssp};
        o.machines = {2};
        o.faultRates = {20};
    });
    return rows;
}

TEST(SweepReplay, EveryGridSliceMatchesItsCheckedInCells)
{
    // Each emitted cell object must equal the checked-in cell with the
    // same label, coordinates and metrics alike.
    for (const ReplayRow &row : replayRows()) {
        SCOPED_TRACE(row.figure);
        const auto cells = buildFigureGrid(row.figure, row.opts);
        ASSERT_EQ(cells.size(), row.cells);
        const Json report = sweepReport(row.figure, runSweep(cells, 2));
        const Json checked_in = loadCheckedIn(row.figure);
        const Json &want_cells = checked_in["cells"];
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Json &got = report["cells"].at(i);
            const std::string label = got["label"].asString();
            std::size_t hits = 0;
            for (std::size_t j = 0; j < want_cells.size(); ++j) {
                if (want_cells.at(j)["label"].asString() != label)
                    continue;
                ++hits;
                EXPECT_EQ(got.dump(2), want_cells.at(j).dump(2)) << label;
            }
            EXPECT_EQ(hits, 1u) << label;
        }
    }
}

TEST(SweepRunner, ScaleSweepIsJobsInvariant)
{
    // More workers produce the same per-cell results, per-core metrics
    // included, in the same slot order.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps, WorkloadKind::HashRand};
    opts.coreCounts = {2};
    opts.txs = 300;
    const auto cells = buildFigureGrid("scale", opts);
    ASSERT_GE(cells.size(), 4u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok && parallel[i].ok);
        expectSameRun(serial[i].run, parallel[i].run);
        EXPECT_EQ(serial[i].run.coreBusyCycles,
                  parallel[i].run.coreBusyCycles);
        EXPECT_EQ(serial[i].run.coreTxs, parallel[i].run.coreTxs);
    }
    EXPECT_EQ(sweepReport("scale", serial).dump(2),
              sweepReport("scale", parallel).dump(2));
}

TEST(SweepRunner, Scale256CellsAreDeterministicAcrossJobs)
{
    SweepGridOptions opts;
    opts.coreCounts = {1, 4};
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 40;
    const auto cells = buildFigureGrid("scale256", opts);
    ASSERT_EQ(cells.size(), 4u); // 2 core counts x 2 modes
    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 3);
    const Json a = sweepReport("scale256", serial);
    const Json b = sweepReport("scale256", parallel);
    EXPECT_EQ(a.dump(2), b.dump(2));
}

} // namespace
} // namespace ssp::sweep::test
