#include "sweep/sweep_grid.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ssp::sweep
{

ConflictMode
parseConflictMode(const std::string &name)
{
    if (name == "fcw")
        return ConflictMode::FirstCommitterWins;
    if (name == "lazy")
        return ConflictMode::Lazy;
    if (name == "off")
        return ConflictMode::Off;
    ssp_fatal("unknown conflict mode '%s' (expected fcw, lazy or off)",
              name.c_str());
}

const char *
conflictModeName(ConflictMode mode)
{
    switch (mode) {
      case ConflictMode::FirstCommitterWins:
        return "fcw";
      case ConflictMode::Lazy:
        return "lazy";
      case ConflictMode::Off:
        return "off";
    }
    ssp_panic("unreachable conflict mode");
}

const char *
coherenceModeName(CoherenceMode mode)
{
    switch (mode) {
      case CoherenceMode::Broadcast:
        return "broadcast";
      case CoherenceMode::Directory:
        return "directory";
    }
    ssp_panic("unreachable coherence mode");
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &value,
           std::uint64_t max_value, std::uint64_t min_value)
{
    // Digits only: std::stoull by itself skips leading blanks, takes a
    // sign and wraps "-1" to 2^64-1, and stops at trailing junk ("4x").
    bool valid = !value.empty() &&
                 value.find_first_not_of("0123456789") == std::string::npos;
    std::uint64_t v = 0;
    if (valid) {
        try {
            v = std::stoull(value);
        } catch (const std::out_of_range &) {
            valid = false;
        }
    }
    if (!valid || v < min_value || v > max_value) {
        ssp_fatal("%s values must be integers in [%llu, %llu], got '%s'",
                  flag.c_str(), static_cast<unsigned long long>(min_value),
                  static_cast<unsigned long long>(max_value), value.c_str());
    }
    return v;
}

std::vector<unsigned>
parseCountList(const std::string &flag, const std::string &list,
               unsigned max_value)
{
    std::vector<unsigned> out;
    for (const std::string &item : splitCommas(list)) {
        out.push_back(
            static_cast<unsigned>(parseCount(flag, item, max_value)));
    }
    if (out.empty())
        ssp_fatal("%s: empty count list", flag.c_str());
    return out;
}

std::vector<double>
parseLoadList(const std::string &flag, const std::string &list)
{
    std::vector<double> out;
    for (const std::string &item : splitCommas(list)) {
        double v = 0;
        try {
            std::size_t used = 0;
            v = std::stod(item, &used);
            if (used != item.size())
                v = 0; // trailing junk ("0.6x") is invalid too
        } catch (const std::exception &) {
            v = 0;
        }
        if (!(v > 0) || v > 10) {
            ssp_fatal("%s values must be decimals in (0, 10], got '%s'",
                      flag.c_str(), item.c_str());
        }
        out.push_back(v);
    }
    if (out.empty())
        ssp_fatal("%s: empty load list", flag.c_str());
    return out;
}

std::vector<double>
parseFaultRateList(const std::string &flag, const std::string &list)
{
    std::vector<double> out;
    for (const std::string &item : splitCommas(list)) {
        double v = -1;
        try {
            std::size_t used = 0;
            v = std::stod(item, &used);
            if (used != item.size())
                v = -1; // trailing junk ("5x") is invalid too
        } catch (const std::exception &) {
            v = -1;
        }
        if (v < 0 || v > 1000) {
            ssp_fatal("%s values must be decimals in [0, 1000], got '%s'",
                      flag.c_str(), item.c_str());
        }
        out.push_back(v);
    }
    if (out.empty())
        ssp_fatal("%s: empty fault-rate list", flag.c_str());
    return out;
}

std::vector<bool>
parseReplicateModes(const std::string &value)
{
    if (value == "off")
        return {false};
    if (value == "on")
        return {true};
    if (value == "both")
        return {false, true};
    ssp_fatal("--replicate must be 'off', 'on' or 'both', got '%s'",
              value.c_str());
}

SspConfig
SweepCell::config() const
{
    SspConfig cfg = base;
    cfg.numCores = cores;
    cfg.nvramLatencyMultiplier = nvramLatencyMultiplier;
    if (sspCacheFixedLatency != 0)
        cfg.sspCacheLatency.fixedLatency = sspCacheFixedLatency;
    if (nvramDevice != NvramDevice::PaperPcm)
        cfg.applyNvramDevice(nvramDevice);
    if (nvramChannels != 1)
        cfg.nvramChannels = nvramChannels;
    if (conflictMode == ConflictMode::Off)
        cfg.conflicts.enabled = false;
    else if (conflictMode == ConflictMode::Lazy)
        cfg.conflicts.validation = ConflictValidation::Lazy;
    cfg.coherence.mode = coherenceMode;
    return cfg;
}

std::string
SweepCell::label() const
{
    std::string out = figure + "/" + backendKindName(backend) + "/" +
                      workloadKindName(workload) + "/c" +
                      std::to_string(cores);
    if (nvramLatencyMultiplier > 0)
        out += "/nvram-x" + std::to_string(
                   static_cast<unsigned>(nvramLatencyMultiplier));
    if (sspCacheFixedLatency != 0)
        out += "/sspcache-" + std::to_string(sspCacheFixedLatency);
    if (nvramChannels != 1)
        out += "/ch" + std::to_string(nvramChannels);
    if (nvramDevice != NvramDevice::PaperPcm)
        out += std::string("/") + nvramDeviceName(nvramDevice);
    if (keyShards > 1)
        out += "/p" + std::to_string(keyShards);
    if (conflictMode != ConflictMode::FirstCommitterWins)
        out += std::string("/cc-") + conflictModeName(conflictMode);
    if (coherenceMode == CoherenceMode::Directory)
        out += "/dir";
    // Cluster coordinates: every cell of a grid with a machines axis
    // names its count (m1 included, so the fast-path cells are
    // self-describing);
    // the cross-shard fraction exists only where 2PC is possible, in
    // percent for byte-stable labels ("x10").
    const FigureSpec *row = findFigure(figure);
    if ((row != nullptr && !row->machines.empty()) || machines > 1)
        out += "/m" + std::to_string(machines);
    if (machines > 1)
        out += "/x" + std::to_string(
                   std::lround(crossShardFraction * 100));
    // Fault coordinates, in tenths ("f50" = rate 5.0) for byte-stable
    // labels; every cell of a grid with a fault-rate axis names its rate
    // (f0 included) so the zero-fault baseline points are
    // self-describing.
    if ((row != nullptr && !row->faultRates.empty()) || faultRate > 0)
        out += "/f" + std::to_string(std::lround(faultRate * 10));
    if (replicate)
        out += "/rep";
    if (offeredLoad > 0) {
        // Loads are encoded in percent ("load120") — integers keep the
        // label byte-stable regardless of float-formatting locale.
        out += std::string("/") + serve::arrivalKindName(arrival) +
               "/load" +
               std::to_string(std::lround(offeredLoad * 100));
    }
    return out;
}

std::uint64_t
deriveCellSeed(std::uint64_t base_seed, std::uint64_t ordinal)
{
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (ordinal + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const FigureSpec *
findFigure(const std::string &figure)
{
    for (const FigureSpec &row : figureTable()) {
        if (figure == row.name)
            return &row;
    }
    return nullptr;
}

std::vector<std::string>
knownFigures()
{
    std::vector<std::string> names;
    for (const FigureSpec &row : figureTable())
        names.emplace_back(row.name);
    return names;
}

namespace
{

template <typename T>
bool
keepKind(const std::vector<T> &filter, T kind)
{
    return filter.empty() ||
           std::find(filter.begin(), filter.end(), kind) != filter.end();
}

} // namespace

std::vector<SweepCell>
buildFigureGrid(const std::string &figure, const SweepGridOptions &opts)
{
    const FigureSpec *row = findFigure(figure);
    if (row == nullptr) {
        // List the known grids so a typo is a one-round-trip fix.
        std::string known;
        for (const std::string &name : knownFigures())
            known += (known.empty() ? "" : ", ") + name;
        ssp_fatal("unknown sweep figure '%s' (known grids: %s)",
                  figure.c_str(), known.c_str());
    }

    // An axis option applies only to the grids that sweep the axis;
    // failing beats silently handing back cells labeled as an
    // experiment they are not.
    auto require_axis = [&](bool given, auto axis, const char *option) {
        if (!given || !(row->*axis).empty())
            return;
        std::string grids;
        for (const FigureSpec &r : figureTable()) {
            if (!(r.*axis).empty()) {
                grids += grids.empty() ? "'" : ", '";
                grids += r.name;
                grids += "'";
            }
        }
        ssp_fatal("the %s option only applies to the %s grid(s), not '%s'",
                  option, grids.c_str(), figure.c_str());
    };
    require_axis(!opts.channels.empty(), &FigureSpec::channels, "channels");
    require_axis(!opts.coreCounts.empty(), &FigureSpec::cores, "cores");
    require_axis(!opts.loads.empty(), &FigureSpec::loads, "loads");
    require_axis(opts.arrival != serve::ArrivalKind::Poisson,
                 &FigureSpec::loads, "arrival");
    require_axis(!opts.machines.empty(), &FigureSpec::machines, "machines");
    require_axis(!opts.faultRates.empty(), &FigureSpec::faultRates,
                 "fault-rate");
    require_axis(!opts.replicateModes.empty(), &FigureSpec::replicateModes,
                 "replicate");
    // Validate the requested core counts against the figure's machine
    // preset up front: a clean one-line diagnostic here beats a Machine
    // assert deep inside a sweep worker.
    for (unsigned cores : opts.coreCounts) {
        if (cores > row->maxCores) {
            ssp_fatal("--cores %u exceeds the '%s' machine's %u-core "
                      "provisioning%s",
                      cores, figure.c_str(), row->maxCores,
                      row->maxCores < kMaxCores
                          ? " (use --figure scale256 for larger machines)"
                          : "");
        }
    }
    // Per-cell key sharding is a grid decision (the scale grid's
    // partitioned scenario); failing beats silently dropping a
    // caller-supplied value.
    if (opts.scale.keyShards != 1) {
        ssp_fatal("WorkloadScale.keyShards is set per cell by the grid; "
                  "it cannot be passed through SweepGridOptions");
    }

    // Every axis the caller left empty takes the row's default list.
    SweepGridOptions axes = opts;
    auto resolve = [](auto &list, const auto &fallback) {
        if (list.empty())
            list = fallback;
    };
    if (axes.txs == 0)
        axes.txs = row->defaultTxs;
    resolve(axes.channels, row->channels);
    resolve(axes.coreCounts, row->cores);
    resolve(axes.loads, row->loads);
    resolve(axes.machines, row->machines);
    resolve(axes.faultRates, row->faultRates);
    resolve(axes.replicateModes, row->replicateModes);
    std::vector<SweepCell> generated;
    row->generate(*row, axes, generated);

    std::vector<SweepCell> cells;
    std::uint64_t ordinal = 0;
    for (SweepCell &cell : generated) {
        cell.figure = figure;
        cell.scale = opts.scale;
        cell.scale.keyShards = cell.keyShards;
        cell.nvramDevice = opts.nvramDevice;
        cell.conflictMode = opts.conflictMode;
        if (row->smallMachine) {
            // Keep the cells proportionate to their tiny machine (and
            // the scale/shard/fault grids' streams identical to the
            // smoke cell's plane).
            cell.scale.keySpace = std::min<std::uint64_t>(
                cell.scale.keySpace, 1024);
            cell.scale.spsElements = std::min<std::uint64_t>(
                cell.scale.spsElements, 4096);
        }
        // Seeds are assigned by unfiltered ordinal so a cell's stream
        // is stable no matter which backend/workload filters apply; a
        // grid may pin the ordinal instead (chan: identical streams
        // across channel counts).
        const std::uint64_t seed_ordinal =
            cell.seedOrdinal >= 0
                ? static_cast<std::uint64_t>(cell.seedOrdinal)
                : ordinal;
        ++ordinal;
        cell.scale.seed = deriveCellSeed(opts.scale.seed, seed_ordinal);
        if (keepKind(opts.backends, cell.backend) &&
            keepKind(opts.workloads, cell.workload)) {
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

} // namespace ssp::sweep
