#include "harness/oracle.hh"

#include <cmath>
#include <map>

#include "common/logging.hh"

namespace perfbench
{

using ssp::Json;

namespace
{

std::map<std::string, const Json *>
cellsByLabel(const Json &report)
{
    std::map<std::string, const Json *> out;
    const Json &cells = report["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i)
        out[cells.at(i)["label"].asString()] = &cells.at(i);
    return out;
}

/** @p obj with member @p key replaced by @p value. */
Json
withMember(const Json &obj, const std::string &key, Json value)
{
    Json out = obj;
    out.set(key, std::move(value));
    return out;
}

} // namespace

std::size_t
countMisses(const Json &got, const Json &want, bool metrics_only,
            std::vector<std::string> *misses)
{
    const std::map<std::string, const Json *> index = cellsByLabel(want);
    const Json &cells = got["cells"];
    std::size_t count = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Json &c = cells.at(i);
        const std::string &label = c["label"].asString();
        const auto it = index.find(label);
        bool match = it != index.end();
        if (match && metrics_only) {
            match = c["ok"].asBool() && c.has("metrics") &&
                    it->second->has("metrics") &&
                    c["metrics"].dump() == (*it->second)["metrics"].dump();
        } else if (match) {
            match = c.dump() == it->second->dump();
        }
        if (!match) {
            ++count;
            if (misses != nullptr)
                misses->push_back(label);
        }
    }
    return count;
}

bool
oracleSelfTest(const Json &reference, std::string &detail)
{
    const Json &cells = reference["cells"];
    const Json &first = cells.at(0);
    const auto &[name, value] = first["metrics"].members().front();
    const Json bumped = Json::number(value.asDouble() + 1);

    Json perturbed_cells = Json::array();
    perturbed_cells.push(withMember(
        first, "metrics", withMember(first["metrics"], name, bumped)));
    for (std::size_t i = 1; i < cells.size(); ++i)
        perturbed_cells.push(cells.at(i));
    const Json perturbed =
        withMember(reference, "cells", std::move(perturbed_cells));

    const Json clean = reference;
    const std::size_t clean_misses = countMisses(clean, reference, true);
    const std::size_t perturbed_misses =
        countMisses(perturbed, reference, true);
    detail = first["label"].asString() + " metrics." + name + " " +
             value.dump() + " -> " + bumped.dump() + ": " +
             std::to_string(perturbed_misses) + " miss(es); clean copy: " +
             std::to_string(clean_misses);
    return clean_misses == 0 && perturbed_misses == 1;
}

std::vector<PaperClaim>
paperClaims(const std::vector<ssp::sweep::CellResult> &fig5)
{
    using ssp::BackendKind;
    auto find = [&](BackendKind b, ssp::WorkloadKind w,
                    unsigned cores) -> const ssp::RunResult & {
        for (const auto &r : fig5) {
            if (r.cell.backend == b && r.cell.workload == w &&
                r.cell.cores == cores) {
                ssp_assert(r.ok, "fig5 cell %s failed",
                           r.cell.label().c_str());
                return r.run;
            }
        }
        ssp_fatal("fig5 grid lacks %s/%s/c%u", ssp::backendKindName(b),
                  ssp::workloadKindName(w), cores);
    };
    // Per-workload ratio of SSP against @p base, folded by geometric or
    // arithmetic mean over the seven microbenchmarks.
    auto fold = [&](BackendKind base, unsigned cores, bool geometric,
                    auto &&ratio) {
        double acc = 0;
        const auto kinds = ssp::microbenchmarks();
        for (ssp::WorkloadKind w : kinds) {
            const double r = ratio(find(BackendKind::Ssp, w, cores),
                                   find(base, w, cores));
            acc += geometric ? std::log(r) : r;
        }
        acc /= static_cast<double>(kinds.size());
        return geometric ? std::exp(acc) : acc;
    };
    auto tps = [](const ssp::RunResult &ssp, const ssp::RunResult &base) {
        return ssp.tps() / base.tps();
    };
    auto logging = [](const ssp::RunResult &ssp,
                      const ssp::RunResult &base) {
        return static_cast<double>(base.loggingWrites) /
               static_cast<double>(ssp.loggingWrites);
    };
    auto writes = [](const ssp::RunResult &ssp, const ssp::RunResult &base) {
        return static_cast<double>(ssp.nvramWrites) /
               static_cast<double>(base.nvramWrites);
    };

    constexpr const char *k5a =
        "geomean SSP/baseline tps ratio, 7 microbenchmarks, 1 core";
    constexpr const char *k5b =
        "geomean SSP/baseline tps ratio, 7 microbenchmarks, 4 cores";
    constexpr const char *k6 = "geomean baseline/SSP logging-write ratio, "
                               "7 microbenchmarks, 1 core";
    constexpr const char *k7 = "mean SSP/baseline NVRAM-write ratio "
                               "(1 - saving), 7 microbenchmarks, 1 core";
    const BackendKind undo = BackendKind::UndoLog;
    const BackendKind redo = BackendKind::RedoLog;
    return {
        {"Fig 5a", "UNDO-LOG", k5a, 1.9, fold(undo, 1, true, tps)},
        {"Fig 5a", "REDO-LOG", k5a, 1.3, fold(redo, 1, true, tps)},
        {"Fig 5b", "UNDO-LOG", k5b, 2.4, fold(undo, 4, true, tps)},
        {"Fig 5b", "REDO-LOG", k5b, 1.4, fold(redo, 4, true, tps)},
        {"Fig 6", "UNDO-LOG", k6, 7.6, fold(undo, 1, true, logging)},
        {"Fig 6", "REDO-LOG", k6, 4.7, fold(redo, 1, true, logging)},
        {"Fig 7", "UNDO-LOG", k7, 0.55, fold(undo, 1, false, writes)},
        {"Fig 7", "REDO-LOG", k7, 0.72, fold(redo, 1, false, writes)},
    };
}

double
paperGap(const std::vector<PaperClaim> &claims)
{
    double sum = 0;
    for (const PaperClaim &c : claims)
        sum += std::fabs(std::log(c.reproduced / c.paper));
    return sum / static_cast<double>(claims.size());
}

} // namespace perfbench
