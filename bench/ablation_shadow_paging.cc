/**
 * @file
 * Ablation A1: conventional page-granularity shadow paging vs SSP.
 *
 * The paper excludes conventional shadow paging from its figures with an
 * analytic argument ("transactions only touch 2-6 cache lines on
 * average; conventional shadow paging degrades performance by writing up
 * to 64x more cache lines", section 5.1).  This bench measures that
 * claim directly with the SHADOW backend.
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system_builder.hh"
#include "sweep/sweep_grid.hh"

using namespace ssp;

int
main()
{
    setVerbose(false);
    SspConfig cfg = sweep::paperConfig(1);
    std::printf("%s", sweep::paperTableHeader(
                          "Ablation A1: conventional shadow paging "
                          "(SHADOW) vs SSP",
                          cfg)
                          .c_str());

    TextTable table({"workload", "SHADOW writes/tx", "SSP writes/tx",
                     "amplification", "SHADOW TPS/SSP TPS"});
    for (WorkloadKind w : microbenchmarks()) {
        auto shadow_exp = buildExperiment(BackendKind::Shadow, w, cfg,
                                          sweep::paperScale());
        RunResult shadow = runExperiment(shadow_exp, sweep::kDefaultTxs, 1);
        auto ssp_exp =
            buildExperiment(BackendKind::Ssp, w, cfg, sweep::paperScale());
        RunResult ssp = runExperiment(ssp_exp, sweep::kDefaultTxs, 1);
        table.addRow({workloadKindName(w),
                      fmtDouble(shadow.writesPerTx(), 1),
                      fmtDouble(ssp.writesPerTx(), 1),
                      fmtDouble(shadow.writesPerTx() / ssp.writesPerTx(),
                                1) +
                          "x",
                      fmtDouble(shadow.tps() / ssp.tps())});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("%s", sweep::paperNote(
                          "conventional shadow paging copies whole pages, "
                          "writing up to 64x more cache lines than the 2-6 "
                          "a transaction actually modifies — which is why "
                          "the paper develops cache-line-granular shadow "
                          "sub-paging instead")
                          .c_str());
    return 0;
}
