// E1 -- "Throughput vs injection rate" (reconstructed Fig.).
//
// Claim under test: the power-aware online test scheduler (PA-OTS) costs
// less than 1% system throughput at 16 nm across load levels, while
// power-oblivious testing (periodic / greedy) costs noticeably more under
// load or violates the power budget.
//
// Output: one row per (occupancy, scheduler) with throughput normalized to
// the no-test run of the same seeds. The (occupancy x scheduler x seed)
// grid runs through the campaign runner: pass jobs=N to parallelize
// (results are identical for any N).

#include <cstdio>

#include "bench_common.hpp"
#include "runner/campaign_runner.hpp"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
    const BenchOptions opt = parse_options(argc, argv);
    print_header("E1: throughput vs injection rate",
                 "PA-OTS throughput penalty < 1%; power-oblivious testing "
                 "costs more under load");
    BenchReport report("e1_throughput", opt);

    const std::vector<std::string> occupancies =
        opt.quick ? std::vector<std::string>{"0.5", "0.9"}
                  : std::vector<std::string>{"0.3", "0.5", "0.7", "0.9",
                                             "1.1"};
    const std::vector<std::string> schedulers{"none", "power-aware",
                                              "periodic", "greedy"};
    CampaignSpec spec;
    spec.base.set("width", "8");
    spec.base.set("height", "8");
    spec.base.set("node", "16nm");
    spec.axes = {{"occupancy", occupancies}, {"scheduler", schedulers}};
    spec.replicas = seeds(opt, 3);
    spec.campaign_seed = 1;
    spec.seconds = opt.quick ? 1.0 : 8.0;

    CampaignRunner runner(std::move(spec));
    const CampaignResult res = runner.run(opt.jobs);

    TablePrinter table({"occupancy", "scheduler", "work Gcycles/s",
                        "norm. throughput", "penalty", "tests/core/s",
                        "TDP viol."});
    for (std::size_t o = 0; o < occupancies.size(); ++o) {
        // Cell order: occupancy outer, scheduler inner (last axis fastest);
        // schedulers[0] is the no-test baseline of this occupancy.
        const std::size_t base_cell = o * schedulers.size();
        const double baseline = res.cell_mean(
            base_cell,
            [](const RunMetrics& m) { return m.work_cycles_per_s; });
        for (std::size_t s = 0; s < schedulers.size(); ++s) {
            const std::size_t c = base_cell + s;
            const double work = res.cell_mean(
                c, [](const RunMetrics& m) { return m.work_cycles_per_s; });
            const double norm = work / baseline;
            report.metric("norm_throughput." + schedulers[s] + ".occ" +
                              occupancies[o],
                          norm);
            table.add_row(
                {occupancies[o], schedulers[s], fmt(work / 1e9, 2),
                 fmt(norm, 4), fmt_pct(1.0 - norm),
                 fmt(res.cell_mean(c,
                                   [](const RunMetrics& m) {
                                       return m.tests_per_core_per_s;
                                   }),
                     2),
                 fmt_pct(res.cell_mean(c,
                                       [](const RunMetrics& m) {
                                           return m.tdp_violation_rate;
                                       }),
                         3)});
        }
        table.add_separator();
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("note: 'penalty' is relative to the no-test run of the same "
                "seeds; negative values are seed noise.\n");
    std::printf("campaign: %zu runs in %.1f s wall\n", res.replicas.size(),
                res.wall_seconds);
    report.write();
    return res.failed_count() == 0 ? 0 : 1;
}
