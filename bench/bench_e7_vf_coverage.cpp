// E7 -- "V/F level coverage of tests" (reconstructed Fig.; journal
// extension claim).
//
// Claim under test: with the rotation policy, test sessions cover every
// voltage/frequency level of the platform over time (frequency-dependent
// faults require testing at every operating point), whereas a fixed-level
// policy leaves all other levels untested.
//
// The three policies run as one campaign (pass jobs=N to parallelize).

#include <cstdio>

#include "bench_common.hpp"
#include "runner/campaign_runner.hpp"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
    const BenchOptions opt = parse_options(argc, argv);
    print_header("E7: V/F level coverage of test sessions",
                 "rotation covers all DVFS levels; fixed policy leaves "
                 "levels untested");
    BenchReport report("e7_vf_coverage", opt);

    CampaignSpec spec;
    spec.base.set("width", "8");
    spec.base.set("height", "8");
    spec.base.set("node", "16nm");
    spec.base.set("occupancy", "0.5");
    spec.axes = {{"vf_policy", {"rotate-all", "max-only", "min-only"}}};
    spec.replicas = 1;
    spec.campaign_seed = 47;
    spec.seconds = opt.quick ? 2.0 : 10.0;

    CampaignRunner runner(std::move(spec));
    const CampaignResult res = runner.run(opt.jobs);
    for (const ReplicaResult& r : res.replicas) {
        if (!r.ok) {
            std::fprintf(stderr, "replica failed: %s\n", r.error.c_str());
            return 1;
        }
    }
    const RunMetrics& rotate_m = res.cell(0)[0].metrics;
    const RunMetrics& max_m = res.cell(1)[0].metrics;
    const RunMetrics& min_m = res.cell(2)[0].metrics;
    const auto& rotate = rotate_m.tests_per_vf_level;
    const auto& max_only = max_m.tests_per_vf_level;
    const auto& min_only = min_m.tests_per_vf_level;

    const auto& table_levels = build_vf_table(technology(TechNode::nm16));
    TablePrinter table({"VF level", "voltage [V]", "freq [GHz]",
                        "tests (rotate-all)", "tests (max-only)",
                        "tests (min-only)"});
    for (std::size_t l = 0; l < table_levels.size(); ++l) {
        table.add_row({fmt(static_cast<std::int64_t>(l)),
                       fmt(table_levels[l].voltage_v, 2),
                       fmt(table_levels[l].freq_hz / 1e9, 2), fmt(rotate[l]),
                       fmt(max_only[l]), fmt(min_only[l])});
    }
    std::printf("%s\n", table.to_string().c_str());

    int covered = 0;
    for (auto c : rotate) {
        covered += c > 0 ? 1 : 0;
    }
    std::printf("rotation policy covered %d/%zu levels\n", covered,
                rotate.size());
    std::printf("completed/aborted: rotate-all %llu/%llu | max-only "
                "%llu/%llu | min-only %llu/%llu\n",
                static_cast<unsigned long long>(rotate_m.tests_completed),
                static_cast<unsigned long long>(rotate_m.tests_aborted),
                static_cast<unsigned long long>(max_m.tests_completed),
                static_cast<unsigned long long>(max_m.tests_aborted),
                static_cast<unsigned long long>(min_m.tests_completed),
                static_cast<unsigned long long>(min_m.tests_aborted));
    std::printf("note: min-only sessions run ~12x longer (0.2 vs 2.5 GHz), "
                "so under mapping contention many are aborted -- the "
                "rotation policy amortizes this across levels.\n");

    report.metric("levels_covered_rotate", covered);
    report.metric("tests_completed_rotate",
                  static_cast<double>(rotate_m.tests_completed));
    report.metric("tests_completed_max_only",
                  static_cast<double>(max_m.tests_completed));
    report.metric("tests_completed_min_only",
                  static_cast<double>(min_m.tests_completed));
    report.write();
    return 0;
}
