// X2 -- extension: does the scheme scale with core count?
//
// The paper family evaluates 8x8 .. 12x12 chips. Scaling the chip at a
// fixed occupancy multiplies the mapping-event rate while a test session's
// length stays constant, so the chance that an idle core survives a session
// untouched falls -- with abortable sessions the scheduler degenerates into
// start/abort churn. Making sessions atomic (the mapper must briefly wait
// for, or route around, a testing core) restores coverage at negligible
// throughput cost. This experiment quantifies both policies across sizes,
// as a (side x session-policy) campaign grid (pass jobs=N to parallelize).

#include <cstdio>

#include "bench_common.hpp"
#include "runner/campaign_runner.hpp"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
    const BenchOptions opt = parse_options(argc, argv);
    print_header("X2 (extension): scaling the chip",
                 "abortable sessions churn on large chips; atomic sessions "
                 "keep full test coverage at the same throughput");
    BenchReport report("x2_scale", opt);

    const std::vector<std::string> sides =
        opt.quick ? std::vector<std::string>{"4", "8"}
                  : std::vector<std::string>{"4", "8", "12", "16"};
    const std::vector<std::string> sessions{"abortable", "atomic",
                                            "segmented"};
    CampaignSpec spec;
    spec.base.set("node", "16nm");
    spec.base.set("occupancy", "0.9");
    spec.axes = {{"side", sides}, {"sessions", sessions}};
    spec.replicas = 1;
    spec.campaign_seed = 89;
    spec.seconds = opt.quick ? 1.0 : 8.0;

    CampaignRunner runner(std::move(spec));
    const CampaignResult res = runner.run(opt.jobs);
    for (const ReplicaResult& r : res.replicas) {
        if (!r.ok) {
            std::fprintf(stderr, "replica failed: %s\n", r.error.c_str());
            return 1;
        }
    }

    TablePrinter table({"chip", "sessions", "work Gcycles/s",
                        "tests/core/s", "untested cores", "max gap [s]",
                        "aborted", "TDP viol."});
    for (std::size_t i = 0; i < sides.size(); ++i) {
        for (std::size_t v = 0; v < sessions.size(); ++v) {
            const RunMetrics& m =
                res.cell(i * sessions.size() + v)[0].metrics;
            report.metric("untested_fraction." + sessions[v] + "." +
                              sides[i] + "x" + sides[i],
                          m.untested_core_fraction);
            table.add_row({sides[i] + "x" + sides[i], sessions[v],
                           fmt(m.work_cycles_per_s / 1e9, 2),
                           fmt(m.tests_per_core_per_s, 2),
                           fmt_pct(m.untested_core_fraction, 1),
                           fmt(m.max_open_test_gap_s, 2),
                           fmt(m.tests_aborted),
                           fmt_pct(m.tdp_violation_rate, 3)});
        }
        table.add_separator();
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("note: same occupancy (0.9) at every size; 'atomic' makes "
                "the mapper treat testing cores as busy for the ~3 ms "
                "session instead of aborting them.\n");
    std::printf("campaign: %zu runs in %.1f s wall\n", res.replicas.size(),
                res.wall_seconds);
    report.write();
    return 0;
}
