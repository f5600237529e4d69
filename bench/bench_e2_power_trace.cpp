// E2 -- "Power trace over time" (reconstructed Fig.).
//
// Claim under test: under PID capping the total power never exceeds the
// TDP, and SBST test power rides inside the slack left by the workload
// (tests fill the gap between workload power and the cap).
//
// Output: a downsampled time series (table) plus e2_power_trace.csv with
// every sample.

#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/system_observer.hpp"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
    const BenchOptions opt = parse_options(argc, argv);
    print_header("E2: power trace over time",
                 "capped power <= TDP; test power fills the slack under the "
                 "cap");
    BenchReport report("e2_power_trace", opt);

    SystemConfig cfg = base_config(11);
    set_occupancy(cfg, 0.6);
    cfg.scheduler = SchedulerKind::PowerAware;
    cfg.trace_epoch = 5 * kMillisecond;

    struct SampleLog final : SystemObserver {
        std::vector<TraceSample> samples;
        void on_trace_sample(const TraceSample& s) override {
            samples.push_back(s);
        }
    } log;
    const std::string csv_path = out_path(opt, "e2_power_trace.csv");
    PowerTraceCsv csv(csv_path);
    ManycoreSystem sys(cfg);
    sys.add_observer(&csv);
    sys.add_observer(&log);
    const RunMetrics m = sys.run(horizon(opt, 6.0, 1.5));
    const std::vector<TraceSample>& samples = log.samples;

    TablePrinter table({"t [s]", "workload [W]", "test [W]", "other [W]",
                        "total [W]", "TDP [W]", "busy", "testing", "dark"});
    const std::size_t stride = samples.size() / 24 + 1;
    for (std::size_t i = 0; i < samples.size(); i += stride) {
        const TraceSample& s = samples[i];
        table.add_row({fmt(to_seconds(s.time), 2), fmt(s.workload_power_w, 1),
                       fmt(s.test_power_w, 1), fmt(s.other_power_w, 1),
                       fmt(s.total_power_w, 1), fmt(s.tdp_w, 1),
                       fmt(static_cast<std::int64_t>(s.cores_busy)),
                       fmt(static_cast<std::int64_t>(s.cores_testing)),
                       fmt(static_cast<std::int64_t>(s.cores_dark))});
    }
    std::printf("%s\n", table.to_string().c_str());

    double peak = 0.0, test_peak = 0.0;
    for (const TraceSample& s : samples) {
        peak = std::max(peak, s.total_power_w);
        test_peak = std::max(test_peak, s.test_power_w);
    }
    std::printf("TDP %.1f W | peak total %.1f W | peak test power %.1f W | "
                "TDP violation rate %.4f%% | full trace: %s (%zu samples)\n",
                m.tdp_w, peak, test_peak, m.tdp_violation_rate * 100.0,
                csv_path.c_str(), samples.size());

    report.metric("tdp_w", m.tdp_w);
    report.metric("peak_total_w", peak);
    report.metric("peak_test_w", test_peak);
    report.metric("tdp_violation_rate", m.tdp_violation_rate);
    report.metric("trace_samples", static_cast<double>(samples.size()));
    report.write();
    return 0;
}
