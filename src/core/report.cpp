#include "core/report.hpp"

#include <sstream>

#include "app/workload.hpp"
#include "core/metric_catalog.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace mcs {

std::string format_metrics(const RunMetrics& m) {
    std::ostringstream os;
    const double secs = to_seconds(m.sim_time);
    os << "simulated " << fmt(secs, 2) << " s on " << m.core_count
       << " cores\n";
    os << "workload : " << m.apps_completed << "/" << m.apps_arrived
       << " apps, " << m.tasks_completed << " tasks ("
       << fmt(m.throughput_tasks_per_s, 1) << " tasks/s, "
       << fmt(m.work_cycles_per_s / 1e9, 2) << " Gcycles/s)\n";
    os << "chip     : " << fmt_pct(m.mean_chip_utilization, 1) << " busy, "
       << fmt_pct(m.mean_reserved_fraction, 1) << " reserved, "
       << fmt_pct(m.mean_dark_fraction, 1) << " dark\n";
    os << "power    : TDP " << fmt(m.tdp_w, 1) << " W, mean "
       << fmt(m.mean_power_w, 1) << " W, max " << fmt(m.max_power_w, 1)
       << " W, violations " << fmt_pct(m.tdp_violation_rate, 3)
       << " (worst +" << fmt(m.worst_overshoot_w, 2) << " W)\n";
    os << "energy   : " << fmt(m.energy_total_j, 1) << " J total, "
       << fmt_pct(m.test_energy_share) << " on test\n";
    os << "testing  : " << m.tests_completed << " sessions ("
       << fmt(m.tests_per_core_per_s, 2) << " /core/s), "
       << m.tests_aborted << " aborted";
    if (m.test_interval_s.count() > 0) {
        os << ", mean interval " << fmt(m.test_interval_s.mean(), 2)
           << " s";
    }
    os << ", max open gap " << fmt(m.max_open_test_gap_s, 2) << " s, "
       << fmt_pct(m.untested_core_fraction, 1) << " cores untested\n";
    if (m.faults_injected > 0) {
        os << "faults   : " << m.faults_detected << "/" << m.faults_injected
           << " detected, " << m.test_escapes << " routine escapes, "
           << m.corrupted_tasks << " corrupted tasks";
        if (m.detection_latency_s.count() > 0) {
            os << ", mean latency " << fmt(m.detection_latency_s.mean(), 2)
               << " s";
        }
        os << "\n";
    }
    const bool has_rt =
        m.deadlines_met_by_class.size() == kQosClassCount &&
        (m.deadlines_met_by_class[1] + m.deadlines_missed_by_class[1] +
             m.deadlines_met_by_class[2] + m.deadlines_missed_by_class[2] >
         0);
    if (has_rt) {
        auto miss = [&](std::size_t cls) {
            const auto total = m.deadlines_met_by_class[cls] +
                               m.deadlines_missed_by_class[cls];
            return total == 0 ? 0.0
                              : static_cast<double>(
                                    m.deadlines_missed_by_class[cls]) /
                                    static_cast<double>(total);
        };
        os << "QoS      : hard-RT miss " << fmt_pct(miss(2), 2)
           << ", soft-RT miss " << fmt_pct(miss(1), 2) << "\n";
    }
    os << "thermal  : peak " << fmt(m.peak_temp_c, 1) << " C | aging: max "
       << fmt(m.max_damage, 4) << ", imbalance "
       << fmt(m.damage_imbalance, 2) << "\n";
    os << "NoC      : " << m.noc_messages << " messages, peak link util "
       << fmt_pct(m.noc_peak_utilization, 1) << "\n";
    return os.str();
}

void write_metrics_csv(const RunMetrics& m, const std::string& path) {
    CsvWriter csv(path, {"metric", "value"});
    auto row = [&](const std::string& key, double value) {
        std::ostringstream os;
        os.precision(9);
        os << value;
        csv.write_row(std::vector<std::string>{key, os.str()});
    };
    for (const MetricDef& def : metric_catalog()) {
        row(def.name, def.get(m));
    }
    // Vector metrics, one row per index, in the run report's `vectors`
    // order.
    auto rows = [&](const std::string& prefix,
                    const std::vector<std::uint64_t>& values) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            row(prefix + std::to_string(i), static_cast<double>(values[i]));
        }
    };
    rows("tests_vf_level_", m.tests_per_vf_level);
    rows("apps_completed_class", m.apps_completed_by_class);
    rows("deadlines_met_class", m.deadlines_met_by_class);
    rows("deadlines_missed_class", m.deadlines_missed_by_class);
}

}  // namespace mcs
