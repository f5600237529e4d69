#pragma once

#include <iosfwd>
#include <string>

#include "core/metrics.hpp"
#include "core/system_observer.hpp"
#include "util/csv.hpp"

namespace mcs {

/// Human-readable multi-line summary of a run (used by the examples and
/// the mcs_sim CLI).
std::string format_metrics(const RunMetrics& m);

/// Writes the metrics as a two-column (key,value) CSV for downstream
/// tooling: every metric_catalog() scalar in catalog order, then the
/// vector metrics expanded per index.
void write_metrics_csv(const RunMetrics& m, const std::string& path);

/// The power trace as a CSV, one row per trace sample: t_s, workload_w,
/// test_w, other_w, total_w, tdp_w, busy, testing, dark, max_temp_c
/// (mcs_sim's power_trace=, bench E2's e2_power_trace.csv). Register it
/// with ManycoreSystem::add_observer before run().
class PowerTraceCsv final : public SystemObserver {
public:
    /// Opens `path` and writes the header row.
    explicit PowerTraceCsv(const std::string& path);

    void on_trace_sample(const TraceSample& s) override;
    std::size_t rows_written() const noexcept { return csv_.rows_written(); }

private:
    CsvWriter csv_;
};

}  // namespace mcs
