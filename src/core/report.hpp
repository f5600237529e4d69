#pragma once

#include <iosfwd>
#include <string>

#include "core/metrics.hpp"

namespace mcs {

/// Human-readable multi-line summary of a run (used by the examples and
/// the mcs_sim CLI).
std::string format_metrics(const RunMetrics& m);

/// Writes the metrics as a two-column (key,value) CSV for downstream
/// tooling: every metric_catalog() scalar in catalog order, then the
/// vector metrics expanded per index.
void write_metrics_csv(const RunMetrics& m, const std::string& path);

}  // namespace mcs
