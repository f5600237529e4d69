#pragma once

#include <span>
#include <string>

#include "core/metric_catalog.hpp"
#include "runner/campaign_runner.hpp"

namespace mcs {

/// The fixed list of scalar metrics exported per replica/cell: a headline
/// subset of metric_catalog(), whose getters it reuses. Order is part of
/// the CSV contract (columns appear in this order).
std::span<const MetricDef> campaign_metrics();

/// Writes the aggregate campaign CSV: one row per grid cell with the axis
/// values, replica counts, and mean/stddev/ci95 per catalog metric (ci95 is
/// the normal-approximation half-width 1.96 * stddev / sqrt(n)). Cells
/// whose replicas all failed emit "nan" data columns. The bytes depend only
/// on the spec — never on thread count or completion order.
void write_campaign_csv(const CampaignResult& result,
                        const std::string& path);

/// Writes one row per replica: grid location, seed, ok/error, and every
/// catalog metric (raw, unaggregated). Same determinism contract.
void write_replica_csv(const CampaignResult& result, const std::string& path);

/// Writes the aggregate campaign report as JSON: schema
/// "mcs.campaign_report.v1" with one entry per cell carrying the axis
/// point, replica health, and mean/stddev/ci95 per catalog metric. Byte-
/// deterministic for a given spec (independent of worker count), so fixed
/// seeds yield identical files across runs and --jobs values.
void write_campaign_report_json(const CampaignResult& result,
                                const std::string& path);

/// Human-readable end-of-campaign table: one line per cell with replica
/// health and headline metrics (work throughput, TDP violations, tests).
std::string format_campaign_summary(const CampaignResult& result);

}  // namespace mcs
