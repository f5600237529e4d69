#include "runner/result_sink.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "telemetry/json.hpp"
#include "telemetry/schema.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace mcs {
namespace {

/// The campaign columns as (column name, metric_catalog() name). Two
/// columns keep names that predate the catalog.
constexpr std::array<std::pair<const char*, const char*>, 16> kColumns{{
    {"work_cycles_per_s", "work_cycles_per_s"},
    {"throughput_apps_per_s", "throughput_apps_per_s"},
    {"apps_completed", "apps_completed"},
    {"app_latency_ms_mean", "app_latency_ms_mean"},
    {"mean_chip_utilization", "chip_utilization"},
    {"mean_dark_fraction", "dark_fraction"},
    {"mean_power_w", "mean_power_w"},
    {"tdp_violation_rate", "tdp_violation_rate"},
    {"energy_total_j", "energy_total_j"},
    {"test_energy_share", "test_energy_share"},
    {"tests_completed", "tests_completed"},
    {"tests_aborted", "tests_aborted"},
    {"tests_per_core_per_s", "tests_per_core_per_s"},
    {"untested_core_fraction", "untested_core_fraction"},
    {"max_open_test_gap_s", "max_open_test_gap_s"},
    {"peak_temp_c", "peak_temp_c"},
}};

/// The shortest "%.*g" text (precision 1..17) that round-trips. charconv
/// formats and parses as the C locale does, whatever LC_NUMERIC says, so
/// the CSV bytes are reproducible everywhere.
std::string num(double v) {
    char buf[32];
    for (int precision = 1;; ++precision) {
        const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, precision);
        MCS_REQUIRE(res.ec == std::errc{}, "num: to_chars failed");
        double back = 0.0;
        std::from_chars(buf, res.ptr, back);
        if (back == v || precision == 17) {
            return std::string(buf, res.ptr);
        }
    }
}

}  // namespace

std::span<const MetricDef> campaign_metrics() {
    static const std::array<MetricDef, kColumns.size()> metrics = [] {
        const std::span<const MetricDef> catalog = metric_catalog();
        std::array<MetricDef, kColumns.size()> out{};
        for (std::size_t i = 0; i < kColumns.size(); ++i) {
            const std::string_view source = kColumns[i].second;
            const auto it = std::find_if(
                catalog.begin(), catalog.end(),
                [&](const MetricDef& d) { return d.name == source; });
            MCS_REQUIRE(it != catalog.end(),
                        "campaign column without a catalog metric: " +
                            std::string(source));
            out[i] = MetricDef{kColumns[i].first, it->get};
        }
        return out;
    }();
    return metrics;
}

void write_campaign_csv(const CampaignResult& result,
                        const std::string& path) {
    std::vector<std::string> header{"cell"};
    for (const SweepAxis& axis : result.spec.axes) {
        header.push_back(axis.key);
    }
    header.insert(header.end(), {"replicas_ok", "replicas_failed"});
    for (const MetricDef& metric : campaign_metrics()) {
        header.push_back(std::string(metric.name) + "_mean");
        header.push_back(std::string(metric.name) + "_stddev");
        header.push_back(std::string(metric.name) + "_ci95");
    }

    CsvWriter csv(path, std::move(header));
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
        std::vector<std::string> row{std::to_string(c)};
        for (const auto& [key, value] : result.spec.cell_point(c)) {
            (void)key;
            row.push_back(value);
        }
        const auto replicas = result.cell(c);
        std::size_t ok = 0;
        for (const ReplicaResult& r : replicas) {
            ok += r.ok ? 1 : 0;
        }
        row.push_back(std::to_string(ok));
        row.push_back(std::to_string(replicas.size() - ok));
        for (const MetricDef& metric : campaign_metrics()) {
            const RunningStats stats = result.cell_stats(c, metric.get);
            if (stats.empty()) {
                row.insert(row.end(), {"nan", "nan", "nan"});
                continue;
            }
            const double ci95 =
                1.96 * stats.stddev() /
                std::sqrt(static_cast<double>(stats.count()));
            row.push_back(num(stats.mean()));
            row.push_back(num(stats.stddev()));
            row.push_back(num(ci95));
        }
        csv.write_row(row);
    }
}

void write_replica_csv(const CampaignResult& result,
                       const std::string& path) {
    std::vector<std::string> header{"cell", "replica", "seed", "ok",
                                    "error"};
    for (const SweepAxis& axis : result.spec.axes) {
        header.push_back(axis.key);
    }
    for (const MetricDef& metric : campaign_metrics()) {
        header.push_back(metric.name);
    }

    CsvWriter csv(path, std::move(header));
    for (const ReplicaResult& r : result.replicas) {
        std::vector<std::string> row{
            std::to_string(r.cell), std::to_string(r.replica),
            std::to_string(r.seed), r.ok ? "1" : "0", r.error};
        for (const auto& [key, value] : result.spec.cell_point(r.cell)) {
            (void)key;
            row.push_back(value);
        }
        for (const MetricDef& metric : campaign_metrics()) {
            row.push_back(r.ok ? num(metric.get(r.metrics)) : "nan");
        }
        csv.write_row(row);
    }
}

void write_campaign_report_json(const CampaignResult& result,
                                const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    MCS_REQUIRE(out.is_open(),
                "cannot open campaign report file: " + path);
    telemetry::JsonWriter w(out);
    w.begin_object();
    w.field("schema", telemetry::schema_tag("mcs.campaign_report"));
    w.key("cells");
    w.begin_array();
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
        w.begin_object();
        w.field("cell", static_cast<std::uint64_t>(c));
        w.key("point");
        w.begin_object();
        for (const auto& [key, value] : result.spec.cell_point(c)) {
            w.field(key, value);
        }
        w.end_object();
        const auto replicas = result.cell(c);
        std::size_t ok = 0;
        for (const ReplicaResult& r : replicas) {
            ok += r.ok ? 1 : 0;
        }
        w.field("replicas_ok", static_cast<std::uint64_t>(ok));
        w.field("replicas_failed",
                static_cast<std::uint64_t>(replicas.size() - ok));
        w.key("metrics");
        w.begin_object();
        for (const MetricDef& metric : campaign_metrics()) {
            const RunningStats stats = result.cell_stats(c, metric.get);
            w.key(metric.name);
            w.begin_object();
            if (stats.empty()) {
                w.field("mean", std::numeric_limits<double>::quiet_NaN());
                w.field("stddev", std::numeric_limits<double>::quiet_NaN());
                w.field("ci95", std::numeric_limits<double>::quiet_NaN());
            } else {
                const double ci95 =
                    1.96 * stats.stddev() /
                    std::sqrt(static_cast<double>(stats.count()));
                w.field("mean", stats.mean());
                w.field("stddev", stats.stddev());
                w.field("ci95", ci95);
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    MCS_REQUIRE(out.good(), "write failed: " + path);
}

std::string format_campaign_summary(const CampaignResult& result) {
    TablePrinter table({"cell", "point", "ok/total", "work Gcycles/s",
                        "tests/core/s", "TDP viol."});
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
        const auto replicas = result.cell(c);
        std::size_t ok = 0;
        for (const ReplicaResult& r : replicas) {
            ok += r.ok ? 1 : 0;
        }
        const RunningStats work = result.cell_stats(
            c, [](const RunMetrics& m) { return m.work_cycles_per_s; });
        const RunningStats tests = result.cell_stats(
            c, [](const RunMetrics& m) { return m.tests_per_core_per_s; });
        const RunningStats viol = result.cell_stats(
            c, [](const RunMetrics& m) { return m.tdp_violation_rate; });
        std::string work_cell = "-";
        if (!work.empty()) {
            work_cell = fmt(work.mean() / 1e9, 2);
            if (work.count() > 1) {
                work_cell += " +/- " + fmt(work.stddev() / 1e9, 2);
            }
        }
        table.add_row({std::to_string(c), result.spec.cell_label(c),
                       std::to_string(ok) + "/" +
                           std::to_string(replicas.size()),
                       work_cell,
                       tests.empty() ? "-" : fmt(tests.mean(), 2),
                       viol.empty() ? "-" : fmt_pct(viol.mean(), 3)});
    }
    std::string out = table.to_string();
    if (result.failed_count() > 0) {
        out += "\nfailed replicas:\n";
        for (const ReplicaResult& r : result.replicas) {
            if (!r.ok) {
                out += "  cell " + std::to_string(r.cell) + " [" +
                       result.spec.cell_label(r.cell) + "] replica " +
                       std::to_string(r.replica) + ": " + r.error + "\n";
            }
        }
    }
    return out;
}

}  // namespace mcs
