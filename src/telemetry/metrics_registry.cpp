#include "telemetry/metrics_registry.hpp"

#include "util/require.hpp"

namespace mcs::telemetry {

Counter& MetricsRegistry::counter(std::string_view name) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
        return it->second;
    }
    return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, GaugeMerge merge) {
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
        MCS_REQUIRE(it->second.merge_policy() == merge,
                    "gauge re-registered with a different merge policy: " +
                        std::string(name));
        return it->second;
    }
    return gauges_.emplace(std::string(name), Gauge{merge}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t bins) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        MCS_REQUIRE(it->second.same_layout(Histogram(lo, hi, bins)),
                    "histogram re-registered with a different layout: " +
                        std::string(name));
        return it->second;
    }
    return histograms_.emplace(std::string(name), Histogram(lo, hi, bins))
        .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, c] : counters_) {
        w.field(name, c.value());
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, g] : gauges_) {
        w.field(name, g.value());
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, h] : histograms_) {
        w.key(name);
        w.begin_object();
        w.field("lo", h.bins() > 0 ? h.bin_lo(0) : 0.0);
        w.field("hi", h.bins() > 0 ? h.bin_hi(h.bins() - 1) : 0.0);
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.field("total", h.total());
        w.key("counts");
        w.begin_array();
        for (std::size_t i = 0; i < h.bins(); ++i) {
            w.value(h.bin_count(i));
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

namespace {

std::string_view merge_name(GaugeMerge m) {
    switch (m) {
        case GaugeMerge::Sum: return "sum";
        case GaugeMerge::Max: return "max";
        case GaugeMerge::Min: return "min";
        case GaugeMerge::Mean: return "mean";
    }
    return "sum";
}

GaugeMerge merge_from(std::string_view name) {
    if (name == "sum") {
        return GaugeMerge::Sum;
    }
    if (name == "max") {
        return GaugeMerge::Max;
    }
    if (name == "min") {
        return GaugeMerge::Min;
    }
    if (name == "mean") {
        return GaugeMerge::Mean;
    }
    MCS_REQUIRE(false, "unknown gauge merge policy: " + std::string(name));
    return GaugeMerge::Sum;
}

}  // namespace

void MetricsRegistry::save_state(JsonWriter& w) const {
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, c] : counters_) {
        w.field(name, c.value());
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, g] : gauges_) {
        w.key(name);
        w.begin_object();
        w.field("merge", merge_name(g.merge_policy()));
        w.field("value", g.raw_value());
        w.field("count", g.observation_count());
        w.end_object();
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, h] : histograms_) {
        w.key(name);
        w.begin_object();
        w.field("lo", h.bins() > 0 ? h.bin_lo(0) : 0.0);
        w.field("hi", h.bins() > 0 ? h.bin_hi(h.bins() - 1) : 0.0);
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.field("total", h.total());
        w.key("counts");
        w.begin_array();
        for (std::size_t i = 0; i < h.bins(); ++i) {
            w.value(h.bin_count(i));
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

void MetricsRegistry::load_state(const JsonValue& doc) {
    for (const auto& [name, v] : doc.at("counters").object()) {
        counter(name).restore(v.u64());
    }
    for (const auto& [name, v] : doc.at("gauges").object()) {
        const GaugeMerge policy = merge_from(v.at("merge").string());
        gauge(name, policy).restore(v.at("value").number(),
                                    v.at("count").u64());
    }
    for (const auto& [name, v] : doc.at("histograms").object()) {
        const std::vector<std::uint64_t> counts = v.at("counts").u64s();
        MCS_REQUIRE(!counts.empty(),
                    "histogram state needs at least one bin: " + name);
        Histogram& h = histogram(name, v.at("lo").number(),
                                 v.at("hi").number(), counts.size());
        h.restore_counts(counts, v.at("underflow").u64(),
                         v.at("overflow").u64(), v.at("total").u64());
    }
}

}  // namespace mcs::telemetry
