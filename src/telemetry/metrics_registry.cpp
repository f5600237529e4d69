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

Gauge& MetricsRegistry::gauge(std::string_view name) {
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
        return it->second;
    }
    return gauges_.emplace(std::string(name), Gauge{}).first->second;
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

void MetricsRegistry::load_state(const JsonValue& doc) {
    for (const auto& [name, v] : doc.at("counters").object()) {
        counter(name).restore(v.u64());
    }
    for (const auto& [name, v] : doc.at("gauges").object()) {
        gauge(name).set(v.number());
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
