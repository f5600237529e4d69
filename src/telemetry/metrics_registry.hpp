#pragma once

// Low-overhead metrics registry: named counters, gauges, and fixed-bucket
// histograms. Intended use: resolve the metric once (the returned reference
// is stable for the registry's lifetime) and update it from hot paths with
// a plain increment -- no name lookup, no locking, no allocation.
//
// Determinism contract: iteration and JSON export are sorted by name, so
// equal contents always export as equal bytes.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"
#include "util/stats.hpp"

namespace mcs::telemetry {

/// Monotonic event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_ += n; }
    std::uint64_t value() const noexcept { return value_; }
    /// Overwrites the count from a checkpoint (not for live accounting).
    void restore(std::uint64_t value) noexcept { value_ = value; }

private:
    std::uint64_t value_ = 0;
};

/// Last-written scalar.
class Gauge {
public:
    void set(double v) noexcept { value_ = v; }
    double value() const noexcept { return value_; }

private:
    double value_ = 0.0;
};

/// Name-addressed metric store. Metric names use dotted lowercase paths
/// ("system.tests_completed", "power.dvfs_throttle_steps"); see
/// docs/telemetry.md for the naming scheme.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Returns the metric with this name, creating it on first use. The
    /// reference stays valid for the registry's lifetime.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    /// Histogram layout (lo, hi, bins) is fixed at first registration;
    /// re-registering with a different layout throws RequireError.
    Histogram& histogram(std::string_view name, double lo, double hi,
                         std::size_t bins);

    const Counter* find_counter(std::string_view name) const;

    std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} sorted
    /// by name (byte-deterministic for equal contents). The report and the
    /// snapshot both carry this form.
    void write_json(JsonWriter& w) const;

    /// Restores a write_json() document by mutating metrics IN PLACE:
    /// references and pointers cached by hot paths (PowerManager,
    /// TelemetryObserver) stay valid. Metrics absent from the document are
    /// left untouched; layout conflicts throw RequireError.
    void load_state(const JsonValue& doc);

private:
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mcs::telemetry
