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

/// What kind of quantity a gauge holds. The policy is fixed at the gauge's
/// first registration (re-registering under another policy throws, so one
/// name never means both a peak and a sum) and is recorded, by name, in
/// the registry's checkpoint. Only Mean changes what value() reports.
enum class GaugeMerge {
    Sum,   ///< accumulations (energy, time shares)
    Max,   ///< peaks (e.g. system.peak_temp_c)
    Min,   ///< troughs
    Mean,  ///< averages (e.g. system.mean_power_w): value() is the running
           ///< sum over the observation count
};

/// Last-written scalar (plus an add() for accumulation) with a GaugeMerge
/// policy fixed at construction.
class Gauge {
public:
    explicit Gauge(GaugeMerge merge = GaugeMerge::Sum) noexcept
        : merge_(merge) {}
    /// Replaces the value (last write wins within one run).
    void set(double v) noexcept {
        value_ = v;
        count_ = 1;
    }
    /// Accumulates into the current value.
    void add(double v) noexcept {
        value_ += v;
        count_ = count_ == 0 ? 1 : count_;
    }
    double value() const noexcept {
        if (merge_ == GaugeMerge::Mean && count_ > 1) {
            return value_ / static_cast<double>(count_);
        }
        return value_;
    }
    GaugeMerge merge_policy() const noexcept { return merge_; }

    /// Raw internals for exact checkpointing (value() folds Mean gauges,
    /// which would lose the running sum / observation count split).
    double raw_value() const noexcept { return value_; }
    std::uint64_t observation_count() const noexcept { return count_; }
    void restore(double value, std::uint64_t count) noexcept {
        value_ = value;
        count_ = count;
    }

private:
    GaugeMerge merge_ = GaugeMerge::Sum;
    double value_ = 0.0;          ///< Mean policy: running sum
    std::uint64_t count_ = 0;     ///< observations folded into value_
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
    /// A gauge's merge policy is fixed at first registration;
    /// re-registering with a different policy throws RequireError.
    Gauge& gauge(std::string_view name, GaugeMerge merge = GaugeMerge::Sum);
    /// Histogram layout (lo, hi, bins) is fixed at first registration;
    /// re-registering with a different layout throws RequireError.
    Histogram& histogram(std::string_view name, double lo, double hi,
                         std::size_t bins);

    const Counter* find_counter(std::string_view name) const;
    const Gauge* find_gauge(std::string_view name) const;
    const Histogram* find_histogram(std::string_view name) const;

    std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} sorted
    /// by name (byte-deterministic for equal contents).
    void write_json(JsonWriter& w) const;

    /// Exact checkpoint of every metric, including gauge merge policies
    /// and Mean-gauge observation counts that write_json folds away.
    void save_state(JsonWriter& w) const;

    /// Restores a save_state() document by mutating metrics IN PLACE:
    /// references and pointers cached by hot paths (PowerManager,
    /// TelemetryObserver) stay valid. Metrics absent from the document are
    /// left untouched; policy/layout conflicts throw RequireError.
    void load_state(const JsonValue& doc);

private:
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mcs::telemetry
