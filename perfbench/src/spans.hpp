#pragma once

// In-memory span recorder for the traced run. The benchmark records a span
// around each call it makes into a layer's public functions (and around
// the calls the decorators in probes.hpp forward); nothing inside the
// program is instrumented. Spans stay in memory while the run measures and
// are written out at exit.
//
// A span's self time is its duration minus the part of it covered by its
// direct child spans; a layer's self time is the sum over its spans.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records, one per layer boundary.
enum class Layer : std::uint8_t {
    Window,          ///< a traced simulated window (workload residual)
    Power,           ///< PlatformEngine::power_epoch
    Thermal,         ///< PlatformEngine::thermal_epoch
    Test,            ///< TestEngine::test_epoch
    TestPolicy,      ///< TestScheduler::epoch (inside Test)
    Aging,           ///< PlatformEngine::wear_epoch
    Trace,           ///< PlatformEngine::trace_epoch
    Mapping,         ///< Mapper::map
    ConfigBridge,    ///< system_config_from
    CoreBuild,       ///< ManycoreSystem constructor
    SnapshotRestore, ///< ManycoreSystem::restore
    SnapshotLoad,    ///< load_snapshot_file
    SimRun,          ///< ManycoreSystem::run
    Report,          ///< telemetry::write_run_report
    HttpParse,       ///< HttpRequestParser::feed
    QueryParse,      ///< serve::parse_whatif_query
    CacheKey,        ///< serve::cache_key
    CacheFind,       ///< ResultCache::find
    Serialize,       ///< serve::serialize_response
};
inline constexpr std::size_t kLayerCount = 19;

const char* layer_name(Layer layer);

class SpanRecorder {
public:
    using Clock = std::chrono::steady_clock;
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    struct Span {
        Layer layer = Layer::Window;
        std::uint32_t parent = kNoParent;
        std::uint64_t query = 0;  ///< shared by all spans of one operation
        Clock::time_point start{};
        Clock::time_point end{};
    };

    /// While disabled, ScopedSpan records nothing (the traced run skips
    /// the advance to the warm point this way).
    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
    bool enabled() const noexcept { return enabled_; }

    /// Id stamped on every span opened from now on: one window, fork or
    /// query.
    void set_query(std::uint64_t query) noexcept { query_ = query; }

    /// Opens a span as a child of the innermost open span; returns its
    /// index for end().
    std::uint32_t begin(Layer layer);
    void end(std::uint32_t index);

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Self time (seconds) and span count per layer over the spans with
    /// index >= `first`.
    struct Totals {
        std::array<double, kLayerCount> self_s{};
        std::array<std::uint64_t, kLayerCount> calls{};
        double self(Layer l) const {
            return self_s[static_cast<std::size_t>(l)];
        }
        std::uint64_t count(Layer l) const {
            return calls[static_cast<std::size_t>(l)];
        }
    };
    Totals totals(std::size_t first = 0) const;

    /// Durations (seconds) of every span of `layer`, in recording order.
    std::vector<double> durations(Layer layer) const;

    /// Writes one JSON object per span (id, name, query, parent, start and
    /// end in ns relative to the first span). Throws RequireError when the
    /// file cannot be written.
    void write_jsonl(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
    std::uint64_t query_ = 0;
    bool enabled_ = true;
};

/// RAII span; a null or disabled recorder makes it a no-op, so the
/// decorators cost one branch when untraced.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* recorder, Layer layer)
        : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                               : nullptr),
          index_(recorder_ != nullptr ? recorder_->begin(layer) : 0) {}
    ~ScopedSpan() {
        if (recorder_ != nullptr) {
            recorder_->end(index_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder* recorder_;
    std::uint32_t index_;
};

double seconds_between(SpanRecorder::Clock::time_point a,
                       SpanRecorder::Clock::time_point b);

}  // namespace perfbench
