#pragma once

// Probes the traced run installs through the program's plug-in points:
// forwarding decorators for the mapper and the test scheduler (installed
// via SystemConfig::mapper_factory / scheduler_factory) and a counting
// SystemObserver. The decorators forward every virtual of the interface,
// so a decorated run produces the same report and registry bytes as an
// undecorated one; they only add a span and a counter around each call.

#include <cstdint>
#include <memory>

#include "core/system.hpp"
#include "core/system_observer.hpp"
#include "core/test_scheduler.hpp"
#include "mapping/mapper.hpp"
#include "spans.hpp"

namespace perfbench {

/// The mapper `cfg` selects when no factory is set (mirrors the
/// simulator's own selection from SystemConfig::mapper).
std::unique_ptr<mcs::Mapper> make_configured_mapper(
    const mcs::SystemConfig& cfg);

/// The test scheduler `cfg` selects when no factory is set (mirrors the
/// simulator's own selection from SystemConfig::scheduler).
std::unique_ptr<mcs::TestScheduler> make_configured_scheduler(
    const mcs::SystemConfig& cfg);

struct MapperCounts {
    std::uint64_t attempts = 0;
    std::uint64_t placed = 0;
};

class TracedMapper final : public mcs::Mapper {
public:
    /// `spans` may be null (counting only).
    TracedMapper(std::unique_ptr<mcs::Mapper> inner, SpanRecorder* spans,
                 MapperCounts* counts)
        : inner_(std::move(inner)), spans_(spans), counts_(counts) {}

    std::optional<mcs::MappingResult> map(const mcs::MapRequest& request,
                                          const mcs::PlatformView& view,
                                          mcs::Rng& rng) override;
    std::string_view name() const override { return inner_->name(); }

private:
    std::unique_ptr<mcs::Mapper> inner_;
    SpanRecorder* spans_;
    MapperCounts* counts_;
};

class TracedScheduler final : public mcs::TestScheduler {
public:
    /// `spans` may be null (forwarding only).
    TracedScheduler(std::unique_ptr<mcs::TestScheduler> inner,
                    SpanRecorder* spans)
        : inner_(std::move(inner)), spans_(spans) {}

    void epoch(mcs::SchedulerContext& ctx) override;
    std::string_view name() const override { return inner_->name(); }
    void export_telemetry(
        mcs::telemetry::MetricsRegistry& registry) const override {
        inner_->export_telemetry(registry);
    }
    void save_state(mcs::telemetry::JsonWriter& w) const override {
        inner_->save_state(w);
    }
    void load_state(const mcs::telemetry::JsonValue& doc) override {
        inner_->load_state(doc);
    }

private:
    std::unique_ptr<mcs::TestScheduler> inner_;
    SpanRecorder* spans_;
};

/// Installs both decorators in `cfg` around the policies it selects.
/// `spans` and `counts` must outlive every system built from `cfg`.
void install_decorators(mcs::SystemConfig& cfg, SpanRecorder* spans,
                        MapperCounts* counts);

/// Counts the hub's typed events. Opts out of trace samples so attaching
/// it never makes the trace epoch assemble a sample it would not
/// otherwise build.
class CountingObserver final : public mcs::SystemObserver {
public:
    struct Counts {
        std::uint64_t apps_arrived = 0;
        std::uint64_t apps_mapped = 0;
        std::uint64_t apps_completed = 0;
        std::uint64_t sessions_begun = 0;
        std::uint64_t sessions_completed = 0;
        std::uint64_t sessions_aborted = 0;
        bool operator==(const Counts&) const = default;
    };

    void on_app_arrival(mcs::SimTime, std::size_t, std::size_t) override {
        ++counts_.apps_arrived;
    }
    void on_app_mapped(mcs::SimTime, std::size_t, mcs::CoreId,
                       std::size_t) override {
        ++counts_.apps_mapped;
    }
    void on_app_complete(mcs::SimTime, std::size_t, bool, double) override {
        ++counts_.apps_completed;
    }
    void on_test_session_begin(mcs::SimTime, mcs::CoreId, int) override {
        ++counts_.sessions_begun;
    }
    void on_test_session_complete(mcs::SimTime, mcs::CoreId, int) override {
        ++counts_.sessions_completed;
    }
    void on_test_session_abort(mcs::SimTime, mcs::CoreId, int) override {
        ++counts_.sessions_aborted;
    }
    bool wants_trace_samples() const override { return false; }

    const Counts& counts() const noexcept { return counts_; }
    void reset() { counts_ = {}; }

private:
    Counts counts_;
};

}  // namespace perfbench
