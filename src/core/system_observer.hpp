#pragma once

// SystemObserver: the one typed hook layer for run-time events of a
// ManycoreSystem. The engines emit each event into the SystemObserverHub,
// which records it in the run's tracer and "system.*" metrics and then
// hands it to the registered observers (user scenario hooks, the power
// trace CSV, benchmark probes).
//
// Contract: events fire synchronously from inside the simulation event
// that caused them, in deterministic order. Observers must not mutate
// system state from a callback.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/core.hpp"
#include "core/metrics.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace mcs {

namespace telemetry {
class Counter;
class MetricsRegistry;
class Tracer;
}  // namespace telemetry

class SystemObserver {
public:
    virtual ~SystemObserver() = default;

    /// An application entered the admission queues (`tasks` = graph size).
    virtual void on_app_arrival(SimTime now, std::size_t app_index,
                                std::size_t tasks) {
        (void)now, (void)app_index, (void)tasks;
    }

    /// The mapper placed an application on `cores` cores anchored at
    /// `first_core`.
    virtual void on_app_mapped(SimTime now, std::size_t app_index,
                               CoreId first_core, std::size_t cores) {
        (void)now, (void)app_index, (void)first_core, (void)cores;
    }

    /// An application finished (all tasks done, region released).
    virtual void on_app_complete(SimTime now, std::size_t app_index,
                                 bool corrupted, double latency_ms) {
        (void)now, (void)app_index, (void)corrupted, (void)latency_ms;
    }

    /// An SBST session started on `core` at `vf_level`.
    virtual void on_test_session_begin(SimTime now, CoreId core,
                                       int vf_level) {
        (void)now, (void)core, (void)vf_level;
    }

    /// A session ran the full suite to completion.
    virtual void on_test_session_complete(SimTime now, CoreId core,
                                          int vf_level) {
        (void)now, (void)core, (void)vf_level;
    }

    /// A session was aborted (the mapper claimed the core).
    virtual void on_test_session_abort(SimTime now, CoreId core,
                                       int vf_level) {
        (void)now, (void)core, (void)vf_level;
    }

    /// Periodic power/state sample (trace_epoch). Only delivered when
    /// wants_trace_samples() is true for at least one observer; override
    /// to opt out so the sample is not even assembled on your behalf.
    virtual void on_trace_sample(const TraceSample& sample) { (void)sample; }
    virtual bool wants_trace_samples() const { return true; }
};

/// The one path a run event takes. Each event method records the event
/// in the run's tracer (when one is attached) and in the "system.*"
/// metrics, then notifies the observers in registration order
/// (deterministic dispatch). Trace samples reach the observers only.
class SystemObserverHub {
public:
    /// Registers the "system.*" metrics in `registry` (unconditionally, so
    /// reports always carry them) and binds `tracer`, the run's tracer
    /// slot, which every event reads. Both must outlive the hub.
    SystemObserverHub(telemetry::MetricsRegistry& registry,
                      telemetry::Tracer* const& tracer);

    void add(SystemObserver* observer) {
        MCS_REQUIRE(observer != nullptr, "observer must not be null");
        MCS_REQUIRE(std::find(observers_.begin(), observers_.end(),
                              observer) == observers_.end(),
                    "observer already registered");
        observers_.push_back(observer);
    }

    void app_arrival(SimTime now, std::size_t app, std::size_t tasks);
    void app_mapped(SimTime now, std::size_t app, CoreId first,
                    std::size_t cores);
    void app_complete(SimTime now, std::size_t app, bool corrupted,
                      double latency_ms);
    void test_session_begin(SimTime now, CoreId core, int vf);
    void test_session_complete(SimTime now, CoreId core, int vf);
    void test_session_abort(SimTime now, CoreId core, int vf);
    void trace_sample(const TraceSample& sample) const {
        for (SystemObserver* o : observers_) {
            o->on_trace_sample(sample);
        }
    }
    bool wants_trace_samples() const {
        return std::any_of(
            observers_.begin(), observers_.end(),
            [](const SystemObserver* o) { return o->wants_trace_samples(); });
    }

private:
    telemetry::Tracer* const& tracer_;
    telemetry::Counter& tests_started_;
    telemetry::Counter& tests_completed_;
    telemetry::Counter& tests_aborted_;
    telemetry::Counter& apps_mapped_;
    telemetry::Counter& apps_completed_;
    Histogram& app_latency_ms_;
    std::vector<SystemObserver*> observers_;
};

}  // namespace mcs
