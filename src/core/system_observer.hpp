#pragma once

// SystemObserver: the one typed hook layer for run-time events of a
// ManycoreSystem. It unifies what used to be three ad-hoc sinks (the
// TraceSink sample callback, a raw telemetry::Tracer* and cached registry
// counter pointers) behind a single narrow interface; the engines emit
// typed events and adapters translate them into whatever backend they
// serve (telemetry/observer_adapter.hpp bridges to tracer + registry +
// trace sink).
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

/// Fan-out dispatcher the engines emit into, with one named method per
/// event so call sites stay grep-able. Observers are non-owning pointers,
/// notified in registration order (deterministic dispatch); an empty hub
/// costs one loop test per event.
class SystemObserverHub {
public:
    void add(SystemObserver* observer) {
        MCS_REQUIRE(observer != nullptr, "observer must not be null");
        MCS_REQUIRE(std::find(observers_.begin(), observers_.end(),
                              observer) == observers_.end(),
                    "observer already registered");
        observers_.push_back(observer);
    }

    void app_arrival(SimTime now, std::size_t app, std::size_t tasks) const {
        for (SystemObserver* o : observers_) {
            o->on_app_arrival(now, app, tasks);
        }
    }
    void app_mapped(SimTime now, std::size_t app, CoreId first,
                    std::size_t cores) const {
        for (SystemObserver* o : observers_) {
            o->on_app_mapped(now, app, first, cores);
        }
    }
    void app_complete(SimTime now, std::size_t app, bool corrupted,
                      double latency_ms) const {
        for (SystemObserver* o : observers_) {
            o->on_app_complete(now, app, corrupted, latency_ms);
        }
    }
    void test_session_begin(SimTime now, CoreId core, int vf) const {
        for (SystemObserver* o : observers_) {
            o->on_test_session_begin(now, core, vf);
        }
    }
    void test_session_complete(SimTime now, CoreId core, int vf) const {
        for (SystemObserver* o : observers_) {
            o->on_test_session_complete(now, core, vf);
        }
    }
    void test_session_abort(SimTime now, CoreId core, int vf) const {
        for (SystemObserver* o : observers_) {
            o->on_test_session_abort(now, core, vf);
        }
    }
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
    std::vector<SystemObserver*> observers_;
};

}  // namespace mcs
