#include "core/system_observer.hpp"

#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"

namespace mcs {

using telemetry::TraceCategory;
using telemetry::TracePhase;

SystemObserverHub::SystemObserverHub(telemetry::MetricsRegistry& registry,
                                     telemetry::Tracer* const& tracer)
    : tracer_(tracer),
      tests_started_(registry.counter("system.test_sessions_started")),
      tests_completed_(registry.counter("system.tests_completed")),
      tests_aborted_(registry.counter("system.tests_aborted")),
      apps_mapped_(registry.counter("system.apps_mapped")),
      apps_completed_(registry.counter("system.apps_completed")),
      app_latency_ms_(
          registry.histogram("system.app_latency_ms", 0.0, 500.0, 50)) {}

void SystemObserverHub::app_arrival(SimTime now, std::size_t app,
                                    std::size_t tasks) {
    if (tracer_ != nullptr) {
        tracer_->record(now, TraceCategory::Workload, TracePhase::Instant,
                        "app_arrival", 0, static_cast<std::int64_t>(app),
                        static_cast<std::int64_t>(tasks));
    }
    for (SystemObserver* o : observers_) {
        o->on_app_arrival(now, app, tasks);
    }
}

void SystemObserverHub::app_mapped(SimTime now, std::size_t app,
                                   CoreId first, std::size_t cores) {
    if (tracer_ != nullptr) {
        tracer_->record(now, TraceCategory::Workload, TracePhase::Instant,
                        "app_mapped", cores == 0 ? 0 : first,
                        static_cast<std::int64_t>(app),
                        static_cast<std::int64_t>(cores));
    }
    apps_mapped_.inc();
    for (SystemObserver* o : observers_) {
        o->on_app_mapped(now, app, first, cores);
    }
}

void SystemObserverHub::app_complete(SimTime now, std::size_t app,
                                     bool corrupted, double latency_ms) {
    if (tracer_ != nullptr) {
        tracer_->record(now, TraceCategory::Workload, TracePhase::Instant,
                        "app_complete", 0, static_cast<std::int64_t>(app),
                        corrupted ? 1 : 0);
    }
    apps_completed_.inc();
    app_latency_ms_.add(latency_ms);
    for (SystemObserver* o : observers_) {
        o->on_app_complete(now, app, corrupted, latency_ms);
    }
}

void SystemObserverHub::test_session_begin(SimTime now, CoreId core,
                                           int vf) {
    tests_started_.inc();
    if (tracer_ != nullptr) {
        // Begin/End pairs keyed on the core id render as per-core test
        // spans in the Chrome trace viewer.
        tracer_->record(now, TraceCategory::Session, TracePhase::Begin,
                        "test_session", core, vf);
    }
    for (SystemObserver* o : observers_) {
        o->on_test_session_begin(now, core, vf);
    }
}

void SystemObserverHub::test_session_complete(SimTime now, CoreId core,
                                              int vf) {
    tests_completed_.inc();
    if (tracer_ != nullptr) {
        tracer_->record(now, TraceCategory::Session, TracePhase::End,
                        "test_session", core, vf);
    }
    for (SystemObserver* o : observers_) {
        o->on_test_session_complete(now, core, vf);
    }
}

void SystemObserverHub::test_session_abort(SimTime now, CoreId core,
                                           int vf) {
    tests_aborted_.inc();
    if (tracer_ != nullptr) {
        // Close the session span and mark the abort distinctly.
        tracer_->record(now, TraceCategory::Session, TracePhase::End,
                        "test_session", core, vf);
        tracer_->record(now, TraceCategory::Session, TracePhase::Instant,
                        "test_abort", core, vf);
    }
    for (SystemObserver* o : observers_) {
        o->on_test_session_abort(now, core, vf);
    }
}

}  // namespace mcs
