// Fault-hunt scenario: wear-out faults appear at runtime; the power-aware
// online test scheduler finds them during idle periods and decommissions
// the cores. Prints a per-fault timeline and the detection-latency
// distribution.
//
// Usage: fault_hunt [seconds=15, or the captured horizon with restore=]
//                   [fault_rate=0.05] [occupancy=0.6]
//                   [seed=7] [scheduler=power-aware|periodic|greedy|
//                   deadline|none] [scenario=<spec.json>]
//                   [restore=<snapshot.json>] [any other
//                   core/config_bridge.hpp key]

#include <cstdio>
#include <memory>

#include "scenario/scenario_runner.hpp"
#include "util/config.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

using namespace mcs;

int run(int argc, char** argv) {
    // This example's defaults; the command line overrides them.
    Config args;
    args.set("seed", "7");
    args.set("faults", "true");
    args.set("fault_rate", "0.05");
    args.merge(Config::from_args(
        std::span<const char* const>(argv + 1,
                                     static_cast<std::size_t>(argc - 1))));
    const std::unique_ptr<ManycoreSystem> sys = make_system(args);
    const SystemConfig& cfg = sys->config();
    MCS_REQUIRE(cfg.enable_fault_injection, "fault_hunt needs faults=true");

    const SimDuration horizon = run_horizon(args, *sys, 15.0);
    std::printf("fault hunt: %s scheduler, fault rate %.3f /core-s, "
                "%g s horizon\n\n",
                to_string(cfg.scheduler), cfg.faults.base_rate_per_core_s,
                to_seconds(horizon));

    const RunMetrics m = sys->run(horizon);

    TablePrinter timeline({"core", "unit", "injected [s]", "status",
                           "detected [s]", "latency [s]"});
    const FaultInjector* injector = sys->fault_injector();
    for (const Fault& f : injector->history()) {
        timeline.add_row(
            {fmt(static_cast<std::uint64_t>(f.core)),
             to_string(f.unit), fmt(to_seconds(f.injected), 2),
             f.detected ? "detected" : "latent",
             f.detected ? fmt(to_seconds(f.detected_at), 2) : "-",
             f.detected ? fmt(to_seconds(f.detected_at - f.injected), 2)
                        : "-"});
    }
    std::printf("%s\n", timeline.to_string().c_str());

    std::printf("injected %llu | detected %llu | test escapes %llu | "
                "corrupted tasks %llu\n",
                static_cast<unsigned long long>(m.faults_injected),
                static_cast<unsigned long long>(m.faults_detected),
                static_cast<unsigned long long>(m.test_escapes),
                static_cast<unsigned long long>(m.corrupted_tasks));
    if (!m.detection_latency_samples.empty()) {
        std::printf("detection latency: mean %.2f s | median %.2f s | "
                    "p95 %.2f s | max %.2f s\n",
                    m.detection_latency_samples.mean(),
                    m.detection_latency_samples.median(),
                    m.detection_latency_samples.quantile(0.95),
                    m.detection_latency_samples.max());
    }
    return 0;
}

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fault_hunt: error: %s\n", e.what());
        return 1;
    }
}
