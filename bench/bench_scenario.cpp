// bench_scenario -- scenario corpus replay: byte identity + replay cost.
//
// Replays every committed scenario (examples/scenarios/) on the headline
// 8x8 platform through the ScenarioPlayer: two fresh replays per scenario
// in one process, and -- for the heaviest scenario -- a
// checkpoint-mid-scenario restore. The report separates the populations:
//
//   metrics   -- deterministic per-scenario counters and the byte-identity
//                verdicts, gated by tools/check_bench.py (1 = identical)
//   replay    -- wall-clock seconds per scenario (auxiliary, never gated)
//
// The claim this regenerates: a declarative scenario is pure replay --
// byte-identical from one replay to the next and through a mid-scenario
// snapshot (docs/scenarios.md), so stress campaigns inherit the
// determinism contract unchanged.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_player.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/tracer.hpp"

namespace {

using mcs::bench::BenchOptions;
using mcs::bench::BenchReport;

const char* const kCorpus[] = {
    "burst_at_budget_edge", "abort_cascade",     "budget_cut",
    "vf_throttle_step",     "wear_acceleration", "combined_stress",
};

/// Corpus directives all fire by 1.5 s.
constexpr mcs::SimDuration kHorizon = 1600 * mcs::kMillisecond;

struct Leg {
    mcs::RunMetrics metrics;
    std::string report;
    std::string trace;
    double wall_s = 0.0;
};

mcs::SystemConfig platform() {
    mcs::SystemConfig cfg = mcs::bench::base_config(1);
    mcs::bench::set_occupancy(cfg, 0.4);
    cfg.enable_fault_injection = true;
    return cfg;
}

Leg run_leg(const mcs::ScenarioSpec& spec,
            const std::string& checkpoint_path = "",
            const std::string& restore_path = "") {
    const mcs::SystemConfig cfg = platform();
    Leg leg;
    const auto start = std::chrono::steady_clock::now();
    mcs::ManycoreSystem sys(cfg);
    mcs::telemetry::Tracer tracer(1 << 15);
    sys.set_tracer(&tracer);
    sys.attach_scenario(std::make_unique<mcs::ScenarioPlayer>(spec));
    if (!restore_path.empty()) {
        sys.restore(mcs::load_snapshot_file(restore_path));
        leg.metrics = sys.run(sys.restored_horizon());
    } else {
        if (!checkpoint_path.empty()) {
            sys.checkpoint_at(800 * mcs::kMillisecond, checkpoint_path);
        }
        leg.metrics = sys.run(kHorizon);
    }
    leg.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    {
        std::ostringstream os;
        mcs::telemetry::write_run_report(leg.metrics, &sys.registry(), os);
        leg.report = os.str();
    }
    {
        std::ostringstream os;
        tracer.write_chrome_json(os);
        leg.trace = os.str();
    }
    return leg;
}

}  // namespace

int main(int argc, char** argv) {
    const BenchOptions opt = mcs::bench::parse_options(argc, argv);
    // Corpus location: scenario_dir=<path> overrides the source tree's
    // examples/scenarios.
    std::string dir = MCS_SOURCE_DIR "/examples/scenarios";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("scenario_dir=", 0) == 0) {
            dir = arg.substr(13);
        }
    }
    mcs::bench::print_header(
        "scenario corpus replay",
        "every committed scenario replays byte-identically from one "
        "replay to the next and through a mid-scenario checkpoint");
    BenchReport report("scenario", opt);

    bool all_ok = true;
    for (const char* name : kCorpus) {
        const mcs::ScenarioSpec spec =
            mcs::load_scenario_file(dir + "/" + std::string(name) + ".json");
        const Leg first = run_leg(spec);
        const Leg second = run_leg(spec);
        const bool identical = first.report == second.report &&
                               first.trace == second.trace;
        all_ok = all_ok && identical;
        const std::string key = spec.name;
        report.metric(key + ".replay_identical", identical ? 1.0 : 0.0);
        report.metric(key + ".apps_completed",
                      static_cast<double>(first.metrics.apps_completed));
        report.metric(key + ".tests_completed",
                      static_cast<double>(first.metrics.tests_completed));
        report.aux("replay", key + ".wall_s", first.wall_s);
        std::printf("%-24s %s  (%.3f s first, %.3f s second)\n",
                    name, identical ? "IDENTICAL" : "DRIFTED",
                    first.wall_s, second.wall_s);
    }

    // Checkpoint-mid-scenario restore on the heaviest scenario: the
    // restored continuation must finish on the uninterrupted bytes.
    {
        const mcs::ScenarioSpec spec =
            mcs::load_scenario_file(dir + "/combined_stress.json");
        const std::string snap =
            mcs::bench::out_path(opt, "scenario_mid.json");
        const Leg fresh = run_leg(spec);
        const Leg interrupted = run_leg(spec, snap);
        const Leg restored = run_leg(spec, "", snap);
        const bool identical = interrupted.report == fresh.report &&
                               restored.report == fresh.report &&
                               restored.trace == fresh.trace;
        all_ok = all_ok && identical;
        report.metric("restore_identical", identical ? 1.0 : 0.0);
        std::printf("%-24s %s\n", "checkpoint/restore",
                    identical ? "IDENTICAL" : "DRIFTED");
        std::remove(snap.c_str());
    }

    report.write();
    if (!all_ok) {
        std::fprintf(stderr,
                     "FAIL: scenario replay drifted across legs\n");
        return 1;
    }
    return 0;
}
