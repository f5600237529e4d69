#include "scenario/scenario_runner.hpp"

#include "core/config_bridge.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_player.hpp"
#include "util/require.hpp"

namespace mcs {

std::unique_ptr<ManycoreSystem> make_system(const Config& cfg,
                                            telemetry::Tracer* tracer) {
    auto sys = std::make_unique<ManycoreSystem>(system_config_from(cfg));
    if (tracer != nullptr) {
        sys->set_tracer(tracer);
    }
    if (cfg.has("scenario")) {
        const std::string path = cfg.get_string("scenario", "");
        MCS_REQUIRE(!path.empty(), "scenario= needs a file path");
        sys->attach_scenario(make_scenario_player(path));
    }
    if (cfg.has("restore")) {
        RestoreOptions opts;
        opts.relax_config = cfg.get_bool("restore_relax", false);
        sys->restore(load_snapshot_file(cfg.get_string("restore", "")),
                     opts);
    }
    return sys;
}

SimDuration run_horizon(const Config& cfg, const ManycoreSystem& sys,
                        double default_seconds) {
    if (sys.restored() && !cfg.has("seconds")) {
        return sys.restored_horizon();
    }
    return checked_from_seconds(cfg.get_double("seconds", default_seconds),
                                "seconds");
}

RunMetrics run_system(const Config& cfg, SimDuration horizon) {
    return make_system(cfg)->run(horizon);
}

}  // namespace mcs
