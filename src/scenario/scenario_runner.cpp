#include "scenario/scenario_runner.hpp"

#include "core/config_bridge.hpp"
#include "scenario/scenario_player.hpp"
#include "util/require.hpp"

namespace mcs {

bool attach_scenario_from(ManycoreSystem& sys, const Config& cfg) {
    if (!cfg.has("scenario")) {
        return false;
    }
    const std::string path = cfg.get_string("scenario", "");
    MCS_REQUIRE(!path.empty(), "scenario= needs a file path");
    sys.attach_scenario(make_scenario_player(path));
    return true;
}

std::unique_ptr<ManycoreSystem> make_system(const Config& cfg) {
    auto sys = std::make_unique<ManycoreSystem>(system_config_from(cfg));
    attach_scenario_from(*sys, cfg);
    apply_restore(*sys, cfg);
    return sys;
}

RunMetrics run_system(const Config& cfg, SimDuration horizon) {
    return make_system(cfg)->run(horizon);
}

}  // namespace mcs
