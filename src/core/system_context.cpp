#include "core/system_context.hpp"

#include "core/system.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

NocParams noc_synced(NocParams noc, SimDuration power_epoch) {
    // The utilization window rolls at the power epoch.
    noc.util_window = power_epoch;
    return noc;
}

TechnologyParams scaled_tech(TechNode node, double tdp_scale) {
    MCS_REQUIRE(tdp_scale > 0.0, "tdp_scale must be positive");
    TechnologyParams t = technology(node);
    t.tdp_fraction *= tdp_scale;
    return t;
}

}  // namespace

SystemContext::SystemContext(const SystemConfig& config)
    : cfg(config),
      chip(cfg.width, cfg.height, scaled_tech(cfg.node, cfg.tdp_scale)),
      noc(cfg.width, cfg.height, noc_synced(cfg.noc, cfg.power_epoch)),
      suite(cfg.suite ? *cfg.suite : TestSuite::standard()),
      budget(chip.tdp_w()),
      map_rng(cfg.seed ^ 0xa02bdbf7bb3c0a7ULL) {
    metrics.tests_per_vf_level.assign(chip.vf_level_count(), 0);
    metrics.apps_completed_by_class.assign(kQosClassCount, 0);
    metrics.deadlines_met_by_class.assign(kQosClassCount, 0);
    metrics.deadlines_missed_by_class.assign(kQosClassCount, 0);
}

}  // namespace mcs
