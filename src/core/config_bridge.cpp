#include "core/config_bridge.hpp"

#include <limits>
#include <set>
#include <string>

#include "app/graph_io.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

const std::set<std::string>& known_keys() {
    static const std::set<std::string> keys{
        "width", "height", "side", "node", "seed", "tdp_scale", "occupancy",
        "arrival_rate_hz", "min_tasks", "max_tasks", "min_cycles",
        "max_cycles", "graph_file", "scheduler", "test_period_ms",
        "guard_band", "criticality_threshold", "criticality_mode",
        "vf_policy", "mapper", "abort_tests", "faults", "fault_rate",
        "capping", "gate_delay_ms", "segmented", "sessions", "hard_rt_share",
        "soft_rt_share", "noc_testing", "link_fault_rate",
        // Keys consumed by the CLI itself, accepted here so a shared file
        // can hold both.
        "seconds", "config", "out", "out_dir", "trace", "trace_capacity",
        "report", "power_trace", "quiet", "scenario",
        // Checkpoint / restore keys (consumed by the CLI and the factory).
        "checkpoint", "checkpoint_at", "restore", "restore_relax",
    };
    return keys;
}

TechNode parse_node(const std::string& name) {
    if (name == "45nm") return TechNode::nm45;
    if (name == "32nm") return TechNode::nm32;
    if (name == "22nm") return TechNode::nm22;
    if (name == "16nm") return TechNode::nm16;
    MCS_REQUIRE(false, "unknown technology node: " + name);
    return TechNode::nm16;
}

SchedulerKind parse_scheduler(const std::string& name) {
    if (name == "power-aware") return SchedulerKind::PowerAware;
    if (name == "periodic") return SchedulerKind::Periodic;
    if (name == "greedy") return SchedulerKind::Greedy;
    if (name == "none") return SchedulerKind::None;
    if (name == "deadline") return SchedulerKind::DeadlineAware;
    MCS_REQUIRE(false, "unknown scheduler: " + name);
    return SchedulerKind::PowerAware;
}

MapperKind parse_mapper(const std::string& name) {
    if (name == "test-aware") return MapperKind::TestAware;
    if (name == "thermal-aware") return MapperKind::ThermalAware;
    if (name == "util-oriented") return MapperKind::UtilizationOriented;
    if (name == "contiguous") return MapperKind::Contiguous;
    if (name == "random") return MapperKind::Random;
    if (name == "first-fit") return MapperKind::FirstFit;
    if (name == "reliability-weighted") return MapperKind::ReliabilityWeighted;
    MCS_REQUIRE(false, "unknown mapper: " + name);
    return MapperKind::TestAware;
}

TestVfPolicy parse_vf_policy(const std::string& name) {
    if (name == "rotate-all") return TestVfPolicy::RotateAll;
    if (name == "max-only") return TestVfPolicy::MaxOnly;
    if (name == "min-only") return TestVfPolicy::MinOnly;
    MCS_REQUIRE(false, "unknown vf policy: " + name);
    return TestVfPolicy::RotateAll;
}

CriticalityMode parse_crit_mode(const std::string& name) {
    if (name == "utilization") return CriticalityMode::UtilizationDriven;
    if (name == "time") return CriticalityMode::TimeDriven;
    if (name == "hybrid") return CriticalityMode::Hybrid;
    MCS_REQUIRE(false, "unknown criticality mode: " + name);
    return CriticalityMode::UtilizationDriven;
}

/// `key`, a whole number of milliseconds, as a SimDuration. Rejects
/// negative counts and counts whose nanoseconds overflow SimDuration.
SimDuration get_ms(const Config& cfg, const std::string& key,
                   SimDuration fallback_ms) {
    const auto ms = cfg.get_int_as<SimDuration>(key, fallback_ms);
    MCS_REQUIRE(ms <= std::numeric_limits<SimDuration>::max() / kMillisecond,
                "config key '" + key + "' overflows the simulated clock: " +
                    cfg.get_string(key, ""));
    return ms * kMillisecond;
}

}  // namespace

SystemConfig system_config_from(const Config& cfg) {
    for (const auto& [key, value] : cfg.entries()) {
        MCS_REQUIRE(known_keys().count(key) != 0,
                    "unknown configuration key: " + key);
    }

    SystemConfig sys;
    sys.width = cfg.get_int_as<int>("width", 8);
    sys.height = cfg.get_int_as<int>("height", 8);
    if (cfg.has("side")) {
        // Square-chip shorthand (sweep axes set one key per axis).
        MCS_REQUIRE(!cfg.has("width") && !cfg.has("height"),
                    "side cannot be combined with width/height");
        sys.width = cfg.get_int_as<int>("side", 8);
        sys.height = sys.width;
    }
    sys.node = parse_node(cfg.get_string("node", "16nm"));
    sys.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    sys.tdp_scale = cfg.get_double("tdp_scale", 1.0);

    sys.workload.graphs.min_tasks = cfg.get_int_as<int>("min_tasks", 4);
    sys.workload.graphs.max_tasks = cfg.get_int_as<int>("max_tasks", 16);
    sys.workload.graphs.min_cycles = cfg.get_int_as<std::uint64_t>(
        "min_cycles", sys.workload.graphs.min_cycles);
    sys.workload.graphs.max_cycles = cfg.get_int_as<std::uint64_t>(
        "max_cycles", sys.workload.graphs.max_cycles);
    const double hard = cfg.get_double("hard_rt_share", 0.0);
    const double soft = cfg.get_double("soft_rt_share", 0.0);
    MCS_REQUIRE(hard >= 0.0 && soft >= 0.0 && hard + soft <= 1.0,
                "RT shares must be non-negative and sum to at most 1");
    sys.workload.hard_rt_weight = hard;
    sys.workload.soft_rt_weight = soft;
    sys.workload.best_effort_weight = 1.0 - hard - soft;
    sys.workload.reference_freq_hz = technology(sys.node).max_freq_hz;
    if (cfg.has("graph_file")) {
        sys.workload.graph_library.push_back(
            load_task_graph(cfg.get_string("graph_file", "")));
    }

    if (cfg.has("arrival_rate_hz")) {
        sys.workload.arrival_rate_hz = cfg.get_double("arrival_rate_hz", 0);
    } else {
        const double occupancy = cfg.get_double("occupancy", 0.6);
        const double capacity = static_cast<double>(sys.width) *
                                static_cast<double>(sys.height) *
                                technology(sys.node).max_freq_hz;
        if (sys.workload.graph_library.empty()) {
            sys.workload.arrival_rate_hz = rate_for_occupancy(
                occupancy, sys.workload.graphs, capacity);
        } else {
            // Library-driven: occupancy from the library graphs' critical
            // paths.
            double reserved = 0.0;
            for (const TaskGraph& g : sys.workload.graph_library) {
                reserved += static_cast<double>(g.size()) *
                            static_cast<double>(g.critical_path_cycles());
            }
            reserved /= static_cast<double>(
                sys.workload.graph_library.size());
            sys.workload.arrival_rate_hz = occupancy * capacity / reserved;
        }
    }

    sys.scheduler = parse_scheduler(
        cfg.get_string("scheduler", "power-aware"));
    sys.periodic_test_period = get_ms(cfg, "test_period_ms", 1000);
    sys.power_aware.guard_band_fraction = cfg.get_double("guard_band", 0.04);
    sys.power_aware.criticality_threshold =
        cfg.get_double("criticality_threshold", 0.5);
    sys.power_aware.vf_policy =
        parse_vf_policy(cfg.get_string("vf_policy", "rotate-all"));
    sys.criticality = CriticalityParams::for_mode(
        parse_crit_mode(cfg.get_string("criticality_mode", "utilization")));
    sys.criticality.threshold = sys.power_aware.criticality_threshold;

    sys.mapper = parse_mapper(cfg.get_string("mapper", "test-aware"));
    sys.abort_tests_for_mapping = cfg.get_bool("abort_tests", true);
    sys.segmented_tests = cfg.get_bool("segmented", false);
    if (cfg.has("sessions")) {
        // One-key session policy (X2's comparison; handy as a sweep axis).
        MCS_REQUIRE(!cfg.has("abort_tests") && !cfg.has("segmented"),
                    "sessions cannot be combined with abort_tests/segmented");
        const std::string sessions = cfg.get_string("sessions", "abortable");
        if (sessions == "abortable") {
            sys.abort_tests_for_mapping = true;
            sys.segmented_tests = false;
        } else if (sessions == "atomic") {
            sys.abort_tests_for_mapping = false;
            sys.segmented_tests = false;
        } else if (sessions == "segmented") {
            sys.abort_tests_for_mapping = true;
            sys.segmented_tests = true;
        } else {
            MCS_REQUIRE(false, "unknown sessions policy: " + sessions);
        }
    }

    sys.enable_fault_injection = cfg.get_bool("faults", false);
    sys.faults.base_rate_per_core_s = cfg.get_double("fault_rate", 0.01);
    sys.enable_noc_testing = cfg.get_bool("noc_testing", false);
    sys.noc_test.fault_rate_per_link_s =
        cfg.get_double("link_fault_rate", 0.0);

    const std::string capping = cfg.get_string("capping", "pid");
    if (capping == "bang-bang") {
        sys.power.mode = CappingMode::BangBang;
    } else {
        MCS_REQUIRE(capping == "pid", "unknown capping mode: " + capping);
    }
    sys.power.gate_delay = get_ms(cfg, "gate_delay_ms", 2);
    return sys;
}

}  // namespace mcs
