#include "core/config_bridge.hpp"

#include <clocale>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/graph_io.hpp"
#include "core/report.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

/// Expects `parse(cfg)` to throw a RequireError whose message names `key`.
template <typename Parse>
void expect_rejects_naming(const Config& cfg, const std::string& key,
                           Parse&& parse) {
    try {
        (void)parse(cfg);
        ADD_FAILURE() << key << "=" << cfg.get_string(key, "")
                      << " was accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                  std::string::npos)
            << e.what();
    }
}

void expect_bridge_rejects(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const std::string& key) {
    Config c;
    for (const auto& [k, v] : entries) {
        c.set(k, v);
    }
    expect_rejects_naming(c, key, system_config_from);
}

TEST(ConfigBridge, DefaultsMatchSystemConfig) {
    const SystemConfig sys = system_config_from(Config{});
    const SystemConfig ref;
    EXPECT_EQ(sys.width, ref.width);
    EXPECT_EQ(sys.height, ref.height);
    EXPECT_EQ(sys.node, ref.node);
    EXPECT_EQ(sys.scheduler, ref.scheduler);
    EXPECT_EQ(sys.mapper, ref.mapper);
    EXPECT_GT(sys.workload.arrival_rate_hz, 0.0);  // derived from occupancy
}

TEST(ConfigBridge, ParsesEveryEnum) {
    Config c;
    c.set("node", "22nm");
    c.set("scheduler", "periodic");
    c.set("mapper", "random");
    c.set("vf_policy", "min-only");
    c.set("criticality_mode", "hybrid");
    c.set("capping", "bang-bang");
    const SystemConfig sys = system_config_from(c);
    EXPECT_EQ(sys.node, TechNode::nm22);
    EXPECT_EQ(sys.scheduler, SchedulerKind::Periodic);
    EXPECT_EQ(sys.mapper, MapperKind::Random);
    EXPECT_EQ(sys.power_aware.vf_policy, TestVfPolicy::MinOnly);
    EXPECT_EQ(sys.criticality.mode, CriticalityMode::Hybrid);
    EXPECT_EQ(sys.power.mode, CappingMode::BangBang);
}

TEST(ConfigBridge, NumericKeys) {
    Config c;
    c.set("width", "4");
    c.set("height", "6");
    c.set("seed", "123");
    c.set("tdp_scale", "0.8");
    c.set("guard_band", "0.1");
    c.set("fault_rate", "0.5");
    c.set("faults", "true");
    c.set("gate_delay_ms", "5");
    c.set("test_period_ms", "250");
    const SystemConfig sys = system_config_from(c);
    EXPECT_EQ(sys.width, 4);
    EXPECT_EQ(sys.height, 6);
    EXPECT_EQ(sys.seed, 123u);
    EXPECT_DOUBLE_EQ(sys.tdp_scale, 0.8);
    EXPECT_DOUBLE_EQ(sys.power_aware.guard_band_fraction, 0.1);
    EXPECT_TRUE(sys.enable_fault_injection);
    EXPECT_DOUBLE_EQ(sys.faults.base_rate_per_core_s, 0.5);
    EXPECT_EQ(sys.power.gate_delay, 5 * kMillisecond);
    EXPECT_EQ(sys.periodic_test_period, 250 * kMillisecond);
}

TEST(ConfigBridge, ExplicitArrivalRateOverridesOccupancy) {
    Config c;
    c.set("arrival_rate_hz", "77.5");
    c.set("occupancy", "0.9");
    const SystemConfig sys = system_config_from(c);
    EXPECT_DOUBLE_EQ(sys.workload.arrival_rate_hz, 77.5);
}

TEST(ConfigBridge, OccupancyScalesRate) {
    Config lo, hi;
    lo.set("occupancy", "0.3");
    hi.set("occupancy", "0.6");
    EXPECT_NEAR(system_config_from(hi).workload.arrival_rate_hz /
                    system_config_from(lo).workload.arrival_rate_hz,
                2.0, 1e-9);
}

TEST(ConfigBridge, UnknownKeyRejected) {
    Config c;
    c.set("shceduler", "power-aware");  // typo must fail loudly
    EXPECT_THROW(system_config_from(c), RequireError);
}

TEST(ConfigBridge, BadEnumValuesRejected) {
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"node", "7nm"},
             {"scheduler", "magic"},
             {"mapper", "teleport"},
             {"vf_policy", "sometimes"},
             {"criticality_mode", "vibes"},
             {"capping", "duct-tape"}}) {
        Config c;
        c.set(key, value);
        EXPECT_THROW(system_config_from(c), RequireError) << key;
    }
}

// Each of these used to narrow silently to its low 32 bits (or wrap to a
// huge unsigned count) and run a different configuration.
TEST(ConfigBridge, SideOutOfIntRangeRejected) {
    expect_bridge_rejects({{"side", "4294967300"}}, "side");  // was 4x4
}

TEST(ConfigBridge, WidthOutOfIntRangeRejected) {
    expect_bridge_rejects({{"width", "4294967297"}, {"height", "2"}},
                          "width");  // was 1x2
}

TEST(ConfigBridge, TaskCountsOutOfIntRangeRejected) {
    expect_bridge_rejects(
        {{"min_tasks", "4294967298"}, {"max_tasks", "4294967299"}},
        "min_tasks");  // was 2-3 tasks
    expect_bridge_rejects({{"max_tasks", "4294967299"}}, "max_tasks");
}

TEST(ConfigBridge, MillisecondKeysRejectNegativeAndOverflow) {
    // gate_delay_ms=-1 wrapped to a delay no core ever reached: nothing
    // was power-gated.
    expect_bridge_rejects({{"gate_delay_ms", "-1"}}, "gate_delay_ms");
    expect_bridge_rejects({{"test_period_ms", "-1"}}, "test_period_ms");
    // 2^64 ns is about 18446744073709.6 ms.
    for (const char* key : {"gate_delay_ms", "test_period_ms"}) {
        expect_bridge_rejects({{key, "18446744073710"}}, key);
        Config c;
        c.set(key, "18446744073709");
        EXPECT_NO_THROW((void)system_config_from(c)) << key;
    }
}

TEST(ConfigBridge, GraphFileFeedsLibrary) {
    const std::string path = ::testing::TempDir() + "/bridge_graph.tg";
    {
        std::ofstream out(path);
        out << "tasks 2\ntask 0 1000\ntask 1 1000\nedge 0 1 32\n";
    }
    Config c;
    c.set("graph_file", path);
    const SystemConfig sys = system_config_from(c);
    ASSERT_EQ(sys.workload.graph_library.size(), 1u);
    EXPECT_EQ(sys.workload.graph_library[0].size(), 2u);
    EXPECT_GT(sys.workload.arrival_rate_hz, 0.0);
    std::remove(path.c_str());
}

TEST(ConfigBridge, EndToEndRunFromConfig) {
    Config c;
    c.set("width", "4");
    c.set("height", "4");
    c.set("occupancy", "0.5");
    c.set("min_tasks", "2");
    c.set("max_tasks", "5");
    ManycoreSystem sys(system_config_from(c));
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.apps_completed, 0u);
}

TEST(ConfigFile, ParsesAndMerges) {
    const std::string path = ::testing::TempDir() + "/mcs_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# comment\nwidth = 6\n  height=2  \nseed=9 # inline\n\n";
    }
    Config file = Config::from_file(path);
    EXPECT_EQ(file.get_int("width", 0), 6);
    EXPECT_EQ(file.get_int("height", 0), 2);
    EXPECT_EQ(file.get_int("seed", 0), 9);
    Config overrides;
    overrides.set("seed", "42");
    file.merge(overrides);
    EXPECT_EQ(file.get_int("seed", 0), 42);
    EXPECT_EQ(file.get_int("width", 0), 6);
    std::remove(path.c_str());
    EXPECT_THROW(Config::from_file("/no/such/file.cfg"), RequireError);
}

TEST(ConfigFile, GetDoubleAcceptsPlainNumbersOnly) {
    for (const auto& [text, value] :
         std::vector<std::pair<std::string, double>>{
             {"0.5", 0.5}, {"+0.25", 0.25}, {"-2", -2.0}, {"1e-3", 1e-3}}) {
        Config c;
        c.set("occupancy", text);
        EXPECT_EQ(c.get_double("occupancy", 0.0), value) << text;
    }
    for (const char* text : {"0,5", "0.5x", "", "+-1"}) {
        Config c;
        c.set("occupancy", text);
        expect_rejects_naming(c, "occupancy", [](const Config& cfg) {
            return cfg.get_double("occupancy", 0.0);
        });
    }
}

TEST(ConfigFile, GetDoubleIsLocaleIndependent) {
    // strtod honours LC_NUMERIC; charconv must not.
    if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
        GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
    }
    Config c;
    c.set("occupancy", "0.5");
    double parsed = 0.0;
    EXPECT_NO_THROW(parsed = c.get_double("occupancy", 0.0));
    std::setlocale(LC_NUMERIC, "C");
    EXPECT_EQ(parsed, 0.5);
}

TEST(Report, FormatMentionsKeyNumbers) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.workload.arrival_rate_hz = 200.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    const std::string text = format_metrics(m);
    EXPECT_NE(text.find("TDP"), std::string::npos);
    EXPECT_NE(text.find("tasks/s"), std::string::npos);
    EXPECT_NE(text.find("sessions"), std::string::npos);
}

TEST(Report, CsvHasAllMetrics) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.workload.arrival_rate_hz = 200.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    const std::string path = ::testing::TempDir() + "/mcs_report_test.csv";
    write_metrics_csv(m, path);
    std::ifstream in(path);
    std::string line;
    int rows = 0;
    bool has_violation_rate = false;
    while (std::getline(in, line)) {
        ++rows;
        if (line.rfind("tdp_violation_rate,", 0) == 0) {
            has_violation_rate = true;
        }
    }
    EXPECT_GT(rows, 45);
    EXPECT_TRUE(has_violation_rate);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mcs
