#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "core/config_bridge.hpp"
#include "support/differential.hpp"
#include "util/config.hpp"
#include "util/fnv1a.hpp"

// Pins the system bytes of the four contiguous-mapper presets. The
// scenario corpus pins only the default test-aware mapper at 8x8; here each
// preset maps a crowded 16x16 chip (occupancy 0.9, test aborts on, so
// testing cores are allocatable) for 0.3 s. A digest that moves means the
// mapper decided differently: find the cause, do not refresh the constant.
//
// CappingGoldens pins the capping order the same way: a 12x12 chip under a
// tight budget (tdp_scale=0.7), with and without a QoS mix. The trace
// records every vf_change, so its digest fixes which core the PID loop
// throttles or boosts at each step.

namespace mcs {
namespace {

struct GoldenCase {
    const char* name;    ///< preset, as the test name
    const char* mapper;  ///< `mapper=` value
    const char* report;  ///< FNV-1a of the run-report JSON
    const char* trace;   ///< FNV-1a of the chrome-trace JSON
};

std::string digest(const std::string& bytes) {
    Fnv1a h;
    h.bytes(bytes);
    return h.hex();
}

/// The preset's name in test listings (and so in the ctest names). Without
/// it gtest prints the struct's pointer bytes, which differ between runs.
void PrintTo(const GoldenCase& golden, std::ostream* os) {
    *os << golden.name;
}

class MapperGoldens : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(MapperGoldens, RunMatchesPinnedDigests) {
    const GoldenCase& golden = GetParam();
    const std::string mapper = std::string("mapper=") + golden.mapper;
    const char* const args[] = {"side=16", "occupancy=0.9",
                                "abort_tests=true", "seed=20",
                                mapper.c_str()};
    const SystemConfig cfg = system_config_from(Config::from_args(args));
    const testsupport::RunArtifacts art =
        testsupport::run_reference(cfg, 300 * kMillisecond);
    EXPECT_EQ(digest(art.report), golden.report);
    EXPECT_EQ(digest(art.trace), golden.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, MapperGoldens,
    ::testing::Values(
        GoldenCase{"plain", "contiguous", "ad551e30aef6d1e0",
                   "34a0f1ed6c0db248"},
        GoldenCase{"utilization_oriented", "util-oriented",
                   "ce22973c0e1f2006", "556db381b9bde735"},
        GoldenCase{"test_aware", "test-aware", "22f8e0327dfa8f48",
                   "c1ee66edf31add43"},
        GoldenCase{"thermal_aware", "thermal-aware", "9a681536f3614a76",
                   "359d05f0e60abc25"}));

struct CappingCase {
    const char* name;      ///< workload mix, as the test name
    const char* hard_rt;   ///< `hard_rt_share=` value
    const char* soft_rt;   ///< `soft_rt_share=` value
    const char* report;    ///< FNV-1a of the run-report JSON
    const char* trace;     ///< FNV-1a of the chrome-trace JSON
};

void PrintTo(const CappingCase& golden, std::ostream* os) {
    *os << golden.name;
}

class CappingGoldens : public ::testing::TestWithParam<CappingCase> {};

TEST_P(CappingGoldens, RunMatchesPinnedDigests) {
    const CappingCase& golden = GetParam();
    const std::string hard = std::string("hard_rt_share=") + golden.hard_rt;
    const std::string soft = std::string("soft_rt_share=") + golden.soft_rt;
    const char* const args[] = {"side=12",       "occupancy=0.9",
                                "tdp_scale=0.7", "seed=21",
                                hard.c_str(),    soft.c_str()};
    const SystemConfig cfg = system_config_from(Config::from_args(args));
    const testsupport::RunArtifacts art =
        testsupport::run_reference(cfg, 200 * kMillisecond);
    EXPECT_EQ(digest(art.report), golden.report);
    EXPECT_EQ(digest(art.trace), golden.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, CappingGoldens,
    ::testing::Values(
        CappingCase{"best_effort", "0", "0", "982922b30044d7cc",
                    "8efd80ca008245af"},
        CappingCase{"qos_mix", "0.3", "0.3", "f31c52d3da4bbe19",
                    "5f83932306f756ad"}));

}  // namespace
}  // namespace mcs
