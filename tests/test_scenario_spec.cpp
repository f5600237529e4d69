#include "scenario/scenario_spec.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

/// A spec exercising every directive kind and every optional field.
const char* kFullSpec =
    "{\"schema\":\"mcs.scenario.v1\",\"name\":\"full\",\"directives\":["
    "{\"at_us\":100,\"kind\":\"arrival-burst\",\"apps\":3},"
    "{\"at_us\":200,\"kind\":\"arrival-burst\",\"apps\":2,\"tasks\":5,"
    "\"qos\":\"soft-RT\"},"
    "{\"at_us\":300,\"kind\":\"abort-tests\"},"
    "{\"at_us\":400,\"kind\":\"abort-tests\",\"cores\":[1,4,9]},"
    "{\"at_us\":500,\"kind\":\"invalidate-progress\",\"cores\":[0,2]},"
    "{\"at_us\":600,\"kind\":\"inject-fault\",\"core\":7,\"unit\":\"FPU\","
    "\"fault\":\"delay\"},"
    "{\"at_us\":700,\"kind\":\"inject-wear\",\"cores\":[3,5],"
    "\"damage\":0.25},"
    "{\"at_us\":800,\"kind\":\"inject-wear\",\"damage\":0.005},"
    "{\"at_us\":900,\"kind\":\"set-budget\",\"tdp_scale\":0.6},"
    "{\"at_us\":1000,\"kind\":\"set-vf\",\"cores\":[0,1],\"level\":2},"
    "{\"at_us\":1100,\"kind\":\"set-vf\",\"level\":0}]}";

TEST(ScenarioSpec, ParsesEveryDirectiveKind) {
    const ScenarioSpec spec = parse_scenario_text(kFullSpec);
    EXPECT_EQ(spec.name, "full");
    ASSERT_EQ(spec.directives.size(), 11u);
    EXPECT_EQ(spec.directives[0].kind, DirectiveKind::ArrivalBurst);
    EXPECT_EQ(spec.directives[0].at, 100 * kMicrosecond);
    EXPECT_EQ(spec.directives[0].apps, 3u);
    EXPECT_EQ(spec.directives[0].tasks, 0);
    EXPECT_EQ(spec.directives[0].qos, QosClass::BestEffort);
    EXPECT_EQ(spec.directives[1].tasks, 5);
    EXPECT_EQ(spec.directives[1].qos, QosClass::SoftRealTime);
    EXPECT_TRUE(spec.directives[2].cores.empty());
    EXPECT_EQ(spec.directives[3].cores, (std::vector<CoreId>{1, 4, 9}));
    EXPECT_EQ(spec.directives[5].core, 7u);
    EXPECT_EQ(spec.directives[5].unit, FunctionalUnit::Fpu);
    EXPECT_EQ(spec.directives[5].fault, FaultKind::Delay);
    EXPECT_DOUBLE_EQ(spec.directives[6].damage, 0.25);
    EXPECT_DOUBLE_EQ(spec.directives[8].tdp_scale, 0.6);
    EXPECT_EQ(spec.directives[9].vf_level, 2);
    EXPECT_EQ(spec.directives[10].vf_level, 0);
}

// ------------------------------------------------------- canonical form

TEST(ScenarioSpec, CanonicalFormIsAFixedPoint) {
    const ScenarioSpec spec = parse_scenario_text(kFullSpec);
    const std::string canon = canonical_scenario_json(spec);
    // Canonical bytes reparse to a spec that re-canonicalizes identically.
    const std::string again =
        canonical_scenario_json(parse_scenario_text(canon));
    EXPECT_EQ(again, canon);
    // kFullSpec is already written in canonical field order.
    EXPECT_EQ(canon, kFullSpec);
}

TEST(ScenarioSpec, CanonicalizationNormalizesKeyOrder) {
    // Same document with directive fields and top-level keys shuffled.
    const char* shuffled =
        "{\"name\":\"n\",\"directives\":[{\"kind\":\"inject-wear\","
        "\"damage\":0.5,\"at_us\":10,\"cores\":[2,3]}],"
        "\"schema\":\"mcs.scenario.v1\"}";
    const std::string canon =
        canonical_scenario_json(parse_scenario_text(shuffled));
    EXPECT_EQ(canon,
              "{\"schema\":\"mcs.scenario.v1\",\"name\":\"n\","
              "\"directives\":[{\"at_us\":10,\"kind\":\"inject-wear\","
              "\"cores\":[2,3],\"damage\":0.5}]}");
}

TEST(ScenarioSpec, FingerprintIsStableAndDiscriminating) {
    const ScenarioSpec a = parse_scenario_text(kFullSpec);
    EXPECT_EQ(scenario_fingerprint(a), scenario_fingerprint(a));
    EXPECT_EQ(scenario_fingerprint(a).size(), 16u);
    for (const char c : scenario_fingerprint(a)) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }

    ScenarioSpec b = a;
    b.directives[0].apps += 1;
    EXPECT_NE(scenario_fingerprint(b), scenario_fingerprint(a));
    ScenarioSpec c = a;
    c.name = "renamed";
    EXPECT_NE(scenario_fingerprint(c), scenario_fingerprint(a));
}

// ----------------------------------------------------------- bad inputs

void expect_rejected(const std::string& text, const std::string& label) {
    EXPECT_THROW(parse_scenario_text(text), RequireError) << label;
}

TEST(ScenarioSpec, RejectsMalformedDocuments) {
    expect_rejected("", "empty");
    expect_rejected("null", "null");
    expect_rejected("42", "number");
    expect_rejected("[]", "array");
    expect_rejected("{}", "empty object");
    expect_rejected("{\"schema\":\"mcs.scenario.v1\"}", "no name");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\"}", "no directives");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"\",\"directives\":["
        "{\"at_us\":1,\"kind\":\"abort-tests\"}]}",
        "empty name");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"directives\":[]}",
        "empty directives");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v2\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":1,\"kind\":\"abort-tests\"}]}",
        "wrong schema version");
    expect_rejected(
        "{\"schema\":\"mcs.snapshot.v1\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":1,\"kind\":\"abort-tests\"}]}",
        "wrong schema family");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"extra\":1,"
        "\"directives\":[{\"at_us\":1,\"kind\":\"abort-tests\"}]}",
        "unknown top-level key");
}

TEST(ScenarioSpec, RejectsBadTimes) {
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":0,\"kind\":\"abort-tests\"}]}",
        "zero time");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":5,\"kind\":\"abort-tests\"},"
        "{\"at_us\":5,\"kind\":\"abort-tests\"}]}",
        "duplicate time");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":9,\"kind\":\"abort-tests\"},"
        "{\"at_us\":3,\"kind\":\"abort-tests\"}]}",
        "decreasing time");
    expect_rejected(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\",\"directives\":["
        "{\"at_us\":18446744073709551615,\"kind\":\"abort-tests\"}]}",
        "clock overflow");
}

TEST(ScenarioSpec, RejectsBadDirectives) {
    const auto wrap = [](const std::string& d) {
        return "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\","
               "\"directives\":[" +
               d + "]}";
    };
    expect_rejected(wrap("{\"at_us\":1}"), "no kind");
    expect_rejected(wrap("{\"kind\":\"abort-tests\"}"), "no at_us");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"explode\"}"),
                    "unknown kind");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"abort-tests\",\"apps\":1}"),
        "foreign field");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"arrival-burst\",\"apps\":0}"),
        "apps = 0");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"arrival-burst\",\"apps\":4097}"),
        "apps too large");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"arrival-burst\",\"apps\":1,"
             "\"tasks\":0}"),
        "tasks = 0");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"arrival-burst\",\"apps\":1,"
             "\"qos\":\"ultra-RT\"}"),
        "unknown qos");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"abort-tests\","
                         "\"cores\":[]}"),
                    "empty cores array");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"abort-tests\","
                         "\"cores\":[3,3]}"),
                    "duplicate core");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"abort-tests\","
                         "\"cores\":[5,2]}"),
                    "unsorted cores");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"inject-fault\","
                         "\"core\":0,\"unit\":\"GPU\","
                         "\"fault\":\"stuck-at\"}"),
                    "unknown unit");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"inject-fault\","
                         "\"core\":0,\"unit\":\"ALU\","
                         "\"fault\":\"gamma-ray\"}"),
                    "unknown fault");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"inject-fault\","
                         "\"core\":0,\"unit\":\"ALU\"}"),
                    "missing fault");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"inject-wear\"}"),
                    "missing damage");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"inject-wear\",\"damage\":0}"),
        "zero damage");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"inject-wear\",\"damage\":-0.5}"),
        "negative damage");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"inject-wear\",\"damage\":\"0.5\"}"),
        "string damage");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"set-budget\"}"),
                    "missing tdp_scale");
    expect_rejected(
        wrap("{\"at_us\":1,\"kind\":\"set-budget\",\"tdp_scale\":0}"),
        "zero tdp_scale");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"set-vf\"}"),
                    "missing level");
    expect_rejected(wrap("{\"at_us\":1,\"kind\":\"set-vf\",\"level\":65}"),
                    "level out of range");
}

TEST(ScenarioSpec, RejectsOversizedAndDeepDocuments) {
    // Past the 1 MiB scenario-specific byte limit.
    std::string big =
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"";
    big.append((std::size_t{1} << 20) + 16, 'a');
    big += "\",\"directives\":[{\"at_us\":1,\"kind\":\"abort-tests\"}]}";
    expect_rejected(big, "oversized document");

    // Past the depth-8 limit.
    std::string deep = "{\"schema\":\"mcs.scenario.v1\",\"name\":\"x\","
                       "\"directives\":";
    deep.append(16, '[');
    deep.append(16, ']');
    deep += "}";
    expect_rejected(deep, "over-deep document");
}

// ----------------------------------------------------------------- fuzz

TEST(ScenarioSpec, TruncationAtEveryByteFailsCleanly) {
    const std::string canon =
        canonical_scenario_json(parse_scenario_text(kFullSpec));
    for (std::size_t cut = 0; cut < canon.size(); ++cut) {
        try {
            parse_scenario_text(canon.substr(0, cut));
            ADD_FAILURE() << "truncation at " << cut << " parsed";
        } catch (const RequireError&) {
            // Expected: every strict prefix is rejected cleanly.
        }
    }
}

TEST(ScenarioSpec, RandomMutationsNeverCrashTheParser) {
    const std::string canon =
        canonical_scenario_json(parse_scenario_text(kFullSpec));
    Rng rng(20260808);
    int survivors = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::string text = canon;
        // 1-3 random byte edits: overwrite, insert, or erase.
        const int edits = 1 + static_cast<int>(rng.index(3));
        for (int e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t pos = rng.index(text.size());
            const char byte = static_cast<char>(rng.index(256));
            switch (rng.index(3)) {
                case 0: text[pos] = byte; break;
                case 1: text.insert(text.begin() + pos, byte); break;
                default: text.erase(text.begin() + pos); break;
            }
        }
        try {
            const ScenarioSpec spec = parse_scenario_text(text);
            // A mutation that still parses must still canonicalize to a
            // fixed point -- the invariant holds for every accepted input.
            const std::string c = canonical_scenario_json(spec);
            EXPECT_EQ(canonical_scenario_json(parse_scenario_text(c)), c);
            ++survivors;
        } catch (const RequireError&) {
            // Clean rejection is the expected outcome; anything else
            // (segfault, std::bad_alloc, uncaught logic_error) fails the
            // test by escaping the catch.
        }
    }
    // Sanity: the mutator is actually producing mostly-broken documents.
    EXPECT_LT(survivors, 1000);
}

}  // namespace
}  // namespace mcs
