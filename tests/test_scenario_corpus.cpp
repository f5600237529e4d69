#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "scenario/scenario_player.hpp"
#include "scenario/scenario_spec.hpp"
#include "support/differential.hpp"
#include "telemetry/json.hpp"
#include "util/fnv1a.hpp"
#include "util/require.hpp"

// The committed scenario corpus (examples/scenarios/) is a contract, not
// documentation: every file must be in canonical form (so diffs are
// meaningful and fingerprints stable) and must replay to the committed
// golden digests on the reference configuration. Regenerate goldens with
//     MCS_UPDATE_SCENARIO_GOLDENS=1 ./test_scenario_corpus
// after an intentional behavior change and commit the updated file.

namespace mcs {
namespace {

const char* const kCorpus[] = {
    "burst_at_budget_edge", "abort_cascade",     "budget_cut",
    "vf_throttle_step",     "wear_acceleration", "combined_stress",
};

std::string corpus_dir() {
    return std::string(MCS_SOURCE_DIR) + "/examples/scenarios/";
}

std::string goldens_path() { return corpus_dir() + "goldens.json"; }

std::string digest(const std::string& bytes) {
    Fnv1a h;
    h.bytes(bytes);
    return h.hex();
}

/// Reference replay platform: the paper's 8x8 chip under moderate load
/// with fault injection live (so inject-fault directives take effect).
SystemConfig golden_config() {
    SystemConfig cfg;
    cfg.seed = 20260808;
    cfg.enable_fault_injection = true;
    const double capacity = 64.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.4, cfg.workload.graphs, capacity);
    return cfg;
}

/// Corpus directives all fire by 1.5 s.
constexpr SimDuration kGoldenHorizon = 1600 * kMillisecond;

testsupport::RunArtifacts replay(const std::string& name) {
    ManycoreSystem sys(golden_config());
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    sys.attach_scenario(make_scenario_player(corpus_dir() + name + ".json"));
    return testsupport::capture(sys, tracer, kGoldenHorizon);
}

TEST(ScenarioCorpus, EveryFileIsCanonical) {
    for (const char* name : kCorpus) {
        const std::string path = corpus_dir() + name + ".json";
        const std::string bytes = testsupport::read_file(path);
        const ScenarioSpec spec = load_scenario_file(path);
        EXPECT_EQ(bytes, canonical_scenario_json(spec) + "\n")
            << path << " is not in canonical form";
        EXPECT_FALSE(spec.name.empty());
    }
}

TEST(ScenarioCorpus, CoversEveryDirectiveKind) {
    std::map<DirectiveKind, int> seen;
    for (const char* name : kCorpus) {
        for (const ScenarioDirective& d :
             load_scenario_file(corpus_dir() + name + ".json").directives) {
            ++seen[d.kind];
        }
    }
    for (const DirectiveKind kind :
         {DirectiveKind::ArrivalBurst, DirectiveKind::AbortTests,
          DirectiveKind::InvalidateProgress, DirectiveKind::InjectFault,
          DirectiveKind::InjectWear, DirectiveKind::SetBudget,
          DirectiveKind::SetVf}) {
        EXPECT_GT(seen[kind], 0)
            << "corpus does not exercise " << to_string(kind);
    }
}

TEST(ScenarioCorpus, FingerprintsAreUnique) {
    std::map<std::string, std::string> by_fp;
    for (const char* name : kCorpus) {
        const ScenarioSpec spec =
            load_scenario_file(corpus_dir() + name + ".json");
        const std::string fp = scenario_fingerprint(spec);
        EXPECT_TRUE(by_fp.emplace(fp, name).second)
            << name << " collides with " << by_fp[fp];
    }
}

TEST(ScenarioCorpus, ReplaysMatchGoldenDigests) {
    const bool update =
        std::getenv("MCS_UPDATE_SCENARIO_GOLDENS") != nullptr;

    std::map<std::string, std::pair<std::string, std::string>> got;
    for (const char* name : kCorpus) {
        const testsupport::RunArtifacts art = replay(name);
        got[name] = {digest(art.report), digest(art.trace)};
    }

    if (update) {
        std::ostringstream os;
        telemetry::JsonWriter w(os);
        w.begin_object();
        for (const auto& [name, d] : got) {
            w.key(name);
            w.begin_object();
            w.field("report", d.first);
            w.field("trace", d.second);
            w.end_object();
        }
        w.end_object();
        testsupport::write_file(goldens_path(), os.str() + "\n");
        GTEST_SKIP() << "goldens regenerated at " << goldens_path();
    }

    const telemetry::JsonValue goldens =
        telemetry::parse_json(testsupport::read_file(goldens_path()));
    ASSERT_EQ(goldens.object().size(), std::size(kCorpus))
        << "goldens.json does not cover the corpus exactly";
    for (const auto& [name, d] : got) {
        ASSERT_TRUE(goldens.has(name)) << "no golden for " << name;
        EXPECT_EQ(d.first, goldens.at(name).at("report").string())
            << name << ": run-report digest drifted";
        EXPECT_EQ(d.second, goldens.at(name).at("trace").string())
            << name << ": trace digest drifted";
    }
}

}  // namespace
}  // namespace mcs
