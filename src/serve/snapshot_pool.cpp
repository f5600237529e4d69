#include "serve/snapshot_pool.hpp"

#include <algorithm>
#include <cctype>

#include "core/config_bridge.hpp"
#include "core/snapshot.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/schema.hpp"
#include "util/require.hpp"

namespace mcs::serve {

namespace {

constexpr std::string_view kPrefix = "snapshot.";
constexpr std::string_view kConfigSuffix = ".config";

bool valid_name(std::string_view name) {
    if (name.empty()) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](unsigned char c) {
        return std::isalnum(c) != 0 || c == '_' || c == '-';
    });
}

}  // namespace

SnapshotEntry SnapshotPool::make_entry(std::string name, std::string path,
                                       telemetry::JsonValue doc,
                                       Config base) {
    telemetry::require_schema(doc, "mcs.snapshot");
    SnapshotEntry e;
    e.name = std::move(name);
    e.path = std::move(path);
    e.config_fingerprint = doc.at("config_fingerprint").string();
    e.structural_fingerprint = doc.at("structural_fingerprint").string();
    e.captured_now = doc.at("now").u64();
    e.captured_horizon = doc.at("horizon").u64();
    MCS_REQUIRE(e.captured_now > 0 && e.captured_now < e.captured_horizon,
                "snapshot '" + e.name + "': captured clock/horizon invalid");

    // Fail fast: every fork builds from the base through make_system and
    // restores this document, so whatever would make that fail (or quietly
    // differ) fails here instead of as a 400 on every query.
    for (const char* key : {"restore", "checkpoint", "checkpoint_at"}) {
        MCS_REQUIRE(!base.has(key),
                    "snapshot '" + e.name + "': the base config must not " +
                        "hold " + key +
                        "= (forks restore from the pooled snapshot)");
    }
    MCS_REQUIRE(base.has("scenario") == doc.has("scenario"),
                "snapshot '" + e.name +
                    (doc.has("scenario")
                         ? "' was captured with a scenario attached; serve "
                           "it with the same scenario="
                         : "' was captured without a scenario, but the base "
                           "config sets scenario="));
    const SystemConfig cfg = system_config_from(base);
    MCS_REQUIRE(structural_fingerprint(cfg) == e.structural_fingerprint,
                "snapshot '" + e.name +
                    "': base config does not match the captured structure "
                    "(structural fingerprint mismatch)");

    e.key_prefix = e.config_fingerprint + '+' + e.structural_fingerprint +
                   '@' + std::to_string(e.captured_now) + '/' +
                   std::to_string(doc.at("executed").u64()) + '/' +
                   std::to_string(doc.at("cancelled").u64()) +
                   "|base=" + config_fingerprint(cfg);
    if (doc.has("scenario")) {
        const std::string& captured =
            doc.at("scenario").at("fingerprint").string();
        MCS_REQUIRE(scenario_fingerprint(load_scenario_file(
                        base.get_string("scenario", ""))) == captured,
                    "snapshot '" + e.name +
                        "': scenario= names a spec whose fingerprint differs "
                        "from the captured scenario's");
        e.key_prefix += "|scenario=" + captured;
    }
    e.doc = std::move(doc);
    e.base = std::move(base);
    return e;
}

SnapshotPool SnapshotPool::load(const Config& serve_cfg,
                                const Config& shared_base) {
    SnapshotPool pool;
    for (const auto& [key, value] : serve_cfg.entries()) {
        if (key.rfind(kPrefix, 0) != 0 || key.ends_with(kConfigSuffix)) {
            continue;
        }
        const std::string name = key.substr(kPrefix.size());
        MCS_REQUIRE(valid_name(name),
                    "invalid snapshot name in key '" + key +
                        "' (use [A-Za-z0-9_-]+)");
        Config base = shared_base;
        const std::string cfg_key = key + std::string(kConfigSuffix);
        if (serve_cfg.has(cfg_key)) {
            Config file = Config::from_file(serve_cfg.get_string(cfg_key, ""));
            base.merge(file);
        }
        pool.entries_.push_back(make_entry(
            name, value, load_snapshot_file(value), std::move(base)));
    }
    // A dangling per-snapshot config is a typo, not dead weight.
    for (const auto& [key, value] : serve_cfg.entries()) {
        if (key.rfind(kPrefix, 0) == 0 && key.ends_with(kConfigSuffix)) {
            const std::string base_key =
                key.substr(0, key.size() - kConfigSuffix.size());
            MCS_REQUIRE(serve_cfg.has(base_key),
                        "config key '" + key + "' has no matching '" +
                            base_key + "' snapshot entry");
        }
    }
    MCS_REQUIRE(!pool.entries_.empty(),
                "no snapshots configured (need at least one "
                "snapshot.<name>=<path> entry)");
    std::sort(pool.entries_.begin(), pool.entries_.end(),
              [](const SnapshotEntry& a, const SnapshotEntry& b) {
                  return a.name < b.name;
              });
    return pool;
}

SnapshotPool SnapshotPool::from_document(std::string name,
                                         telemetry::JsonValue doc,
                                         Config base) {
    SnapshotPool pool;
    pool.entries_.push_back(make_entry(std::move(name), "<memory>",
                                       std::move(doc), std::move(base)));
    return pool;
}

const SnapshotEntry* SnapshotPool::find(const std::string& name) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const SnapshotEntry& e, const std::string& n) {
            return e.name < n;
        });
    return it != entries_.end() && it->name == name ? &*it : nullptr;
}

}  // namespace mcs::serve
