#include "telemetry/schema.hpp"

#include <map>

#include "schema_data.hpp"  // generated from tools/schemas.json
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs::telemetry {

namespace {

const std::map<std::string, std::uint64_t, std::less<>>& schema_versions() {
    static const auto* versions = [] {
        auto* m = new std::map<std::string, std::uint64_t, std::less<>>();
        const JsonValue doc = parse_json(kSchemasJson);
        for (const auto& [family, version] : doc.object()) {
            (*m)[family] = version.u64();
        }
        return m;
    }();
    return *versions;
}

}  // namespace

std::string schema_tag(std::string_view family) {
    const auto& versions = schema_versions();
    const auto it = versions.find(family);
    MCS_REQUIRE(it != versions.end(),
                "unknown schema family (add it to tools/schemas.json): " +
                    std::string(family));
    return it->first + ".v" + std::to_string(it->second);
}

void require_schema(const JsonValue& doc, std::string_view family) {
    const std::string expected = schema_tag(family);
    MCS_REQUIRE(doc.has("schema"),
                "document has no schema tag; expected " + expected);
    const std::string& tag = doc.at("schema").string();
    MCS_REQUIRE(tag == expected, "schema mismatch: document has \"" + tag +
                                     "\", this build expects \"" +
                                     expected + "\"");
}

}  // namespace mcs::telemetry
