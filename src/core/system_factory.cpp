#include "core/system_factory.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {

telemetry::JsonValue load_snapshot_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    MCS_REQUIRE(in.is_open(), "cannot open snapshot file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    MCS_REQUIRE(in.good() || in.eof(), "snapshot read failed: " + path);
    return telemetry::parse_json(text.str());
}

}  // namespace mcs
