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

void apply_restore(ManycoreSystem& sys, const Config& cfg) {
    if (!cfg.has("restore")) {
        return;
    }
    RestoreOptions opts;
    opts.relax_config = cfg.get_bool("restore_relax", false);
    sys.restore(load_snapshot_file(cfg.get_string("restore", "")), opts);
}

}  // namespace mcs
