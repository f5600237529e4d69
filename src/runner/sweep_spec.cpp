#include "runner/sweep_spec.hpp"

#include <string_view>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

constexpr std::string_view kSweepPrefix = "sweep.";

std::string trim(std::string_view s) {
    const auto begin = s.find_first_not_of(" \t");
    if (begin == std::string_view::npos) {
        return {};
    }
    const auto end = s.find_last_not_of(" \t");
    return std::string(s.substr(begin, end - begin + 1));
}

}  // namespace

std::vector<std::string> split_value_list(const std::string& text) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = text.find(',', start);
        const std::string item = trim(
            std::string_view(text).substr(start, comma - start));
        MCS_REQUIRE(!item.empty(), "empty item in value list: '" + text + "'");
        out.push_back(item);
        if (comma == std::string::npos) {
            return out;
        }
        start = comma + 1;
    }
}

CampaignSpec CampaignSpec::from_file(const std::string& path) {
    return from_config(Config::from_file(path));
}

CampaignSpec CampaignSpec::from_config(const Config& cfg) {
    CampaignSpec spec;
    spec.replicas = cfg.get_int_as<int>("replicas", 1);
    MCS_REQUIRE(spec.replicas > 0, "replicas must be positive");
    spec.campaign_seed =
        static_cast<std::uint64_t>(cfg.get_int("campaign_seed", 42));
    spec.seconds = cfg.get_double("seconds", 10.0);
    MCS_REQUIRE(spec.seconds > 0.0, "seconds must be positive");
    spec.default_jobs = cfg.get_int_as<int>("jobs", 0);

    for (const auto& [key, value] : cfg.entries()) {
        if (key.rfind(kSweepPrefix, 0) == 0) {
            SweepAxis axis;
            axis.key = key.substr(kSweepPrefix.size());
            MCS_REQUIRE(!axis.key.empty(), "sweep axis with empty key");
            axis.values = split_value_list(value);
            spec.axes.push_back(std::move(axis));
        } else if (key != "replicas" && key != "campaign_seed" &&
                   key != "jobs" && key != "sweep") {
            // "sweep" itself is the CLI mode flag (the spec path).
            spec.base.set(key, value);
        }
    }
    for (const SweepAxis& axis : spec.axes) {
        MCS_REQUIRE(!spec.base.has(axis.key),
                    "key swept and fixed at once: " + axis.key);
    }
    return spec;
}

std::size_t CampaignSpec::cell_count() const {
    std::size_t count = 1;
    for (const SweepAxis& axis : axes) {
        count *= axis.values.size();
    }
    return count;
}

std::size_t CampaignSpec::replica_count() const {
    return cell_count() * static_cast<std::size_t>(replicas);
}

std::vector<std::pair<std::string, std::string>> CampaignSpec::cell_point(
    std::size_t c) const {
    MCS_REQUIRE(c < cell_count(), "cell index out of range");
    // Mixed-radix decode, last axis fastest.
    std::vector<std::pair<std::string, std::string>> point(axes.size());
    for (std::size_t a = axes.size(); a-- > 0;) {
        const SweepAxis& axis = axes[a];
        point[a] = {axis.key, axis.values[c % axis.values.size()]};
        c /= axis.values.size();
    }
    return point;
}

std::string CampaignSpec::cell_label(std::size_t c) const {
    std::string label;
    for (const auto& [key, value] : cell_point(c)) {
        if (!label.empty()) {
            label += ' ';
        }
        label += key + '=' + value;
    }
    return label.empty() ? "(base)" : label;
}

Config CampaignSpec::replica_config(std::size_t cell, int replica) const {
    Config cfg = base;
    for (const auto& [key, value] : cell_point(cell)) {
        cfg.set(key, value);
    }
    cfg.set("seed", std::to_string(replica_seed(replica)));
    return cfg;
}

std::uint64_t CampaignSpec::replica_seed(int replica) const {
    // The top bit is cleared so the seed survives the round trip through
    // the config's signed-integer text representation.
    return Rng::stream_seed(campaign_seed,
                            static_cast<std::uint64_t>(replica)) >>
           1;
}

}  // namespace mcs
