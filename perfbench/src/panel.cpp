#include "panel.hpp"

#include <array>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "telemetry/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::array<std::string_view, 5> kSchedulers = {
    "power-aware", "periodic", "greedy", "deadline", "none"};
constexpr std::array<std::string_view, 6> kMappers = {
    "test-aware", "util-oriented", "contiguous",
    "random",     "first-fit",     "reliability-weighted"};

// tdp_scale in [0.70, 1.30] and guard_band in [0.02, 0.10], on grids fine
// enough that a panel of a few hundred forks stays distinct.
constexpr int kTdpSteps = 60;
constexpr int kGuardSteps = 16;

std::string body_of(const std::string& snapshot, std::string_view scheduler,
                    std::string_view mapper, int tdp_step, int guard_step) {
    const double tdp_scale = 0.70 + 0.01 * tdp_step;
    const double guard_band = 0.02 + 0.005 * guard_step;
    std::string body = "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"";
    body += mcs::telemetry::json_escape(snapshot);
    body += "\",\"overrides\":{\"scheduler\":\"";
    body += scheduler;
    body += "\",\"mapper\":\"";
    body += mapper;
    body += "\",\"tdp_scale\":";
    body += mcs::telemetry::json_number(tdp_scale);
    body += ",\"guard_band\":";
    body += mcs::telemetry::json_number(guard_band);
    body += "}}";
    return body;
}

}  // namespace

std::vector<std::string> make_panel(std::uint64_t seed, std::size_t size,
                                    const std::string& snapshot) {
    const std::size_t combos = kSchedulers.size() * kMappers.size();
    MCS_REQUIRE(size <= combos * (kTdpSteps + 1) * (kGuardSteps + 1),
                "panel larger than the fork grid");
    mcs::Rng rng(seed ^ 0x5eedf0c5a11b0a7dULL);
    std::set<std::tuple<std::size_t, int, int>> seen;
    std::vector<std::string> panel;
    panel.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
        const std::size_t combo = i % combos;
        int tdp = 0;
        int guard = 0;
        do {
            tdp = static_cast<int>(rng.uniform_int(0, kTdpSteps));
            guard = static_cast<int>(rng.uniform_int(0, kGuardSteps));
        } while (!seen.emplace(combo, tdp, guard).second);
        panel.push_back(body_of(snapshot,
                                kSchedulers[combo % kSchedulers.size()],
                                kMappers[combo / kSchedulers.size()], tdp,
                                guard));
    }
    // Seeded asking order (Fisher-Yates).
    for (std::size_t i = panel.size(); i > 1; --i) {
        std::swap(panel[i - 1], panel[rng.index(i)]);
    }
    return panel;
}

std::string identity_query(const std::string& snapshot) {
    return "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"" +
           mcs::telemetry::json_escape(snapshot) + "\"}";
}

std::string whatif_wire(const std::string& body) {
    return "POST /whatif HTTP/1.1\r\nHost: perfbench\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace perfbench
