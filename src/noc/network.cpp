#include "noc/network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace mcs {

Network::Network(int width, int height, NocParams params)
    : topo_(width, height), params_(params) {
    MCS_REQUIRE(params_.link_bandwidth_bytes_per_s > 0,
                "link bandwidth must be positive");
    MCS_REQUIRE(params_.util_window > 0, "utilization window must be positive");
    MCS_REQUIRE(params_.util_ewma_alpha > 0 && params_.util_ewma_alpha <= 1,
                "EWMA alpha must be in (0,1]");
    window_bytes_.assign(topo_.link_count(), 0.0);
    util_.assign(topo_.link_count(), 0.0);
}

Transfer Network::send(CoreId src, CoreId dst, std::uint64_t bytes) {
    ++messages_;
    bytes_ += bytes;
    Transfer t;
    last_route_.clear();
    if (src == dst || bytes == 0) {
        return t;
    }
    last_route_ = topo_.xy_route(src, dst);
    const auto& route = last_route_;
    t.hops = static_cast<int>(route.size());
    double bottleneck = 0.0;
    for (LinkId link : route) {
        bottleneck = std::max(bottleneck, util_[link]);
        window_bytes_[link] += static_cast<double>(bytes);
    }
    hop_bytes_ += bytes * static_cast<std::uint64_t>(route.size());
    t.bottleneck_util = bottleneck;

    const double eff_util = std::min(bottleneck, params_.max_effective_util);
    const double eff_bw = params_.link_bandwidth_bytes_per_s * (1.0 - eff_util);
    const double serialization_s = static_cast<double>(bytes) / eff_bw;
    t.latency = static_cast<SimDuration>(route.size()) *
                    params_.router_latency +
                from_seconds(serialization_s);
    t.energy_j = static_cast<double>(bytes) *
                 static_cast<double>(route.size()) *
                 params_.energy_per_byte_hop_j;
    total_energy_j_ += t.energy_j;
    return t;
}

void Network::inject_link_load(LinkId link, std::uint64_t bytes) {
    MCS_REQUIRE(link < window_bytes_.size(), "link id out of range");
    window_bytes_[link] += static_cast<double>(bytes);
}

SimDuration Network::link_transfer_time(std::uint64_t bytes) const {
    const double s = static_cast<double>(bytes) /
                     params_.link_bandwidth_bytes_per_s;
    return 2 * params_.router_latency + from_seconds(s);
}

void Network::roll_window() {
    const double window_capacity =
        params_.link_bandwidth_bytes_per_s * to_seconds(params_.util_window);
    for (std::size_t i = 0; i < util_.size(); ++i) {
        const double inst = window_bytes_[i] / window_capacity;
        util_[i] = params_.util_ewma_alpha * inst +
                   (1.0 - params_.util_ewma_alpha) * util_[i];
        window_bytes_[i] = 0.0;
    }
}

double Network::link_utilization(LinkId link) const {
    MCS_REQUIRE(link < util_.size(), "link id out of range");
    return util_[link];
}

double Network::peak_utilization() const {
    if (util_.empty()) {
        return 0.0;
    }
    return *std::max_element(util_.begin(), util_.end());
}

double Network::mean_utilization() const {
    if (util_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double u : util_) {
        sum += u;
    }
    return sum / static_cast<double>(util_.size());
}

double Network::routers_idle_power_w() const {
    return params_.router_idle_power_w *
           static_cast<double>(topo_.node_count());
}


void Network::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("window_bytes");
    w.begin_array();
    for (double v : window_bytes_) {
        w.value(v);
    }
    w.end_array();
    w.key("util");
    w.begin_array();
    for (double v : util_) {
        w.value(v);
    }
    w.end_array();
    w.field("energy", total_energy_j_);
    w.field("messages", messages_);
    w.field("bytes", bytes_);
    w.field("hop_bytes", hop_bytes_);
    w.end_object();
}

void Network::load_state(const telemetry::JsonValue& doc) {
    std::vector<double> window_bytes = doc.at("window_bytes").numbers();
    std::vector<double> util = doc.at("util").numbers();
    MCS_REQUIRE(window_bytes.size() == window_bytes_.size() &&
                    util.size() == util_.size(),
                "network state: link count mismatch");
    window_bytes_ = std::move(window_bytes);
    util_ = std::move(util);
    total_energy_j_ = doc.at("energy").number();
    messages_ = doc.at("messages").u64();
    bytes_ = doc.at("bytes").u64();
    hop_bytes_ = doc.at("hop_bytes").u64();
}

}  // namespace mcs
