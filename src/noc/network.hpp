#pragma once

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"

namespace mcs {

/// NoC model parameters. Defaults approximate a 32-bit-flit mesh at core
/// frequency; constants are modeling choices documented in DESIGN.md.
struct NocParams {
    double link_bandwidth_bytes_per_s = 4.0e9;  ///< per directed link
    SimDuration router_latency = 4;             ///< per hop, ns
    double energy_per_byte_hop_j = 6.0e-12;     ///< transport energy
    double router_idle_power_w = 0.003;         ///< per router static power
    /// EWMA smoothing for link utilization (per utilization-window update).
    double util_ewma_alpha = 0.3;
    /// Window length over which offered bytes are turned into utilization.
    SimDuration util_window = 100 * kMicrosecond;
    /// Cap on modeled utilization when computing serialization slowdown,
    /// so latency stays finite under overload.
    double max_effective_util = 0.95;
};

/// Outcome of planning one message transfer.
struct Transfer {
    SimDuration latency = 0;   ///< injection to delivery
    double energy_j = 0.0;     ///< transport energy for the whole message
    int hops = 0;
    double bottleneck_util = 0.0;  ///< highest link utilization on the path
};

/// Analytic contention NoC: messages are routed XY; per-link utilization is
/// tracked in windows and smoothed with an EWMA; a message's serialization
/// delay is inflated by the bottleneck utilization along its path. This is
/// the standard abstraction level for runtime-mapping papers (no flit-level
/// simulation), preserving the congestion feedback the mapper needs.
class Network {
public:
    Network(int width, int height, NocParams params = {});

    const MeshTopology& topology() const noexcept { return topo_; }
    /// Convenience for the common topology query (saves callers a hop).
    std::size_t link_count() const noexcept { return topo_.link_count(); }
    const NocParams& params() const noexcept { return params_; }

    /// Plans a transfer of `bytes` from `src` to `dst`, charges the load to
    /// every link on the path, and returns latency/energy. src == dst (or
    /// bytes == 0) yields a zero-latency local transfer.
    Transfer send(CoreId src, CoreId dst, std::uint64_t bytes);

    /// The links traversed by the most recent send() (empty for local
    /// transfers). Valid until the next send().
    const std::vector<LinkId>& last_route() const noexcept {
        return last_route_;
    }

    /// Charges raw traffic to one link (used by the link tester: test
    /// patterns consume link bandwidth like any other traffic).
    void inject_link_load(LinkId link, std::uint64_t bytes);

    /// Wall time needed to push `bytes` across one uncongested link.
    SimDuration link_transfer_time(std::uint64_t bytes) const;

    /// Advances the utilization window: folds accumulated bytes into the
    /// per-link EWMA utilization and resets the window accumulators. Call
    /// every `params().util_window`.
    void roll_window();

    /// Smoothed utilization of a link in [0, 1+).
    double link_utilization(LinkId link) const;

    /// Highest smoothed utilization over all links.
    double peak_utilization() const;
    /// Mean smoothed utilization over all links.
    double mean_utilization() const;

    double total_energy_j() const noexcept { return total_energy_j_; }
    std::uint64_t messages_sent() const noexcept { return messages_; }
    std::uint64_t bytes_sent() const noexcept { return bytes_; }
    std::uint64_t total_hop_bytes() const noexcept { return hop_bytes_; }

    /// Static power of all routers (added to chip power by the power model).
    double routers_idle_power_w() const;

    // ---- snapshot support ----
    /// The window accumulators, smoothed utilizations and traffic totals
    /// as one object; last_route_ is scratch and stays out. load_state
    /// checks both per-link vectors against the link count.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    MeshTopology topo_;
    NocParams params_;
    std::vector<double> window_bytes_;
    std::vector<double> util_;
    std::vector<LinkId> last_route_;
    double total_energy_j_ = 0.0;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t hop_bytes_ = 0;
};

}  // namespace mcs
