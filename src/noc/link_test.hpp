#pragma once

#include <optional>
#include <vector>

#include "noc/topology.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "util/rng.hpp"

namespace mcs {

/// NoC online-testing parameters (extension: the interconnect wears out
/// like the cores do, and its links can be tested in their idle windows
/// under the same power budget).
struct NocTestParams {
    /// Latent link-fault arrival rate per link-second (0 disables wear).
    double fault_rate_per_link_s = 0.0;
    /// Test-pattern volume pushed across a link per test session.
    std::uint64_t test_bytes = 8192;
    /// P(detect | faulty link) for one session (pattern coverage).
    double test_coverage = 0.95;
    /// Extra router power while a link test runs.
    double test_power_w = 0.05;
    /// P(corrupt message | message crosses a faulty link).
    double message_corruption_prob = 0.1;
    /// Target test period per link; criticality = elapsed / target.
    SimDuration test_period_target = 2 * kSecond;
    /// Links busier than this (smoothed utilization) are not tested.
    double max_test_utilization = 0.3;
    /// Cap on simultaneously running link tests.
    int max_concurrent_tests = 8;
};

/// A permanent fault in one directed mesh link.
struct LinkFault {
    LinkId link = 0;
    SimTime injected = 0;
    bool detected = false;
    SimTime detected_at = 0;
};

/// Injects link faults and adjudicates link-test sessions. Detected faults
/// are repaired in place (spare-wire swap, the standard NoC link-repair
/// mechanism), so a link can fail again later.
class LinkTester {
public:
    LinkTester(std::size_t link_count, NocTestParams params,
               std::uint64_t seed);

    /// Advances fault arrivals over `dt_s`. At most one latent fault per
    /// link. Returns links that acquired a fault.
    std::vector<LinkId> step(SimTime now, double dt_s);

    bool has_latent_fault(LinkId link) const;

    /// A test session finished on `link`: detection roll; on success the
    /// fault is marked detected and repaired (cleared).
    std::optional<LinkFault> attempt_detection(LinkId link, SimTime now);

    /// A message crossed `link`: rolls silent corruption if faulty.
    bool roll_message_corruption(LinkId link);

    const std::vector<LinkFault>& history() const noexcept {
        return history_;
    }
    std::uint64_t injected_count() const noexcept { return history_.size(); }
    std::uint64_t detected_count() const noexcept { return detected_; }
    std::uint64_t escaped_tests() const noexcept { return escaped_; }
    std::uint64_t corrupted_messages() const noexcept { return corrupted_; }

    const NocTestParams& params() const noexcept { return params_; }

    // ---- snapshot support ----
    /// Writes the RNG, latent slots, history and counters as fields of the
    /// object the caller has open. load_state checks each fault's link and
    /// the latent slots' count and history indices.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    NocTestParams params_;
    Rng rng_;
    std::vector<std::optional<std::size_t>> latent_;  ///< index into history_
    std::vector<LinkFault> history_;
    std::uint64_t detected_ = 0;
    std::uint64_t escaped_ = 0;
    std::uint64_t corrupted_ = 0;
};

}  // namespace mcs
