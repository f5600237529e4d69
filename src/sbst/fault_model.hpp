#pragma once

#include <optional>
#include <span>
#include <vector>

#include "arch/chip.hpp"
#include "sbst/test_suite.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "util/rng.hpp"

namespace mcs {

/// Electrical class of a permanent fault; decides at which DVFS levels an
/// SBST session can observe it (the reason the journal extension rotates
/// test sessions across every V/F level).
enum class FaultKind {
    StuckAt,     ///< hard defect: observable at every level
    Delay,       ///< timing degradation (NBTI/HCI): only manifests near the
                 ///< top frequencies where the slack is gone
    LowVoltage,  ///< marginal cell/keeper: only manifests at the
                 ///< near-threshold levels
};

const char* to_string(FaultKind kind);

/// A permanent (wear-out) fault in one functional unit of one core. The
/// fault is latent until an SBST session covering its unit -- run at a
/// DVFS level where the fault class manifests -- detects it.
struct Fault {
    CoreId core = kInvalidCore;
    FunctionalUnit unit = FunctionalUnit::Alu;
    FaultKind kind = FaultKind::StuckAt;
    SimTime injected = 0;
    bool detected = false;
    SimTime detected_at = 0;
};

/// Fault-model parameters.
///
/// Substitution note (DESIGN.md): real wear-out rates are per *year*; to
/// make detection-latency statistics measurable inside seconds-long
/// simulations the base rate is scaled up so a 64-core chip sees a handful
/// of faults per simulated minute. Only relative effects (criticality-driven
/// scheduling finds faults on stressed cores sooner) are interpreted.
struct FaultModelParams {
    /// Latent-fault arrival rate per core-second at aging acceleration 1.
    double base_rate_per_core_s = 0.01;
    /// Probability that a task executed on a core with a latent fault
    /// silently corrupts its output (per task).
    double task_corruption_prob = 0.25;
    /// Fault-class mix (normalized internally). Wear-out skews toward
    /// timing degradation, hence the large delay share.
    double stuck_at_weight = 0.5;
    double delay_weight = 0.35;
    double low_voltage_weight = 0.15;
    /// A Delay fault manifests at the top `delay_visible_levels` DVFS
    /// levels; a LowVoltage fault at the bottom `lowv_visible_levels`.
    int delay_visible_levels = 2;
    int lowv_visible_levels = 2;
};

/// Injects latent permanent faults (Poisson per core, rate modulated by the
/// aging tracker's acceleration factor and the core's operational state) and
/// adjudicates SBST detection attempts.
class FaultInjector {
public:
    FaultInjector(std::size_t core_count, FaultModelParams params,
                  std::uint64_t seed);

    /// Advances fault arrivals over `dt_s`. `accel` (indexed by CoreId, may
    /// be empty = all 1.0) scales the per-core rate; Dark and Faulty cores
    /// do not accumulate new faults. At most one latent fault per core.
    /// Returns ids of cores that acquired a fault in this step.
    std::vector<CoreId> step(SimTime now, double dt_s, const Chip& chip,
                             std::span<const double> accel);

    bool has_latent_fault(CoreId core) const;
    /// The core's latent fault, or nullopt.
    std::optional<Fault> latent_fault(CoreId core) const;

    /// Plants a specific latent fault (scenario directive), bypassing the
    /// stochastic arrival process: no RNG draw happens, so the Poisson
    /// streams are unperturbed. Returns false (and changes nothing) when
    /// the core already carries a latent fault -- the one-latent-fault
    /// invariant matches step().
    bool force_fault(CoreId core, FunctionalUnit unit, FaultKind kind,
                     SimTime now);

    /// True if a fault of `kind` manifests during a session run at
    /// `vf_level` out of `vf_level_count` levels.
    bool manifests_at(FaultKind kind, int vf_level,
                      int vf_level_count) const;

    /// A full SBST session completed on `core` at `vf_level` (of
    /// `vf_level_count` levels): if the latent fault's class manifests at
    /// that level, rolls detection against the suite's coverage of the
    /// faulty unit. On success marks the fault detected and returns it
    /// (the caller decommissions the core).
    std::optional<Fault> attempt_detection(CoreId core, SimTime now,
                                           const TestSuite& suite,
                                           int vf_level, int vf_level_count);

    /// Convenience overload: session at the top level of a 1-level table
    /// (every fault class manifests). Used by unit tests.
    std::optional<Fault> attempt_detection(CoreId core, SimTime now,
                                           const TestSuite& suite);

    /// A workload task finished on `core`: rolls silent corruption.
    bool roll_task_corruption(CoreId core);

    /// All faults ever injected, in injection order; entries are updated in
    /// place when their fault is detected.
    const std::vector<Fault>& history() const noexcept { return history_; }
    std::uint64_t injected_count() const noexcept { return history_.size(); }
    std::uint64_t detected_count() const noexcept { return detected_; }
    std::uint64_t escaped_tests() const noexcept { return escaped_tests_; }
    std::uint64_t corrupted_tasks() const noexcept { return corrupted_; }

    const FaultModelParams& params() const noexcept { return params_; }

    // ---- snapshot support ----
    /// Writes the RNG, latent slots, history and counters as fields of the
    /// object the caller has open. load_state checks each fault's core,
    /// unit and kind, and the latent slots' count and history indices.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    FaultKind draw_kind();

    FaultModelParams params_;
    Rng rng_;
    /// Per-core index into history_ of the core's latent fault, if any.
    std::vector<std::optional<std::size_t>> latent_;
    std::vector<Fault> history_;
    std::uint64_t detected_ = 0;
    std::uint64_t escaped_tests_ = 0;
    std::uint64_t corrupted_ = 0;
};

}  // namespace mcs
