#pragma once

// ScenarioPlayer: compiles a ScenarioSpec into simulator events over
// the engine seams of a ManycoreSystem. Directives are chained -- each
// directive's event schedules the next one -- so the player contributes at
// most one pending event to the queue at any instant, which keeps the
// snapshot manifest entry ("scenario", a = next directive index) trivially
// unique and the replay position a single integer.
//
// Determinism: directive application is pure replay (no RNG draws on the
// engines' streams; burst applications are generated from a scenario-local
// stream rooted at the spec fingerprint), so a scenario run is
// byte-identical across campaign --jobs counts and across
// checkpoint/restore -- the same contract every other subsystem honors.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario_hook.hpp"
#include "scenario/scenario_spec.hpp"

namespace mcs {

class ScenarioPlayer final : public ScenarioDriver {
public:
    explicit ScenarioPlayer(ScenarioSpec spec);

    // --- ScenarioDriver ---
    void bind(ManycoreSystem& sys) override;
    void begin(SimDuration horizon) override;
    void save_state(telemetry::JsonWriter& w) const override;
    void load_state(const telemetry::JsonValue& doc) override;
    void reinject_restored() override;
    void reapply_restored() override;
    void schedule_restored_directive(std::uint64_t index,
                                     SimTime when) override;
    bool directive_due() const override {
        return next_ < spec_.directives.size();
    }

    // --- introspection (tests) ---
    const ScenarioSpec& spec() const noexcept { return spec_; }
    const std::string& fingerprint() const noexcept { return fingerprint_; }
    /// Directives applied so far (== index of the next one to fire).
    std::size_t applied() const noexcept { return next_; }

    /// The burst applications directive `index` injects, exactly as the
    /// player generates them (scenario-local RNG stream, burst id space).
    /// Exposed so differential tests can hand-drive the same injections.
    std::vector<ApplicationSpec> burst_apps(std::size_t index) const;

private:
    void schedule_next(SimTime when);
    void apply(std::size_t index);
    /// d.cores, or every core id when the directive targets all cores.
    std::vector<CoreId> targets_of(const ScenarioDirective& d) const;

    ScenarioSpec spec_;
    std::string fingerprint_;
    std::uint64_t fingerprint_u64_ = 0;
    ManycoreSystem* sys_ = nullptr;
    double orig_tdp_w_ = 0.0;
    std::size_t next_ = 0;  ///< next unapplied directive
};

/// Convenience: parse `path` and wrap the spec in a player.
std::unique_ptr<ScenarioPlayer> make_scenario_player(
    const std::string& path);

}  // namespace mcs
