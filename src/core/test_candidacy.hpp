#pragma once

#include <cstdint>
#include <vector>

#include "arch/chip.hpp"

namespace mcs {

/// Journal-patched view of the test-candidate set
///
///   member(i) := !reserved[i] && (state[i] == Idle || state[i] == Dark)
///
/// so a test epoch need not rescan the whole chip. The post-abort retry
/// backoff is the one clock-dependent term of candidacy;
/// TestEngine::test_epoch applies it while it builds candidates, so this
/// view reads no clock.
///
/// Equivalence argument: reserved[i] and state[i] are written only by Core
/// methods (transition, set_reserved, mark_faulty, load_state), each of
/// which notes the core in the chip's membership journal.
/// Re-applying the predicate to exactly the journaled cores therefore
/// keeps the member set equal to a full rescan. A full rescan runs only
/// after invalidate() (construction and snapshot restore); the
/// rescans()/patches() counters witness that steady-state epochs run on
/// journal patches alone.
///
/// Members are kept sorted by core id, the order a full rescan produces.
class TestCandidacyView {
public:
    /// Binds the view to `chip` (the single consumer of its membership
    /// journal). The chip must outlive the view.
    void bind(Chip& chip);

    /// Forces a full rescan at the next members() call (snapshot restore,
    /// anything that mutates state without the journal).
    void invalidate() noexcept { valid_ = false; }

    /// The current members, sorted by id.
    const std::vector<CoreId>& members();

    std::uint64_t rescans() const noexcept { return rescans_; }
    std::uint64_t patches() const noexcept { return patches_; }

private:
    bool member(CoreId id) const;

    Chip* chip_ = nullptr;
    bool valid_ = false;
    std::vector<CoreId> members_;  ///< sorted by id

    std::uint64_t rescans_ = 0;
    std::uint64_t patches_ = 0;
};

}  // namespace mcs
