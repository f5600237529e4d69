#include "core/test_candidacy.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

void TestCandidacyView::bind(Chip& chip) {
    chip_ = &chip;
    members_.clear();
    valid_ = false;
}

bool TestCandidacyView::member(CoreId id) const {
    const Core& c = chip_->cores()[id];
    return !c.reserved() &&
           (c.state() == CoreState::Idle || c.state() == CoreState::Dark);
}

const std::vector<CoreId>& TestCandidacyView::members() {
    MCS_REQUIRE(chip_ != nullptr, "candidacy view used before bind");
    MembershipJournal& journal = chip_->journal();
    if (!valid_) {
        ++rescans_;
        members_.clear();
        for (const Core& c : chip_->cores()) {
            if (member(c.id())) {
                members_.push_back(c.id());
            }
        }
        valid_ = true;
    } else {
        // Drain the membership journal: re-apply the predicate to exactly
        // the cores whose state or reservation changed since the last call.
        for (CoreId id : journal.noted()) {
            ++patches_;
            const auto it =
                std::lower_bound(members_.begin(), members_.end(), id);
            const bool present = it != members_.end() && *it == id;
            if (member(id) != present) {
                if (present) {
                    members_.erase(it);
                } else {
                    members_.insert(it, id);
                }
            }
        }
    }
    journal.clear();
    return members_;
}

}  // namespace mcs
