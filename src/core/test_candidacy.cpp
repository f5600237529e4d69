#include "core/test_candidacy.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

void TestCandidacyView::bind(CoreLanes* lanes) {
    MCS_REQUIRE(lanes != nullptr, "candidacy view needs lanes");
    lanes_ = lanes;
    members_.clear();
    valid_ = false;
}

bool TestCandidacyView::member(CoreId id) const {
    const CoreState s = lanes_->state[id];
    return lanes_->reserved[id] == 0 &&
           (s == CoreState::Idle || s == CoreState::Dark);
}

const std::vector<CoreId>& TestCandidacyView::members() {
    MCS_REQUIRE(lanes_ != nullptr, "candidacy view used before bind");
    if (!valid_) {
        ++rescans_;
        members_.clear();
        for (CoreId id = 0; id < lanes_->size(); ++id) {
            if (member(id)) {
                members_.push_back(id);
            }
        }
        valid_ = true;
    } else {
        // Drain the membership journal: re-apply the predicate to exactly
        // the cores whose state or reservation changed since the last call.
        for (CoreId id : lanes_->dirty()) {
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
    lanes_->clear_dirty();
    return members_;
}

}  // namespace mcs
