#include "arch/chip.hpp"

#include <cstdlib>

#include "util/require.hpp"

namespace mcs {

Chip::Chip(int width, int height, TechNode node)
    : Chip(width, height, technology(node)) {}

Chip::Chip(int width, int height, TechnologyParams params)
    : width_(width), height_(height), tech_(std::move(params)) {
    MCS_REQUIRE(width_ > 0 && height_ > 0, "chip dimensions must be positive");
    vf_table_ = build_vf_table(tech_);
    const std::size_t n = static_cast<std::size_t>(width_) *
                          static_cast<std::size_t>(height_);
    cores_.reserve(n);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            cores_.emplace_back(static_cast<CoreId>(y * width_ + x), x, y,
                                &vf_table_);
        }
    }
}

Core& Chip::core(CoreId id) {
    MCS_REQUIRE(id < cores_.size(), "core id out of range");
    return cores_[id];
}

const Core& Chip::core(CoreId id) const {
    MCS_REQUIRE(id < cores_.size(), "core id out of range");
    return cores_[id];
}

Core& Chip::core_at(int x, int y) {
    return core(id_of(x, y));
}

const Core& Chip::core_at(int x, int y) const {
    return core(id_of(x, y));
}

CoreId Chip::id_of(int x, int y) const {
    MCS_REQUIRE(contains(x, y), "coordinates outside chip");
    return static_cast<CoreId>(y * width_ + x);
}

int Chip::distance(CoreId a, CoreId b) const {
    MCS_REQUIRE(a < cores_.size() && b < cores_.size(),
                "core id out of range");
    return std::abs(x_of(a) - x_of(b)) + std::abs(y_of(a) - y_of(b));
}

std::vector<CoreId> Chip::neighbors(CoreId id) const {
    MCS_REQUIRE(id < cores_.size(), "core id out of range");
    const int x = x_of(id);
    const int y = y_of(id);
    std::vector<CoreId> out;
    out.reserve(4);
    if (contains(x - 1, y)) out.push_back(id_of(x - 1, y));
    if (contains(x + 1, y)) out.push_back(id_of(x + 1, y));
    if (contains(x, y - 1)) out.push_back(id_of(x, y - 1));
    if (contains(x, y + 1)) out.push_back(id_of(x, y + 1));
    return out;
}

void Chip::checkpoint_all(SimTime now) {
    for (auto& c : cores_) {
        c.checkpoint(now);
    }
}

}  // namespace mcs
