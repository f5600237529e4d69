#pragma once

#include <vector>

#include "arch/core.hpp"
#include "arch/technology.hpp"

namespace mcs {

/// A manycore chip: a width x height grid of cores sharing one technology
/// node and one DVFS table. Core ids are row-major: id = y * width + x.
class Chip {
public:
    Chip(int width, int height, TechNode node);
    Chip(int width, int height, TechnologyParams params);

    Chip(const Chip&) = delete;
    Chip& operator=(const Chip&) = delete;

    int width() const noexcept { return width_; }
    int height() const noexcept { return height_; }
    std::size_t core_count() const noexcept { return cores_.size(); }

    Core& core(CoreId id);
    const Core& core(CoreId id) const;
    Core& core_at(int x, int y);
    const Core& core_at(int x, int y) const;

    CoreId id_of(int x, int y) const;
    int x_of(CoreId id) const noexcept { return static_cast<int>(id) % width_; }
    int y_of(CoreId id) const noexcept { return static_cast<int>(id) / width_; }
    bool contains(int x, int y) const noexcept {
        return x >= 0 && x < width_ && y >= 0 && y < height_;
    }

    /// Manhattan distance between two cores.
    int distance(CoreId a, CoreId b) const;

    /// Mesh neighbors (2..4 cores).
    std::vector<CoreId> neighbors(CoreId id) const;

    const TechnologyParams& tech() const noexcept { return tech_; }
    const std::vector<VfLevel>& vf_table() const noexcept { return vf_table_; }
    std::size_t vf_level_count() const noexcept { return vf_table_.size(); }
    int max_vf_level() const noexcept {
        return static_cast<int>(vf_table_.size()) - 1;
    }

    /// Chip power budget (TDP) from the technology's dark-silicon fraction.
    double tdp_w() const { return tech_.chip_tdp_w(core_count()); }

    /// Checkpoints every core's accounting to `now`.
    void checkpoint_all(SimTime now);

    std::vector<Core>& cores() noexcept { return cores_; }
    const std::vector<Core>& cores() const noexcept { return cores_; }

private:
    int width_;
    int height_;
    TechnologyParams tech_;
    std::vector<VfLevel> vf_table_;
    std::vector<Core> cores_;
};

}  // namespace mcs
