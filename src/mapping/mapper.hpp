#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "arch/core.hpp"
#include "util/rng.hpp"

namespace mcs {

/// Read-only snapshot of the platform the mapper decides over. Spans are
/// indexed by row-major CoreId and must all have width*height entries.
struct PlatformView {
    int width = 0;
    int height = 0;
    /// Core may be allocated to a new application (idle or dark, unreserved,
    /// not faulty; testing cores appear here only when test abortion is on).
    /// Nonzero = allocatable (uint8 rather than bool so callers can expose
    /// contiguous storage as a span).
    std::span<const std::uint8_t> allocatable;
    /// Lifetime busy fraction in [0,1].
    std::span<const double> utilization;
    /// Test-criticality metric (see aging/criticality.hpp).
    std::span<const double> criticality;
    /// Nonzero = core is currently running an SBST session. Only populated
    /// (and only meaningful) when such cores are also allocatable: claiming
    /// one aborts its test, so test-aware mappers treat them as expensive.
    std::span<const std::uint8_t> testing;
    /// Core temperatures in Celsius (may be empty when thermal awareness is
    /// unused).
    std::span<const double> temperature_c;

    std::size_t core_count() const noexcept {
        return static_cast<std::size_t>(width) *
               static_cast<std::size_t>(height);
    }
    int x_of(CoreId id) const noexcept { return static_cast<int>(id) % width; }
    int y_of(CoreId id) const noexcept { return static_cast<int>(id) / width; }
};

struct MapRequest {
    std::uint64_t app_id = 0;
    std::size_t core_count = 0;
};

struct MappingResult {
    CoreId first_node = kInvalidCore;
    std::vector<CoreId> cores;  ///< core for task i at index i
};

/// Runtime mapping strategy interface. Returns std::nullopt when the
/// request cannot be satisfied (the caller keeps the application queued).
class Mapper {
public:
    virtual ~Mapper() = default;
    virtual std::optional<MappingResult> map(const MapRequest& request,
                                             const PlatformView& view,
                                             Rng& rng) = 0;
    virtual std::string_view name() const = 0;
};

/// Checks what every mapper relies on: positive dimensions, an
/// `allocatable` mask with one entry per core, every other span empty or
/// one entry per core, and a request for at least one core. Throws
/// RequireError.
void validate(const MapRequest& request, const PlatformView& view);

/// Average Manhattan distance between all pairs of allocated cores — the
/// standard mapping-dispersion figure (lower = more contiguous = less NoC
/// congestion).
double mapping_dispersion(const PlatformView& view,
                          std::span<const CoreId> cores);

}  // namespace mcs
