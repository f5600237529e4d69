#pragma once

// The seeded what-if query panel: distinct forks of one snapshot over the
// scheduler, mapper, power budget (tdp_scale) and guard band. The panel is
// stratified: every block of 30 consecutive draws covers each of the
// 5 schedulers x 6 mappers once, so panels of different seeds mix cheap
// and expensive policies in the same proportions; the seed draws the
// budget and guard band of each fork and the order they are asked in.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request body (mcs.whatif_query.v1) of every query, in asking order.
/// A pure function of its arguments; all bodies are distinct.
std::vector<std::string> make_panel(std::uint64_t seed, std::size_t size,
                                    const std::string& snapshot);

/// Body of the query that forks nothing: the snapshot's captured run.
std::string identity_query(const std::string& snapshot);

/// The HTTP/1.1 keep-alive request carrying `body` to POST /whatif.
std::string whatif_wire(const std::string& body);

}  // namespace perfbench
