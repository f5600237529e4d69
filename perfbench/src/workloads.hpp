#pragma once

// The benchmark's three workloads and the runs that measure them. Every
// workload warms one snapshot from a seeded configuration, then, with the
// operations interleaved over the whole run:
//   - times restored windows of that snapshot (set-up, run() per simulated
//     second, and, for the sim workloads, the whole in-process fork), each
//     window's report checked byte for byte against the warm-up run;
//   - serves what-if queries over it through ServeService + HttpServer to
//     one closed-loop keep-alive client (each query's miss, then hits).
// The traced run (--trace 1) repeats all of that untraced, then drives a
// decorated copy of the system from the benchmark's own code and calls the
// set-up and serve stages directly, timing each layer.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/config.hpp"

namespace perfbench {

struct WorkloadSpec {
    std::string name;
    mcs::Config run;           ///< simulator configuration (seed included)
    mcs::SimTime warm = 0;     ///< capture point of the snapshot
    mcs::SimDuration window = 0;  ///< simulated length of every window
    std::size_t panel_size = 0;     ///< distinct forks (0: identity only)
    std::size_t traced_windows = 1;  ///< decorated windows per traced run
    std::size_t traced_forks = 1;    ///< panel forks timed step by step
};

/// The workload `name` with its simulator seed derived from `seed`.
/// `repo_root` locates examples/configs/. Throws RequireError for an
/// unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed,
                           const std::string& repo_root);

struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for the snapshot file and the span dump.
    std::string work_dir;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// False when a check the outputs must pass did not.
    bool correct = true;
    /// End-to-end metrics (trace off), or per-layer metrics (trace on and
    /// the traced run agreed with the untraced one).
    std::vector<Metric> metrics;
};

/// Runs one workload. Progress, sample counts and checks go to stdout.
RunResult run_workload(const WorkloadSpec& spec, const RunOptions& opts);

}  // namespace perfbench
