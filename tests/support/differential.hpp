#pragma once

// Differential harness for the snapshot subsystem: runs a configuration
// uninterrupted and interrupted-then-restored, capturing the three
// byte-level artifacts the snapshot contract promises to preserve exactly
// (run-report JSON, chrome-trace JSON, metrics-registry state). Tests
// compare the artifact strings with EXPECT_EQ -- any drift is a contract
// violation, not a tolerance question.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/tracer.hpp"
#include "util/require.hpp"

namespace mcs::testsupport {

/// Shared ring capacity: the restored tracer must match the captured one.
inline constexpr std::size_t kTraceCapacity = 1 << 15;

struct RunArtifacts {
    RunMetrics metrics;
    std::string report;    ///< run-report JSON (metrics + registry)
    std::string trace;     ///< chrome-trace JSON of the event ring
    std::string registry;  ///< metrics-registry write_json bytes
};

/// Unique throwaway path under the system temp directory (ctest runs test
/// processes concurrently; the pid + counter keep paths collision-free).
inline std::string unique_temp_path(const std::string& stem) {
    static std::atomic<unsigned> counter{0};
    return (std::filesystem::temp_directory_path() /
            (stem + "." + std::to_string(::getpid()) + "." +
             std::to_string(counter.fetch_add(1)) + ".json"))
        .string();
}

/// Deletes the file on scope exit.
class TempFile {
public:
    explicit TempFile(std::string stem) : path_(unique_temp_path(stem)) {}
    ~TempFile() { std::remove(path_.c_str()); }
    TempFile(const TempFile&) = delete;
    TempFile& operator=(const TempFile&) = delete;
    const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

inline std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    MCS_REQUIRE(in.is_open(), "cannot open file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

inline void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    MCS_REQUIRE(out.is_open(), "cannot open file for writing: " + path);
    out << text;
    MCS_REQUIRE(out.good(), "write failed: " + path);
}

/// Finishes `sys` (which already has `tracer` attached) and captures the
/// three artifacts.
inline RunArtifacts capture(ManycoreSystem& sys, telemetry::Tracer& tracer,
                            SimDuration horizon) {
    RunArtifacts art;
    art.metrics = sys.run(horizon);
    {
        std::ostringstream os;
        telemetry::write_run_report(art.metrics, &sys.registry(), os);
        art.report = os.str();
    }
    {
        std::ostringstream os;
        tracer.write_chrome_json(os);
        art.trace = os.str();
    }
    {
        std::ostringstream os;
        telemetry::JsonWriter w(os);
        sys.registry().write_json(w);
        art.registry = os.str();
    }
    return art;
}

struct CheckpointPlan {
    SimTime at = 0;
    std::string path;
};

/// One full run, optionally writing checkpoints en route. With an empty
/// plan this is the uninterrupted reference.
inline RunArtifacts run_reference(
    const SystemConfig& cfg, SimDuration horizon,
    const std::vector<CheckpointPlan>& checkpoints = {}) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(kTraceCapacity);
    sys.set_tracer(&tracer);
    for (const CheckpointPlan& cp : checkpoints) {
        sys.checkpoint_at(cp.at, cp.path);
    }
    return capture(sys, tracer, horizon);
}

/// Rebuilds a fresh system from `snapshot_path` and finishes the captured
/// run to its own horizon.
inline RunArtifacts run_restored(const SystemConfig& cfg,
                                 const std::string& snapshot_path,
                                 RestoreOptions opts = {}) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(kTraceCapacity);
    sys.set_tracer(&tracer);
    sys.restore(load_snapshot_file(snapshot_path), opts);
    return capture(sys, tracer, sys.restored_horizon());
}

}  // namespace mcs::testsupport
