// mcs_perfbench -- host-performance benchmark of the simulator.
//
//   mcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --repo-root <dir> --work-dir <dir>
//
// Runs one workload (see workloads.hpp and README.md) and prints, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exits 1 when any output check
// failed and 2 on a usage or set-up error (no result line then).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "telemetry/json.hpp"
#include "util/require.hpp"
#include "workloads.hpp"

namespace {

struct Args {
    std::string workload;
    std::string repo_root;
    perfbench::RunOptions run;
};

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        MCS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.run.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.run.seconds = std::stod(value);
            MCS_REQUIRE(args.run.seconds > 0.0, "--seconds must be positive");
            have_seconds = true;
        } else if (flag == "--trace") {
            MCS_REQUIRE(value == "0" || value == "1", "--trace takes 0 or 1");
            args.run.trace = value == "1";
            have_trace = true;
        } else if (flag == "--repo-root") {
            args.repo_root = value;
        } else if (flag == "--work-dir") {
            args.run.work_dir = value;
        } else {
            MCS_REQUIRE(false, "unknown flag " + flag);
        }
    }
    MCS_REQUIRE(!args.workload.empty() && have_seed && have_seconds &&
                    have_trace && !args.repo_root.empty() &&
                    !args.run.work_dir.empty(),
                "usage: mcs_perfbench --workload <name> --seed <n> "
                "--seconds <s> --trace <0|1> --repo-root <dir> "
                "--work-dir <dir>");
    return args;
}

std::string result_json(const perfbench::RunResult& r) {
    using mcs::telemetry::json_escape;
    using mcs::telemetry::json_number;
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric& m = r.metrics[i];
        out += i == 0 ? "" : ", ";
        out += "\"" + json_escape(m.name) + "\": {\"value\": " +
               json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
               "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunResult result;
    try {
        const Args args = parse_args(argc, argv);
        const perfbench::WorkloadSpec spec = perfbench::make_workload(
            args.workload, args.run.seed, args.repo_root);
        result = perfbench::run_workload(spec, args.run);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "mcs_perfbench: %s\n", e.what());
        return 2;
    }
    std::printf("%s\n", result_json(result).c_str());
    return result.correct ? 0 : 1;
}
