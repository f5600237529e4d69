// mcs_sim -- command-line driver for the manycore online-test simulator.
//
// Single-run usage:
//   mcs_sim [key=value ...]
//   mcs_sim config=run.cfg [key=value overrides ...]
//
// Keys: see core/config_bridge.hpp. Driver-specific keys:
//   seconds=<double>    simulation horizon (default 10)
//   out=<path>          write a (metric,value) CSV report
//   report=<path>       write the RunReport JSON (metrics + registry)
//   trace=<path>        write the event trace (*.jsonl -> JSONL, anything
//                       else -> Chrome-trace JSON for chrome://tracing)
//   trace_capacity=<n>  event-trace ring capacity (default 65536)
//   power_trace=<path>  write the 5 ms power/state trace as CSV
//   out_dir=<dir>       directory for relative output paths (default
//                       build/out; created on demand; "" or "." = cwd)
//   quiet=true          suppress the human-readable summary
//   checkpoint=<path>   write an mcs.snapshot document mid-run ...
//   checkpoint_at=<s>   ... at this time (a power-epoch boundary)
//   restore=<path>      rebuild the system from a snapshot and continue;
//                       without seconds= the captured horizon is used
//   restore_relax=true  allow policy-knob changes vs the captured config
//                       (structure must still match); see docs/checkpoint.md
//
// Campaign usage (runner/sweep_spec.hpp format; any run config is a valid
// single-cell spec):
//   mcs_sim --sweep spec.cfg [--jobs N] [key=value overrides ...]
// Sweep-mode keys (also valid inside the spec file):
//   replicas=<int>         seed replicates per grid cell (default 1)
//   campaign_seed=<int>    root of all replica RNG streams (default 42)
//   jobs=<int>             worker threads (0 = hardware concurrency)
//   out=<path>             aggregate CSV (mean/stddev/ci95 per cell)
//   replica_out=<path>     per-replica CSV
//   report=<path>          aggregate campaign report JSON
//   out_dir=<dir>          as in single-run mode (default build/out)
// The aggregate CSV/JSON bytes are bit-identical for every --jobs value
// (docs/sweeps.md).
// Exit status is nonzero if any replica failed.
//
// NOTE: in both modes, RELATIVE output paths land under out_dir -- by
// default `out=sweep.csv` writes build/out/sweep.csv, not ./sweep.csv.
// Pass out_dir=. (or --out-dir .) to write into the current directory.
//
// Examples:
//   mcs_sim occupancy=0.9 scheduler=power-aware seconds=20 out=run.csv
//   mcs_sim occupancy=0.9 --trace run.trace.json --report run.report.json
//   mcs_sim --sweep examples/configs/e1_sweep.cfg --jobs 8 out=sweep.csv

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/result_sink.hpp"
#include "scenario/scenario_runner.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/tracer.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"

using namespace mcs;

namespace {

/// Rewrites "--flag value" pairs into the key=value form the Config parser
/// consumes; all other tokens pass through untouched.
std::vector<std::string> normalize_args(int argc, char** argv) {
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out-dir" && i + 1 < argc) {
            out.push_back(std::string("out_dir=") + argv[++i]);
        } else if ((arg == "--sweep" || arg == "--jobs" || arg == "--trace" ||
                    arg == "--report" || arg == "--out") &&
                   i + 1 < argc) {
            out.push_back(arg.substr(2) + "=" + argv[++i]);
        } else {
            out.push_back(arg);
        }
    }
    return out;
}

/// Routes a relative output path through out_dir (creating it on demand);
/// absolute paths and empty paths pass through untouched.
std::string resolve_out(const std::string& out_dir, const std::string& path) {
    if (path.empty() || out_dir.empty() || out_dir == ".") {
        return path;
    }
    const std::filesystem::path p(path);
    if (p.is_absolute()) {
        return path;
    }
    std::filesystem::create_directories(out_dir);
    return (std::filesystem::path(out_dir) / p).string();
}

/// Writes the event trace; the format follows the file extension
/// (*.jsonl -> JSONL, anything else -> Chrome-trace JSON).
void write_trace_file(const telemetry::Tracer& tracer,
                      const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    MCS_REQUIRE(out.is_open(), "cannot open trace file: " + path);
    if (path.size() >= 6 && path.ends_with(".jsonl")) {
        tracer.write_jsonl(out);
    } else {
        tracer.write_chrome_json(out);
    }
    MCS_REQUIRE(out.good(), "write failed: " + path);
}

int run_sweep(const Config& args) {
    const std::string spec_path = args.get_string("sweep", "");
    Config merged = Config::from_file(spec_path);
    merged.merge(args);  // command line wins
    const int jobs = merged.get_int_as<int>("jobs", 0);
    const std::string out_dir = merged.get_string("out_dir", "build/out");
    const std::string out = resolve_out(out_dir, merged.get_string("out", ""));
    const std::string replica_out =
        resolve_out(out_dir, merged.get_string("replica_out", ""));
    const std::string report =
        resolve_out(out_dir, merged.get_string("report", ""));
    const bool quiet = merged.get_bool("quiet", false);
    // CLI-only keys the replica config must not see. Checkpoint keys are
    // stripped too: parallel replicas writing one snapshot path would race
    // (restore/restore_relax DO pass through -- fork-from-checkpoint).
    Config spec_cfg;
    for (const auto& [key, value] : merged.entries()) {
        if (key != "out" && key != "replica_out" && key != "trace" &&
            key != "trace_capacity" && key != "power_trace" &&
            key != "report" && key != "out_dir" && key != "quiet" &&
            key != "config" && key != "checkpoint" &&
            key != "checkpoint_at") {
            spec_cfg.set(key, value);
        }
    }

    CampaignSpec spec = CampaignSpec::from_config(spec_cfg);
    CampaignRunner runner(std::move(spec));
    if (!quiet) {
        std::printf("mcs_sim: sweep %s | %zu cells x %d replicas = %zu "
                    "runs | %.1f s horizon\n",
                    spec_path.c_str(), runner.spec().cell_count(),
                    runner.spec().replicas, runner.spec().replica_count(),
                    runner.spec().seconds);
        runner.set_progress([](std::size_t done, std::size_t total) {
            std::fprintf(stderr, "\r[%zu/%zu]", done, total);
            if (done == total) {
                std::fprintf(stderr, "\n");
            }
        });
    }

    const CampaignResult result = runner.run(jobs);
    if (!quiet) {
        std::printf("%s\n", format_campaign_summary(result).c_str());
        std::printf("%zu/%zu replicas ok in %.2f s wall\n",
                    result.ok_count(), result.replicas.size(),
                    result.wall_seconds);
    }
    if (!out.empty()) {
        write_campaign_csv(result, out);
        if (!quiet) {
            std::printf("aggregate CSV written to %s\n", out.c_str());
        }
    }
    if (!replica_out.empty()) {
        write_replica_csv(result, replica_out);
        if (!quiet) {
            std::printf("replica CSV written to %s\n", replica_out.c_str());
        }
    }
    if (!report.empty()) {
        write_campaign_report_json(result, report);
        if (!quiet) {
            std::printf("campaign report written to %s\n", report.c_str());
        }
    }
    return result.failed_count() == 0 ? 0 : 1;
}

int run_single(const Config& args) {
    const double seconds = args.get_double("seconds", 10.0);
    const std::string out_dir = args.get_string("out_dir", "build/out");
    const std::string out = resolve_out(out_dir, args.get_string("out", ""));
    const std::string trace =
        resolve_out(out_dir, args.get_string("trace", ""));
    const std::string report =
        resolve_out(out_dir, args.get_string("report", ""));
    const std::string power_trace =
        resolve_out(out_dir, args.get_string("power_trace", ""));
    const auto trace_capacity = args.get_int_as<std::size_t>(
        "trace_capacity", telemetry::Tracer::kDefaultCapacity);
    const bool quiet = args.get_bool("quiet", false);

    std::optional<telemetry::Tracer> tracer;
    if (!trace.empty()) {
        tracer.emplace(trace_capacity);
    }
    // Restores before the checkpoint below is registered.
    const std::unique_ptr<ManycoreSystem> built =
        make_system(args, tracer ? &*tracer : nullptr);
    ManycoreSystem& sys = *built;
    const SystemConfig& cfg = sys.config();
    if (!quiet) {
        std::printf("mcs_sim: %dx%d @ %s | scheduler %s | mapper %s | "
                    "%.1f apps/s | %.1f s\n\n",
                    cfg.width, cfg.height, to_string(cfg.node),
                    to_string(cfg.scheduler), to_string(cfg.mapper),
                    cfg.workload.arrival_rate_hz, seconds);
    }
    const SimDuration horizon = run_horizon(args, sys, 10.0);
    const std::string checkpoint =
        resolve_out(out_dir, args.get_string("checkpoint", ""));
    if (!checkpoint.empty()) {
        MCS_REQUIRE(args.has("checkpoint_at"),
                    "checkpoint requires checkpoint_at=<seconds>");
        sys.checkpoint_at(from_seconds(args.get_double("checkpoint_at", 0)),
                          checkpoint);
    } else {
        MCS_REQUIRE(!args.has("checkpoint_at"),
                    "checkpoint_at requires checkpoint=<path>");
    }
    std::optional<CsvWriter> trace_csv;
    if (!power_trace.empty()) {
        trace_csv.emplace(
            power_trace,
            std::vector<std::string>{"t_s", "workload_w", "test_w",
                                     "other_w", "total_w", "tdp_w",
                                     "busy", "testing", "dark",
                                     "max_temp_c"});
        sys.set_trace_sink([&](const TraceSample& s) {
            trace_csv->write_row(std::vector<double>{
                to_seconds(s.time), s.workload_power_w, s.test_power_w,
                s.other_power_w, s.total_power_w, s.tdp_w,
                static_cast<double>(s.cores_busy),
                static_cast<double>(s.cores_testing),
                static_cast<double>(s.cores_dark), s.max_temp_c});
        });
    }

    const RunMetrics m = sys.run(horizon);
    if (!quiet) {
        std::printf("%s", format_metrics(m).c_str());
    }
    if (!out.empty()) {
        write_metrics_csv(m, out);
        if (!quiet) {
            std::printf("\nmetrics written to %s\n", out.c_str());
        }
    }
    if (!report.empty()) {
        telemetry::write_run_report_file(m, &sys.registry(), report);
        if (!quiet) {
            std::printf("run report written to %s\n", report.c_str());
        }
    }
    if (tracer) {
        write_trace_file(*tracer, trace);
        if (!quiet) {
            std::printf("event trace written to %s (%zu events, %llu "
                        "dropped)\n",
                        trace.c_str(), tracer->size(),
                        static_cast<unsigned long long>(tracer->dropped()));
        }
    }
    if (trace_csv && !quiet) {
        std::printf("power trace written to %s (%zu samples)\n",
                    power_trace.c_str(), trace_csv->rows_written());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const std::vector<std::string> tokens = normalize_args(argc, argv);
        std::vector<const char*> raw;
        raw.reserve(tokens.size());
        for (const std::string& t : tokens) {
            raw.push_back(t.c_str());
        }
        Config args = Config::from_args(
            std::span<const char* const>(raw.data(), raw.size()));
        if (args.has("sweep")) {
            return run_sweep(args);
        }
        if (args.has("config")) {
            Config file = Config::from_file(args.get_string("config", ""));
            file.merge(args);  // command line wins
            args = std::move(file);
        }
        return run_single(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mcs_sim: error: %s\n", e.what());
        return 1;
    }
}
