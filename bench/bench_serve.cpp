// bench_serve -- the what-if service's latency profile, in process.
//
// Warms one snapshot, then drives ServeService::handle directly (no
// sockets: this measures the query surface, not the kernel's TCP stack)
// with a panel of distinct what-if queries. Every query is answered twice
// over: first cold (cache miss -> restore + simulate) and then hot
// (canonical-key cache hit -> stored bytes). The report separates the two
// populations:
//
//   metrics  -- deterministic counts (queries, hits, misses, byte-identity
//               checks, response bytes), gated by tools/check_bench.py
//   latency  -- wall-clock percentiles per population plus speedup_p50,
//               recorded but never gated (auxiliary section)
//
// The serving claim this regenerates: a cache hit is byte-identical to a
// fresh computation and >= 100x faster at the median.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/config.hpp"

namespace {

using mcs::bench::BenchOptions;
using mcs::bench::BenchReport;

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

mcs::serve::HttpRequest whatif(const std::string& body) {
    mcs::serve::HttpRequest req;
    req.method = "POST";
    req.path = "/whatif";
    req.body = body;
    return req;
}

std::string query_body(const char* scheduler, double tdp_scale) {
    return std::string("{\"schema\":\"mcs.whatif_query.v1\","
                       "\"snapshot\":\"warm\",\"overrides\":{"
                       "\"scheduler\":\"") +
           scheduler + "\",\"tdp_scale\":" +
           mcs::telemetry::json_number(tdp_scale) + "}}";
}

}  // namespace

int main(int argc, char** argv) {
    const BenchOptions opt = mcs::bench::parse_options(argc, argv);
    mcs::bench::print_header(
        "serve: what-if query latency (cold vs cached)",
        "a cached what-if answer is byte-identical to a fresh computation "
        "and >= 100x faster at the median");
    BenchReport report("serve", opt);

    // The warmed snapshot: the differential-baseline chip captured at 40%
    // of its horizon, expressed as Config keys so the serve pool can
    // re-derive the structural fingerprint.
    mcs::Config base;
    base.set("side", opt.quick ? "4" : "8");
    base.set("seed", "42");
    base.set("min_tasks", "2");
    base.set("max_tasks", "6");
    base.set("occupancy", "0.5");
    const mcs::SimDuration horizon =
        mcs::bench::horizon(opt, 2.0, 1.0);
    const std::string snap_path =
        mcs::bench::out_path(opt, "serve_warm_snapshot.json");
    {
        const auto sys = mcs::make_system(base);
        sys->checkpoint_at(horizon * 2 / 5, snap_path);
        sys->run(horizon);
    }

    mcs::telemetry::MetricsRegistry registry;
    mcs::serve::ServeService service(
        mcs::serve::SnapshotPool::from_document(
            "warm", mcs::load_snapshot_file(snap_path), base),
        mcs::serve::ServiceOptions{}, registry);

    // The query panel: the paper's design-space axes (scheduler choice x
    // power budget), each a distinct canonical cache key.
    std::vector<std::string> bodies;
    for (const char* sched : {"power-aware", "greedy"}) {
        for (double tdp : {0.7, 0.85, 1.0}) {
            bodies.push_back(query_body(sched, tdp));
        }
    }
    const int hit_rounds = opt.quick ? 20 : 50;

    using clock = std::chrono::steady_clock;
    std::vector<double> cold_us;
    std::vector<double> hit_us;
    std::vector<std::string> fresh_bodies;
    std::uint64_t response_bytes = 0;
    std::uint64_t byte_mismatches = 0;
    std::uint64_t non_200 = 0;

    for (const std::string& body : bodies) {
        const auto t0 = clock::now();
        const mcs::serve::HttpResponse resp = service.handle(whatif(body));
        cold_us.push_back(
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count());
        if (resp.status != 200) ++non_200;
        response_bytes += resp.body.size();
        fresh_bodies.push_back(resp.body);
    }
    for (int round = 0; round < hit_rounds; ++round) {
        for (std::size_t i = 0; i < bodies.size(); ++i) {
            const auto t0 = clock::now();
            const mcs::serve::HttpResponse resp =
                service.handle(whatif(bodies[i]));
            hit_us.push_back(
                std::chrono::duration<double, std::micro>(clock::now() - t0)
                    .count());
            if (resp.status != 200) ++non_200;
            if (resp.body != fresh_bodies[i]) ++byte_mismatches;
        }
    }

    const double cold_p50 = percentile(cold_us, 0.5);
    const double hit_p50 = percentile(hit_us, 0.5);
    const double speedup = hit_p50 > 0.0 ? cold_p50 / hit_p50 : 0.0;

    mcs::TablePrinter table(
        {"population", "n", "p50_us", "p90_us", "p99_us", "max_us"});
    table.add_row({"cold", mcs::fmt(std::int64_t(cold_us.size())),
                   mcs::fmt(percentile(cold_us, 0.5)),
                   mcs::fmt(percentile(cold_us, 0.9)),
                   mcs::fmt(percentile(cold_us, 0.99)),
                   mcs::fmt(*std::max_element(cold_us.begin(),
                                              cold_us.end()))});
    table.add_row({"cache-hit", mcs::fmt(std::int64_t(hit_us.size())),
                   mcs::fmt(percentile(hit_us, 0.5)),
                   mcs::fmt(percentile(hit_us, 0.9)),
                   mcs::fmt(percentile(hit_us, 0.99)),
                   mcs::fmt(*std::max_element(hit_us.begin(),
                                              hit_us.end()))});
    std::fputs(table.to_string().c_str(), stdout);
    std::printf("\nspeedup p50 (cold/hit): %.1fx   byte mismatches: %llu\n",
                speedup,
                static_cast<unsigned long long>(byte_mismatches));

    // Deterministic counts -> gated; wall-clock percentiles -> auxiliary.
    report.metric("queries", static_cast<double>(bodies.size()));
    report.metric("hit_samples", static_cast<double>(hit_us.size()));
    report.metric("byte_mismatches", static_cast<double>(byte_mismatches));
    report.metric("non_200_responses", static_cast<double>(non_200));
    report.metric("response_bytes", static_cast<double>(response_bytes));
    report.aux("latency", "cold_p50_us", cold_p50);
    report.aux("latency", "cold_p90_us", percentile(cold_us, 0.9));
    report.aux("latency", "cold_p99_us", percentile(cold_us, 0.99));
    report.aux("latency", "hit_p50_us", hit_p50);
    report.aux("latency", "hit_p90_us", percentile(hit_us, 0.9));
    report.aux("latency", "hit_p99_us", percentile(hit_us, 0.99));
    report.aux("latency", "speedup_p50", speedup);
    report.write();

    if (byte_mismatches != 0 || non_200 != 0) {
        std::fprintf(stderr, "bench_serve: FAILED byte-identity check\n");
        return 1;
    }
    if (speedup < 100.0) {
        std::fprintf(stderr,
                     "bench_serve: cache-hit p50 speedup %.1fx is below "
                     "the 100x acceptance threshold\n",
                     speedup);
        return 1;
    }
    return 0;
}
