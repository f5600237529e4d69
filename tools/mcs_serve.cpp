// mcs_serve -- resident what-if simulation service over warmed snapshots.
//
// Loads a pool of mcs.snapshot documents into memory at startup and
// answers what-if queries ("this snapshot, scheduler=X, budget=Y,
// horizon=Z") over a minimal HTTP/1.1 + JSON API (keep-alive and
// pipelining included), with a result cache keyed so a hit is
// byte-identical to a fresh computation. See docs/serving.md for the API
// and query grammar.
//
// Usage:
//   mcs_serve snapshot.<name>=<snapshot.json> [snapshot.<name>.config=<cfg>]
//             [run keys shared by all snapshots] [server keys]
//   mcs_serve config=serve.cfg [overrides ...]
//
// Server keys:
//   port=<int>          listen port (default 8077; 0 = ephemeral)
//   listen=<addr>       listen address (default 127.0.0.1)
//   workers=<int>       worker threads (0 = hardware concurrency)
//   queue=<int>         admission queue bound; overflow answers
//                       429 + Retry-After (default 64)
//   cache_entries=<int> result-cache capacity (default 256; 0 disables)
//   cache_file=<path>   persist the result cache: loaded at startup,
//                       written on graceful shutdown
//   max_body_kib=<int>  request body limit in KiB (default 1024)
//   idle_timeout_ms=<int>  idle / partial-request timeout; expiry answers
//                       408 + Connection: close (default 10000; 0 = off)
//   max_requests_per_conn=<int>  keep-alive request cap per connection
//                       (default 1000)
//   quiet=true          suppress the startup banner
// Every other key is part of the shared base run configuration
// (core/config_bridge.hpp grammar) that each snapshot's config file
// overrides.
//
// Signals: SIGTERM / SIGINT begin a graceful drain -- stop accepting,
// finish dispatched requests, answer 503 + Connection: close on every
// other connection, exit 0. SIGHUP hot-reloads the snapshot pool from the
// same configuration (RCU swap; in-flight queries finish against the old
// pool), equivalent to POST /admin/reload.
//
// Example:
//   mcs_sim seconds=2 occupancy=0.7 checkpoint_at=1 checkpoint=warm.json
//   mcs_serve snapshot.warm=build/out/warm.json occupancy=0.7 seconds=2
//             port=8077   (one line)
//   curl -s -X POST http://127.0.0.1:8077/whatif -d '{
//     "schema":"mcs.whatif_query.v1","snapshot":"warm",
//     "overrides":{"scheduler":"greedy","tdp_scale":0.8}}'

#include <csignal>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/config.hpp"
#include "util/require.hpp"

namespace {

mcs::serve::HttpServer* g_server = nullptr;

void handle_signal(int sig) {
    if (g_server == nullptr) {
        return;
    }
    if (sig == SIGHUP) {
        g_server->request_reload();  // async-signal-safe (one pipe write)
    } else {
        g_server->stop();
    }
}

/// Keys consumed by the daemon itself; everything else is run config.
bool is_server_key(const std::string& key) {
    return key == "port" || key == "listen" || key == "workers" ||
           key == "queue" || key == "cache_entries" ||
           key == "cache_file" || key == "max_body_kib" ||
           key == "idle_timeout_ms" || key == "max_requests_per_conn" ||
           key == "quiet" || key == "config" ||
           key.rfind("snapshot.", 0) == 0;
}

int serve_main(int argc, char** argv) {
    std::vector<const char*> raw(argv + 1, argv + argc);
    mcs::Config args = mcs::Config::from_args(
        std::span<const char* const>(raw.data(), raw.size()));
    if (args.has("config")) {
        mcs::Config file =
            mcs::Config::from_file(args.get_string("config", ""));
        file.merge(args);  // command line wins
        args = std::move(file);
    }

    mcs::Config base_run;
    for (const auto& [key, value] : args.entries()) {
        if (!is_server_key(key)) {
            base_run.set(key, value);
        }
    }

    mcs::serve::ServerOptions opts;
    opts.listen = args.get_string("listen", "127.0.0.1");
    opts.port = args.get_int_as<int>("port", 8077);
    opts.workers = args.get_int_as<int>("workers", 0);
    opts.queue_limit = args.get_int_as<std::size_t>("queue", 64);
    opts.idle_timeout_ms = args.get_int_as<int>("idle_timeout_ms", 10'000);
    opts.max_requests_per_conn =
        args.get_int_as<int>("max_requests_per_conn", 1000);
    const auto body_kib = args.get_int_as<std::size_t>("max_body_kib", 1024);
    MCS_REQUIRE(body_kib <= std::numeric_limits<std::size_t>::max() / 1024,
                "config key 'max_body_kib' is out of range");
    opts.http.max_body_bytes = body_kib * 1024;
    opts.quiet = args.get_bool("quiet", false);

    mcs::serve::ServiceOptions service_opts;
    service_opts.cache_entries =
        args.get_int_as<std::size_t>("cache_entries", 256);
    service_opts.cache_file = args.get_string("cache_file", "");

    mcs::telemetry::MetricsRegistry registry;
    mcs::serve::ServeService service(
        mcs::serve::SnapshotPool::load(args, base_run), service_opts,
        registry);
    // SIGHUP / POST /admin/reload re-run the exact startup load: same
    // snapshot.* keys, same base run config, freshly read files.
    service.set_pool_loader([args, base_run] {
        return mcs::serve::SnapshotPool::load(args, base_run);
    });
    mcs::serve::HttpServer server(service, opts);
    g_server = &server;

    struct sigaction sa {};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGHUP, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    if (!opts.quiet) {
        std::printf("mcs_serve: %zu snapshot(s) warmed | listening on "
                    "%s:%d | %d workers, queue %zu, cache %zu\n",
                    service.pool()->size(), opts.listen.c_str(),
                    server.port(), server.worker_count(),
                    opts.queue_limit, service_opts.cache_entries);
        for (const auto& e : service.pool()->entries()) {
            std::printf("  snapshot %-16s %s (captured %.3f s of %.3f s)\n",
                        e.name.c_str(), e.path.c_str(),
                        mcs::to_seconds(e.captured_now),
                        mcs::to_seconds(e.captured_horizon));
        }
        std::fflush(stdout);
    }

    server.run();  // blocks until SIGTERM/SIGINT, then drains
    g_server = nullptr;
    service.save_cache();  // persist the result cache (cache_file=)
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return serve_main(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mcs_serve: error: %s\n", e.what());
        return 1;
    }
}
