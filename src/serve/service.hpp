#pragma once

// The socket-free core of mcs_serve: routes one parsed HttpRequest to a
// response. Keeping this layer free of I/O makes the whole query surface
// unit-testable (tests/test_serve.cpp) and benchable (bench_serve,
// bench_serve_load) in process; serve/server.hpp is only the event loop
// around it.
//
// Routes:
//   POST /whatif        what-if query (mcs.whatif_query.v1 body) ->
//                       mcs.run_report.v1 bytes, served from the result
//                       cache when the canonical key hits (positive and
//                       negative results alike)
//   GET  /healthz       {"status":"ok",...} liveness + pool summary
//   GET  /metrics       the MetricsRegistry as JSON (counters/gauges/
//                       histograms, sorted -- the repo-wide format)
//   GET  /snapshots     pool listing with fingerprints and captured window
//   POST /admin/reload  swap in a freshly loaded SnapshotPool (RCU-style:
//                       in-flight queries finish against the old pool)
//
// Observability (names under "serve."): request/response counters per
// status class, cache hits/misses (positive and negative), reload
// counters, queue depth gauges (fed by the server), and a request-latency
// histogram in microseconds.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_pool.hpp"
#include "telemetry/metrics_registry.hpp"

namespace mcs::serve {

struct ServiceOptions {
    std::size_t cache_entries = 256;
    /// Optional path for result-cache persistence: loaded at construction,
    /// written by save_cache() on graceful shutdown. Safe across restarts
    /// and reloads because keys embed the snapshot fingerprints.
    std::string cache_file;
};

class ServeService {
public:
    /// Rebuilds the SnapshotPool from configuration; invoked by
    /// POST /admin/reload and the daemon's SIGHUP path. Must either return
    /// a fresh pool or throw (the old pool stays live on failure).
    using PoolLoader = std::function<SnapshotPool()>;

    ServeService(SnapshotPool pool, ServiceOptions opts,
                 telemetry::MetricsRegistry& registry);

    /// Handles one request; never throws (failures become 4xx/5xx
    /// responses).
    HttpResponse handle(const HttpRequest& request);

    /// Enables POST /admin/reload and reload(); without a loader the
    /// route answers 409 (a from_document pool has nothing to re-read).
    void set_pool_loader(PoolLoader loader);

    /// Loads a fresh pool via the loader and publishes it atomically.
    /// Readers that already grabbed the old pool finish against it
    /// (RCU-style grace via shared_ptr). Throws on loader failure; the
    /// old pool stays published.
    void reload();

    /// Writes the result cache to opts.cache_file (no-op when unset).
    void save_cache() const;

    /// Server-side hooks: admission-queue telemetry and the response
    /// counters live in the same registry so /metrics shows one coherent
    /// picture. The server calls note_response once for every response it
    /// writes, whoever produced it (handle(), the parser's rejections, the
    /// 429/408/503 paths); handle() itself counts none.
    void note_queue_depth(std::size_t depth);
    void note_rejected();
    void note_response(int status);

    /// The currently published pool (shared: holding the pointer keeps a
    /// reloaded-away generation alive until the last query drops it).
    std::shared_ptr<const SnapshotPool> pool() const;
    ResultCache& cache() noexcept { return cache_; }
    telemetry::MetricsRegistry& registry() noexcept { return registry_; }

private:
    HttpResponse handle_whatif(const HttpRequest& request);
    HttpResponse handle_healthz() const;
    HttpResponse handle_metrics();
    HttpResponse handle_snapshots() const;
    HttpResponse handle_reload();

    mutable std::mutex pool_mutex_;  ///< guards the published pool pointer
    std::shared_ptr<const SnapshotPool> pool_;
    PoolLoader pool_loader_;
    ServiceOptions opts_;
    ResultCache cache_;
    telemetry::MetricsRegistry& registry_;
    /// The registry is single-threaded by design; one mutex serializes
    /// all serve-side updates (the heavy work -- the simulation itself --
    /// runs outside it).
    std::mutex metrics_mutex_;
};

}  // namespace mcs::serve
