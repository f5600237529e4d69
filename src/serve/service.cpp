#include "serve/service.hpp"

#include <chrono>
#include <exception>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs::serve {

namespace {

/// Request-latency histogram layout: 0..500 ms in 1 ms bins. Cache hits
/// land in the first bin; cold computations spread across the range (and
/// beyond, into the overflow bucket, for long horizons).
constexpr double kLatencyLoUs = 0.0;
constexpr double kLatencyHiUs = 500'000.0;
constexpr std::size_t kLatencyBins = 500;

double elapsed_us(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

ServeService::ServeService(SnapshotPool pool, ServiceOptions opts,
                           telemetry::MetricsRegistry& registry)
    : pool_(std::make_shared<const SnapshotPool>(std::move(pool))),
      opts_(std::move(opts)),
      cache_(opts_.cache_entries),
      registry_(registry) {
    // Register everything up front so /metrics is fully shaped from the
    // first scrape (counters at 0, not absent).
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.counter("serve.requests");
    registry_.counter("serve.whatif_requests");
    registry_.counter("serve.cache_hits");
    registry_.counter("serve.cache_misses");
    registry_.counter("serve.cache_evictions");
    registry_.counter("serve.negative_cache_hits");
    registry_.counter("serve.cache_preloaded");
    registry_.counter("serve.pool_reloads");
    registry_.counter("serve.pool_reload_failures");
    registry_.counter("serve.queue_rejections");
    registry_.counter("serve.responses_2xx");
    registry_.counter("serve.responses_4xx");
    registry_.counter("serve.responses_5xx");
    registry_.gauge("serve.queue_depth");
    registry_.gauge("serve.queue_depth_peak");
    registry_.gauge("serve.snapshots").set(static_cast<double>(pool_->size()));
    registry_.histogram("serve.latency_us", kLatencyLoUs, kLatencyHiUs,
                        kLatencyBins);
    if (!opts_.cache_file.empty()) {
        const std::size_t n = cache_.load(opts_.cache_file);
        registry_.counter("serve.cache_preloaded").restore(n);
    }
}

std::shared_ptr<const SnapshotPool> ServeService::pool() const {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    return pool_;
}

void ServeService::set_pool_loader(PoolLoader loader) {
    pool_loader_ = std::move(loader);
}

void ServeService::reload() {
    MCS_REQUIRE(pool_loader_ != nullptr,
                "this service has no pool loader (reload unsupported)");
    std::shared_ptr<const SnapshotPool> fresh;
    try {
        fresh = std::make_shared<const SnapshotPool>(pool_loader_());
    } catch (...) {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.counter("serve.pool_reload_failures").inc();
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(pool_mutex_);
        pool_.swap(fresh);
    }
    // `fresh` now holds the old generation; queries that grabbed it keep
    // it alive until they finish (the RCU grace period is the shared_ptr
    // refcount). The cache stays: its keys embed fingerprints, so stale
    // entries can never answer a query against the new pool.
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.counter("serve.pool_reloads").inc();
    registry_.gauge("serve.snapshots").set(static_cast<double>(pool()->size()));
}

void ServeService::save_cache() const {
    if (!opts_.cache_file.empty()) {
        cache_.save(opts_.cache_file);
    }
}

HttpResponse ServeService::handle(const HttpRequest& request) {
    const auto start = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.counter("serve.requests").inc();
    }
    HttpResponse response;
    try {
        if (request.path == "/whatif") {
            response = request.method == "POST"
                           ? handle_whatif(request)
                           : error_response(405, "use POST /whatif");
        } else if (request.path == "/healthz") {
            response = request.method == "GET"
                           ? handle_healthz()
                           : error_response(405, "use GET /healthz");
        } else if (request.path == "/metrics") {
            response = request.method == "GET"
                           ? handle_metrics()
                           : error_response(405, "use GET /metrics");
        } else if (request.path == "/snapshots") {
            response = request.method == "GET"
                           ? handle_snapshots()
                           : error_response(405, "use GET /snapshots");
        } else if (request.path == "/admin/reload") {
            response = request.method == "POST"
                           ? handle_reload()
                           : error_response(405, "use POST /admin/reload");
        } else {
            response = error_response(404, "no route for " + request.path);
        }
    } catch (const RequireError& e) {
        response = error_response(400, e.what());
    } catch (const std::exception& e) {
        response = error_response(500, e.what());
    }
    {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_
            .histogram("serve.latency_us", kLatencyLoUs, kLatencyHiUs,
                       kLatencyBins)
            .add(elapsed_us(start));
    }
    return response;
}

HttpResponse ServeService::handle_whatif(const HttpRequest& request) {
    {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.counter("serve.whatif_requests").inc();
    }
    const WhatIfQuery query = parse_whatif_query(request.body);
    // Pin this query's pool generation: a concurrent reload publishes a
    // new pool without touching this one.
    const std::shared_ptr<const SnapshotPool> pool = this->pool();
    const SnapshotEntry* entry = pool->find(query.snapshot);
    if (entry == nullptr) {
        return error_response(404,
                              "unknown snapshot '" + query.snapshot + "'");
    }
    const std::string key = cache_key(*entry, query);
    std::shared_ptr<const CachedResponse> cached = cache_.find(key);
    const bool hit = cached != nullptr;
    if (!hit) {
        // The simulation runs outside the metrics lock: concurrent
        // queries on different snapshots/overrides proceed in parallel.
        // Deterministic failures (invalid horizon, incompatible override)
        // are answers too: the error envelope is cached under the same
        // canonical key so repeat offenders stop paying the restore. A
        // changed scenario spec is not: its 503 is never cached, so the
        // query answers again once the file is back.
        CachedResponse result;
        bool cacheable = true;
        try {
            result.body = compute_whatif(*entry, query);
        } catch (const ScenarioSpecChanged& e) {
            result.status = 503;
            result.body = error_response(503, e.what()).body;
            cacheable = false;
        } catch (const RequireError& e) {
            result.status = 400;
            result.body = error_response(400, e.what()).body;
        }
        cached = std::make_shared<const CachedResponse>(std::move(result));
        if (cacheable) {
            cache_.insert(key, cached);
        }
    }
    {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        if (!hit) {
            registry_.counter("serve.cache_misses").inc();
        } else if (cached->status == 200) {
            registry_.counter("serve.cache_hits").inc();
        } else {
            registry_.counter("serve.negative_cache_hits").inc();
        }
        registry_.counter("serve.cache_evictions")
            .restore(cache_.evictions());
    }
    HttpResponse response;
    response.status = cached->status;
    response.body = cached->body;
    response.extra_headers.emplace_back("X-Cache", hit ? "hit" : "miss");
    return response;
}

HttpResponse ServeService::handle_healthz() const {
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.field("status", "ok");
    w.field("snapshots", static_cast<std::uint64_t>(pool()->size()));
    w.end_object();
    os << '\n';
    HttpResponse r;
    r.body = os.str();
    return r;
}

HttpResponse ServeService::handle_metrics() {
    std::ostringstream os;
    {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        telemetry::JsonWriter w(os);
        registry_.write_json(w);
    }
    os << '\n';
    HttpResponse r;
    r.body = os.str();
    return r;
}

HttpResponse ServeService::handle_snapshots() const {
    const std::shared_ptr<const SnapshotPool> pool = this->pool();
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.key("snapshots");
    w.begin_array();
    for (const SnapshotEntry& e : pool->entries()) {
        w.begin_object();
        w.field("name", e.name);
        w.field("config_fingerprint", e.config_fingerprint);
        w.field("structural_fingerprint", e.structural_fingerprint);
        w.field("captured_now_s", to_seconds(e.captured_now));
        w.field("captured_horizon_s", to_seconds(e.captured_horizon));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    HttpResponse r;
    r.body = os.str();
    return r;
}

HttpResponse ServeService::handle_reload() {
    if (pool_loader_ == nullptr) {
        return error_response(
            409, "reload unsupported: the pool was built in memory, not "
                 "from configuration");
    }
    try {
        reload();
    } catch (const std::exception& e) {
        return error_response(500, std::string("reload failed (old pool "
                                               "kept): ") +
                                       e.what());
    }
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.field("status", "reloaded");
    w.field("snapshots", static_cast<std::uint64_t>(pool()->size()));
    w.end_object();
    os << '\n';
    HttpResponse r;
    r.body = os.str();
    return r;
}

void ServeService::note_response(int status) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    if (status < 300) {
        registry_.counter("serve.responses_2xx").inc();
    } else if (status < 500) {
        registry_.counter("serve.responses_4xx").inc();
    } else {
        registry_.counter("serve.responses_5xx").inc();
    }
}

void ServeService::note_queue_depth(std::size_t depth) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    const double d = static_cast<double>(depth);
    registry_.gauge("serve.queue_depth").set(d);
    telemetry::Gauge& peak = registry_.gauge("serve.queue_depth_peak");
    if (d > peak.value()) {
        peak.set(d);
    }
}

void ServeService::note_rejected() {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.counter("serve.queue_rejections").inc();
}

}  // namespace mcs::serve
