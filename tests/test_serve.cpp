// Unit tests for the mcs_serve query surface: the hardened HTTP parser
// (including keep-alive pipelining), query canonicalization (the
// soundness contract of the result cache), snapshot-pool fingerprint
// validation, the LRU result cache (positive and negative entries,
// persistence), hot reload (RCU pool swap), and -- the headline property
// -- that a cached what-if response is byte-identical to a fresh
// computation, over a real socket as much as in process.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/config_bridge.hpp"
#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_pool.hpp"
#include "support/differential.hpp"
#include "support/mutation.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_report.hpp"
#include "util/config.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

using serve::CachedResponse;
using serve::HttpLimits;
using serve::HttpRequest;
using serve::HttpRequestParser;
using serve::HttpResponse;
using testsupport::TempFile;

// ---------------------------------------------------------------- HTTP --

HttpRequestParser::State feed_all(HttpRequestParser& p,
                                  std::string_view text) {
    // Feed byte-by-byte: exercises the incremental path sockets produce.
    HttpRequestParser::State s = p.state();
    for (char c : text) {
        s = p.feed(std::string_view(&c, 1));
        if (s != HttpRequestParser::State::NeedMore) break;
    }
    return s;
}

TEST(HttpParser, ParsesPostWithBody) {
    HttpRequestParser p;
    const std::string raw =
        "POST /whatif?x=1 HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: 4\r\n"
        "\r\n"
        "{\"\"}";
    ASSERT_EQ(feed_all(p, raw), HttpRequestParser::State::Done);
    const HttpRequest& r = p.request();
    EXPECT_EQ(r.method, "POST");
    EXPECT_EQ(r.path, "/whatif");
    EXPECT_EQ(r.query, "x=1");
    EXPECT_EQ(r.version, "HTTP/1.1");
    EXPECT_EQ(r.headers.at("content-type"), "application/json");
    EXPECT_EQ(r.body, "{\"\"}");
}

TEST(HttpParser, ParsesGetWithoutBody) {
    HttpRequestParser p;
    ASSERT_EQ(p.feed("GET /healthz HTTP/1.1\r\n\r\n"),
              HttpRequestParser::State::Done);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().path, "/healthz");
    EXPECT_TRUE(p.request().body.empty());
}

TEST(HttpParser, RejectsMalformedRequestLine) {
    HttpRequestParser p;
    ASSERT_EQ(p.feed("NONSENSE\r\n\r\n"), HttpRequestParser::State::Error);
    EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParser, RejectsOversizedHead) {
    HttpLimits limits;
    limits.max_head_bytes = 64;
    HttpRequestParser p(limits);
    const std::string raw = "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n";
    ASSERT_EQ(p.feed(raw), HttpRequestParser::State::Error);
    EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParser, RejectsTooManyHeaders) {
    HttpLimits limits;
    limits.max_headers = 2;
    HttpRequestParser p(limits);
    const std::string raw =
        "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
    ASSERT_EQ(p.feed(raw), HttpRequestParser::State::Error);
    EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParser, RejectsOversizedBody) {
    HttpLimits limits;
    limits.max_body_bytes = 8;
    HttpRequestParser p(limits);
    const std::string raw =
        "POST /whatif HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
    ASSERT_EQ(p.feed(raw), HttpRequestParser::State::Error);
    EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, RejectsChunkedTransferEncoding) {
    HttpRequestParser p;
    const std::string raw =
        "POST /whatif HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    ASSERT_EQ(p.feed(raw), HttpRequestParser::State::Error);
    EXPECT_EQ(p.error_status(), 501);
}

TEST(HttpParser, PipelinedBytesStayBufferedForNextRequest) {
    // Pre-pipelining, trailing bytes were a 400; now they are the next
    // request. One feed carries a complete POST plus a complete GET.
    HttpRequestParser p;
    ASSERT_EQ(p.feed("POST /whatif HTTP/1.1\r\nContent-Length: 2\r\n\r\n"
                     "{}GET /healthz HTTP/1.1\r\n\r\n"),
              HttpRequestParser::State::Done);
    EXPECT_EQ(p.request().method, "POST");
    EXPECT_EQ(p.request().body, "{}");
    EXPECT_TRUE(p.mid_request());  // the GET is already buffered

    ASSERT_EQ(p.next_request(), HttpRequestParser::State::Done);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().path, "/healthz");
    EXPECT_TRUE(p.request().body.empty());

    ASSERT_EQ(p.next_request(), HttpRequestParser::State::NeedMore);
    EXPECT_FALSE(p.mid_request());  // idle between requests
}

TEST(HttpParser, PipelinedRequestSplitAcrossSegments) {
    // The second request of a pipeline arrives torn across TCP segments:
    // its head starts in the first request's segment and finishes later.
    HttpRequestParser p;
    ASSERT_EQ(p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HT"),
              HttpRequestParser::State::Done);
    EXPECT_EQ(p.request().path, "/a");

    ASSERT_EQ(p.next_request(), HttpRequestParser::State::NeedMore);
    EXPECT_TRUE(p.mid_request());
    ASSERT_EQ(p.feed("TP/1.1\r\nHost: x\r\n\r\n"),
              HttpRequestParser::State::Done);
    EXPECT_EQ(p.request().path, "/b");
    EXPECT_EQ(p.request().headers.at("host"), "x");
}

TEST(HttpParser, RequestKeepAliveSemantics) {
    HttpRequest r;
    r.version = "HTTP/1.1";
    EXPECT_TRUE(serve::request_keep_alive(r));  // 1.1 default
    r.headers["connection"] = "close";
    EXPECT_FALSE(serve::request_keep_alive(r));
    r.headers["connection"] = "Keep-Alive";
    EXPECT_TRUE(serve::request_keep_alive(r));

    r.version = "HTTP/1.0";
    r.headers.clear();
    EXPECT_FALSE(serve::request_keep_alive(r));  // 1.0 default
    r.headers["connection"] = "keep-alive";
    EXPECT_TRUE(serve::request_keep_alive(r));
}

TEST(HttpParser, SerializeResponseCarriesFraming) {
    HttpResponse resp;
    resp.status = 429;
    resp.body = "{\"error\":\"busy\"}";
    resp.extra_headers.push_back({"Retry-After", "1"});
    const std::string wire = serve::serialize_response(resp);
    EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 16\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
    EXPECT_NE(wire.find("\r\n\r\n{\"error\":\"busy\"}"), std::string::npos);

    // Keep-alive flips exactly the Connection header.
    const std::string ka = serve::serialize_response(resp, true);
    EXPECT_NE(ka.find("Connection: keep-alive\r\n"), std::string::npos);
    EXPECT_EQ(ka.find("Connection: close\r\n"), std::string::npos);

    // The idle-timeout status has a real reason phrase.
    HttpResponse timeout;
    timeout.status = 408;
    EXPECT_NE(serve::serialize_response(timeout)
                  .find("HTTP/1.1 408 Request Timeout\r\n"),
              std::string::npos);
}

/// Feeds `bytes` to a fresh parser in two segments and takes each parsed
/// request off it, as the event loop does. Returns how many requests
/// parsed and the state the parser was left in.
std::pair<int, HttpRequestParser::State> drive_pipeline(
    std::string_view bytes) {
    using State = HttpRequestParser::State;
    HttpRequestParser p;
    int parsed = 0;
    State s = State::NeedMore;
    const std::size_t half = bytes.size() / 2;
    for (const std::string_view segment :
         {bytes.substr(0, half), bytes.substr(half)}) {
        s = p.feed(segment);
        while (s == State::Done) {
            ++parsed;
            s = p.next_request();
        }
        if (s == State::Error) {
            EXPECT_GE(p.error_status(), 400);
            EXPECT_LT(p.error_status(), 600);
            break;
        }
    }
    EXPECT_EQ(p.state(), s);
    return {parsed, s};
}

TEST(HttpParser, EveryTruncationAndSeededEditOfAPipelineEndsCleanly) {
    using State = HttpRequestParser::State;
    const std::string stream =
        "POST /whatif HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\n"
        "hello"
        "GET /healthz?x=1 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        "GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n";
    ASSERT_EQ(drive_pipeline(stream), std::make_pair(3, State::NeedMore));
    // A strict prefix is a pipeline still arriving, never an error.
    testsupport::for_each_truncation(stream, [](std::string_view prefix) {
        const auto [parsed, state] = drive_pipeline(prefix);
        EXPECT_EQ(state, State::NeedMore) << prefix.size() << " bytes";
        EXPECT_LT(parsed, 3) << prefix.size() << " bytes";
    });
    // An edited stream parses some requests and then waits or fails with
    // a 4xx/5xx status; a crash or an exception fails the test.
    int failed = 0;
    testsupport::for_each_mutation(
        stream, 20261027, 3000, [&](const std::string& edited) {
            const auto [parsed, state] = drive_pipeline(edited);
            EXPECT_LE(parsed, 4);
            failed += state == State::Error ? 1 : 0;
        });
    EXPECT_GT(failed, 0);
}

// ----------------------------------------------------- canonicalization --

TEST(WhatIfQuery, OverrideOrderAndNumberSpellingCanonicalize) {
    const std::string a =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"greedy\",\"tdp_scale\":0.8}}";
    const std::string b =
        "{ \"overrides\" : {\"tdp_scale\": 8e-1, \"scheduler\": \"greedy\"},"
        "  \"snapshot\" : \"warm\", \"schema\":\"mcs.whatif_query.v1\" }";
    const serve::WhatIfQuery qa = serve::parse_whatif_query(a);
    const serve::WhatIfQuery qb = serve::parse_whatif_query(b);
    EXPECT_EQ(qa.snapshot, qb.snapshot);
    EXPECT_EQ(qa.overrides, qb.overrides);
    EXPECT_EQ(qa.overrides.at("tdp_scale"), "0.8");
}

TEST(WhatIfQuery, DifferentValuesProduceDifferentCacheKeys) {
    serve::SnapshotEntry entry;
    entry.key_prefix = "cfgfp+structfp@400000000/0/0|base=cfgfp";
    entry.captured_now = 400 * kMillisecond;
    entry.captured_horizon = kSecond;

    serve::WhatIfQuery q1 = serve::parse_whatif_query(
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
        "\"overrides\":{\"tdp_scale\":0.8}}");
    serve::WhatIfQuery q2 = serve::parse_whatif_query(
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
        "\"overrides\":{\"tdp_scale\":0.80}}");
    serve::WhatIfQuery q3 = serve::parse_whatif_query(
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
        "\"overrides\":{\"tdp_scale\":0.9}}");
    serve::WhatIfQuery q4 = serve::parse_whatif_query(
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
        "\"overrides\":{\"tdp_scale\":0.8},\"seconds\":0.7}");

    EXPECT_EQ(serve::cache_key(entry, q1), serve::cache_key(entry, q2));
    EXPECT_NE(serve::cache_key(entry, q1), serve::cache_key(entry, q3));
    EXPECT_NE(serve::cache_key(entry, q1), serve::cache_key(entry, q4));

    // The key also pins the snapshot identity itself.
    serve::SnapshotEntry other = entry;
    other.key_prefix = "othercfg+structfp@400000000/0/0|base=othercfg";
    EXPECT_NE(serve::cache_key(entry, q1), serve::cache_key(other, q1));
}

TEST(WhatIfQuery, RejectsBadInput) {
    // Missing schema tag.
    EXPECT_THROW(serve::parse_whatif_query("{\"snapshot\":\"w\"}"),
                 RequireError);
    // Structural key smuggled through overrides.
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
            "\"overrides\":{\"width\":16}}"),
        RequireError);
    // Non-scalar override value.
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
            "\"overrides\":{\"scheduler\":[\"greedy\"]}}"),
        RequireError);
    // Unknown top-level member.
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
            "\"bogus\":1}"),
        RequireError);
    // Negative horizon.
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
            "\"seconds\":-1}"),
        RequireError);
    // A horizon past the simulated clock's range.
    for (const char* seconds : {"1e300", "18446744074"}) {
        try {
            (void)serve::parse_whatif_query(
                std::string("{\"schema\":\"mcs.whatif_query.v1\","
                            "\"snapshot\":\"w\",\"seconds\":") +
                seconds + "}");
            ADD_FAILURE() << "seconds " << seconds << " was accepted";
        } catch (const RequireError& e) {
            EXPECT_NE(std::string(e.what()).find("'seconds'"),
                      std::string::npos)
                << e.what();
        }
    }
    // Members of the wrong JSON kind.
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"w\","
            "\"seconds\":\"5\"}"),
        RequireError);
    EXPECT_THROW(
        serve::parse_whatif_query(
            "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":5}"),
        RequireError);
    // Malformed JSON and a nesting bomb (network-input limits).
    EXPECT_THROW(serve::parse_whatif_query("{\"schema\":"), RequireError);
    EXPECT_THROW(serve::parse_whatif_query(std::string(64, '[')),
                 RequireError);
}

TEST(WhatIfQuery, EveryTruncationAndSeededEditFailsCleanly) {
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"greedy\",\"tdp_scale\":0.8,"
        "\"abort_tests\":true},\"seconds\":1.5}";
    const auto parses = [](std::string_view text) {
        try {
            (void)serve::parse_whatif_query(text);
            return true;
        } catch (const RequireError&) {
            return false;
        }
    };
    ASSERT_TRUE(parses(body));
    testsupport::for_each_truncation(body, [&](std::string_view prefix) {
        EXPECT_FALSE(parses(prefix)) << prefix;
    });
    // An edited body gives a WhatIfQuery or a RequireError; any other
    // exception escapes and fails the test, and a crash fails the process.
    int parsed = 0;
    testsupport::for_each_mutation(
        body, 20261026, 4000,
        [&](const std::string& edited) { parsed += parses(edited) ? 1 : 0; });
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, 4000);
}

TEST(WhatIfQuery, AllowedOverridesAreThePolicyKnobs) {
    EXPECT_TRUE(serve::is_allowed_override("scheduler"));
    EXPECT_TRUE(serve::is_allowed_override("tdp_scale"));
    EXPECT_TRUE(serve::is_allowed_override("guard_band"));
    EXPECT_FALSE(serve::is_allowed_override("width"));
    EXPECT_FALSE(serve::is_allowed_override("seed"));
    EXPECT_FALSE(serve::is_allowed_override("occupancy"));
}

// ------------------------------------------------------------ the cache --

std::shared_ptr<const CachedResponse> cached(const char* body,
                                             int status = 200) {
    return std::make_shared<const CachedResponse>(
        CachedResponse{status, body});
}

TEST(ResultCache, LruEvictionAndRefresh) {
    serve::ResultCache cache(2);
    cache.insert("a", cached("A"));
    cache.insert("b", cached("B"));
    ASSERT_NE(cache.find("a"), nullptr);  // refreshes "a" -> "b" is LRU
    cache.insert("c", cached("C"));       // evicts "b"
    EXPECT_EQ(cache.find("b"), nullptr);
    EXPECT_NE(cache.find("a"), nullptr);
    EXPECT_NE(cache.find("c"), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCache, DuplicateInsertKeepsFirstValue) {
    // Two workers racing on the same miss must converge on one answer.
    serve::ResultCache cache(4);
    cache.insert("k", cached("first"));
    cache.insert("k", cached("second"));
    ASSERT_NE(cache.find("k"), nullptr);
    EXPECT_EQ(cache.find("k")->body, "first");
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
    serve::ResultCache cache(0);
    cache.insert("k", cached("v"));
    EXPECT_EQ(cache.find("k"), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, NegativeEntriesShareTheLru) {
    // Error envelopes are first-class entries: same capacity, same LRU
    // ordering, same eviction pressure as positive results.
    serve::ResultCache cache(2);
    cache.insert("bad", cached("{\"error\":\"x\"}", 400));
    cache.insert("good", cached("OK"));
    EXPECT_EQ(cache.negative_size(), 1u);

    ASSERT_NE(cache.find("good"), nullptr);  // "bad" becomes LRU
    cache.insert("newer", cached("N"));      // evicts the negative entry
    EXPECT_EQ(cache.find("bad"), nullptr);
    EXPECT_EQ(cache.negative_size(), 0u);
    EXPECT_EQ(cache.evictions(), 1u);

    ASSERT_NE(cache.find("newer"), nullptr);
    EXPECT_EQ(cache.find("newer")->status, 200);
}

TEST(ResultCache, PersistenceRoundTripsEntries) {
    TempFile file("serve_cache");
    {
        serve::ResultCache cache(8);
        cache.insert("k1", cached("body \"quoted\"\nline2"));
        cache.insert("k2", cached("{\"error\":\"bad horizon\"}", 400));
        cache.save(file.path());
    }
    serve::ResultCache restored(8);
    EXPECT_EQ(restored.load(file.path()), 2u);
    ASSERT_NE(restored.find("k1"), nullptr);
    EXPECT_EQ(restored.find("k1")->status, 200);
    EXPECT_EQ(restored.find("k1")->body, "body \"quoted\"\nline2");
    ASSERT_NE(restored.find("k2"), nullptr);
    EXPECT_EQ(restored.find("k2")->status, 400);
    EXPECT_EQ(restored.negative_size(), 1u);

    // A missing file is a cold start, not an error.
    serve::ResultCache cold(8);
    EXPECT_EQ(cold.load(file.path() + ".does-not-exist"), 0u);
    EXPECT_EQ(cold.size(), 0u);
}

TEST(ResultCache, MalformedPersistedEntryFailsCleanly) {
    // An out-of-int status, a status of the wrong kind and a non-string
    // key each reject the file rather than load a defaulted entry.
    for (const char* line :
         {R"({"key":"k","status":1e300,"body":"b"})",
          R"({"key":"k","status":"200","body":"b"})",
          R"({"key":5,"status":200,"body":"b"})"}) {
        TempFile file("serve_cache_bad");
        testsupport::write_file(file.path(), std::string(line) + "\n");
        serve::ResultCache cache(8);
        EXPECT_THROW(cache.load(file.path()), RequireError) << line;
    }
}

// ------------------------------------------------ snapshots + service --

/// The differential-baseline run expressed as repo Config keys, so
/// system_config_from(base) reproduces the captured structure.
Config serve_base_config() {
    Config cfg;
    cfg.set("side", "4");
    cfg.set("seed", "42");
    cfg.set("min_tasks", "2");
    cfg.set("max_tasks", "6");
    cfg.set("occupancy", "0.5");
    return cfg;
}

TEST(WhatIfQuery, AllowedOverridesKeepTheStructuralFingerprint) {
    // A value other than the base's for every allowed key.
    const std::map<std::string_view, std::string> changed = {
        {"abort_tests", "false"},       {"capping", "bang-bang"},
        {"criticality_mode", "time"},   {"criticality_threshold", "0.8"},
        {"gate_delay_ms", "5"},         {"guard_band", "0.1"},
        {"mapper", "random"},           {"scheduler", "greedy"},
        {"tdp_scale", "0.8"},           {"test_period_ms", "250"},
        {"vf_policy", "max-only"}};
    const Config base = serve_base_config();
    const SystemConfig base_cfg = system_config_from(base);
    for (const std::string_view key : serve::kAllowedOverrides) {
        ASSERT_EQ(changed.count(key), 1u) << key << " has no test value";
        Config fork = base;
        fork.set(std::string(key), changed.at(key));
        const SystemConfig fork_cfg = system_config_from(fork);
        EXPECT_NE(config_fingerprint(fork_cfg), config_fingerprint(base_cfg))
            << key;
        EXPECT_EQ(structural_fingerprint(fork_cfg),
                  structural_fingerprint(base_cfg))
            << key;
    }
    // Segmented sessions are structural, so a query may not ask for them.
    struct Refused {
        const char* key;
        const char* config_value;
        const char* json_value;
    };
    for (const Refused& r : {Refused{"segmented", "true", "true"},
                             Refused{"sessions", "segmented",
                                     "\"segmented\""}}) {
        Config fork = base;
        fork.set(r.key, r.config_value);
        EXPECT_NE(structural_fingerprint(system_config_from(fork)),
                  structural_fingerprint(base_cfg))
            << r.key;
        EXPECT_FALSE(serve::is_allowed_override(r.key));
        EXPECT_THROW(
            serve::parse_whatif_query(
                std::string("{\"schema\":\"mcs.whatif_query.v1\","
                            "\"snapshot\":\"w\",\"overrides\":{\"") +
                r.key + "\":" + r.json_value + "}}"),
            RequireError)
            << r.key;
    }
}

/// Runs the base config to 1 s, checkpointing at 400 ms, and returns the
/// snapshot document.
telemetry::JsonValue make_snapshot_doc(const Config& base) {
    TempFile file("serve_snapshot");
    ManycoreSystem sys(system_config_from(base));
    sys.checkpoint_at(400 * kMillisecond, file.path());
    sys.run(kSecond);
    return load_snapshot_file(file.path());
}

TEST(SnapshotPool, StructuralMismatchIsRejectedAtLoad) {
    const Config base = serve_base_config();
    telemetry::JsonValue doc = make_snapshot_doc(base);

    Config wrong = base;
    wrong.set("side", "6");  // different geometry than the captured chip
    EXPECT_THROW(
        serve::SnapshotPool::from_document("warm", doc, wrong),
        RequireError);

    // Policy knobs are non-structural: forking them must be accepted.
    Config forked = base;
    forked.set("scheduler", "greedy");
    serve::SnapshotPool pool =
        serve::SnapshotPool::from_document("warm", std::move(doc), forked);
    ASSERT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.entries()[0].captured_now, 400 * kMillisecond);
    EXPECT_EQ(pool.entries()[0].captured_horizon, kSecond);
}

/// A spec from the committed scenario corpus.
std::string corpus_scenario(const std::string& file) {
    return std::string(MCS_SOURCE_DIR) + "/examples/scenarios/" + file;
}

/// serve_base_config() under budget_cut.json, which cuts the budget at
/// 0.4 s and lifts it again at 1.2 s.
Config scenario_base_config() {
    Config cfg = serve_base_config();
    cfg.set("scenario", corpus_scenario("budget_cut.json"));
    return cfg;
}

/// Runs `sys` to `horizon` and returns its run report bytes.
std::string report_of(ManycoreSystem& sys, SimDuration horizon) {
    const RunMetrics m = sys.run(horizon);
    std::ostringstream os;
    telemetry::write_run_report(m, &sys.registry(), os);
    return os.str();
}

/// Runs scenario_base_config() to 2 s with a capture at 0.8 s, between
/// the scenario's two directives, into `path`; returns the uninterrupted
/// run's report bytes.
std::string capture_mid_scenario(const std::string& path) {
    const auto sys = make_system(scenario_base_config());
    sys->checkpoint_at(800 * kMillisecond, path);
    return report_of(*sys, 2 * kSecond);
}

/// Expects from_document to throw a RequireError whose text holds
/// `needle`.
void expect_load_error(const telemetry::JsonValue& doc, const Config& base,
                       const std::string& needle) {
    try {
        (void)serve::SnapshotPool::from_document("s", doc, base);
        ADD_FAILURE() << "loaded; expected an error containing: " << needle;
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotPool, ForkPreconditionsAreCheckedAtLoad) {
    const Config plain = serve_base_config();
    const telemetry::JsonValue plain_doc = make_snapshot_doc(plain);
    const TempFile mid("serve_mid_scenario");
    capture_mid_scenario(mid.path());
    const telemetry::JsonValue scenario_doc = load_snapshot_file(mid.path());
    const Config with_scenario = scenario_base_config();

    // scenario= must be present exactly when the document holds a
    // scenario, and name the captured spec.
    expect_load_error(scenario_doc, plain, "captured with a scenario");
    expect_load_error(plain_doc, with_scenario, "captured without a scenario");
    Config other_spec = with_scenario;
    other_spec.set("scenario", corpus_scenario("vf_throttle_step.json"));
    expect_load_error(scenario_doc, other_spec, "fingerprint differs");

    // Forks restore from the pooled document, so these keys conflict with
    // it or would be ignored.
    for (const char* key : {"restore", "checkpoint", "checkpoint_at"}) {
        Config extra = plain;
        extra.set(key, "x");
        expect_load_error(plain_doc, extra, std::string(key) + "=");
    }

    EXPECT_NO_THROW(
        (void)serve::SnapshotPool::from_document("s", scenario_doc,
                                                 with_scenario));
}

HttpRequest whatif_request(const std::string& body) {
    HttpRequest req;
    req.method = "POST";
    req.path = "/whatif";
    req.body = body;
    return req;
}

std::string header(const HttpResponse& resp, const std::string& name) {
    for (const auto& [k, v] : resp.extra_headers) {
        if (k == name) return v;
    }
    return "";
}

class ServeServiceTest : public ::testing::Test {
protected:
    ServeServiceTest()
        : base_(serve_base_config()),
          doc_(make_snapshot_doc(base_)),
          service_(serve::SnapshotPool::from_document("warm", doc_, base_),
                   serve::ServiceOptions{}, registry_) {}

    Config base_;
    telemetry::JsonValue doc_;
    telemetry::MetricsRegistry registry_;
    serve::ServeService service_;
};

TEST_F(ServeServiceTest, CachedResponseIsByteIdenticalToFresh) {
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"greedy\",\"tdp_scale\":0.8}}";

    const HttpResponse fresh = service_.handle(whatif_request(body));
    ASSERT_EQ(fresh.status, 200) << fresh.body;
    EXPECT_EQ(header(fresh, "X-Cache"), "miss");

    const HttpResponse cached = service_.handle(whatif_request(body));
    ASSERT_EQ(cached.status, 200);
    EXPECT_EQ(header(cached, "X-Cache"), "hit");
    EXPECT_EQ(cached.body, fresh.body);  // the headline byte-identity

    // A semantically identical but differently spelled query also hits --
    // and yields the same bytes.
    const std::string respelled =
        "{\"snapshot\":\"warm\",\"overrides\":{\"tdp_scale\":8e-1,"
        "\"scheduler\":\"greedy\"},\"schema\":\"mcs.whatif_query.v1\"}";
    const HttpResponse canonical = service_.handle(whatif_request(respelled));
    ASSERT_EQ(canonical.status, 200);
    EXPECT_EQ(header(canonical, "X-Cache"), "hit");
    EXPECT_EQ(canonical.body, fresh.body);

    // And both match a direct, service-free computation.
    const serve::SnapshotEntry* entry = service_.pool()->find("warm");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(serve::compute_whatif(*entry, serve::parse_whatif_query(body)),
              fresh.body);
}

TEST_F(ServeServiceTest, ShorterHorizonIsAValidFork) {
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"seconds\":0.7}";
    const HttpResponse resp = service_.handle(whatif_request(body));
    EXPECT_EQ(resp.status, 200) << resp.body;
}

TEST_F(ServeServiceTest, HorizonOutsideCapturedWindowIs400) {
    // Past the captured horizon: the arrival trace ends there.
    EXPECT_EQ(service_
                  .handle(whatif_request(
                      "{\"schema\":\"mcs.whatif_query.v1\","
                      "\"snapshot\":\"warm\",\"seconds\":5}"))
                  .status,
              400);
    // Before the capture point: nothing left to simulate.
    EXPECT_EQ(service_
                  .handle(whatif_request(
                      "{\"schema\":\"mcs.whatif_query.v1\","
                      "\"snapshot\":\"warm\",\"seconds\":0.2}"))
                  .status,
              400);
}

TEST_F(ServeServiceTest, NegativeResultsAreCachedAndByteStable) {
    // A deterministic failure (horizon past the captured trace) is an
    // answer: the second ask must hit the negative cache and return the
    // exact same error bytes.
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"seconds\":5}";
    const HttpResponse first = service_.handle(whatif_request(body));
    ASSERT_EQ(first.status, 400);
    EXPECT_EQ(header(first, "X-Cache"), "miss");

    const HttpResponse second = service_.handle(whatif_request(body));
    ASSERT_EQ(second.status, 400);
    EXPECT_EQ(header(second, "X-Cache"), "hit");
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(service_.cache().negative_size(), 1u);

    HttpRequest metrics;
    metrics.method = "GET";
    metrics.path = "/metrics";
    const telemetry::JsonValue doc =
        telemetry::parse_json(service_.handle(metrics).body);
    EXPECT_EQ(doc.at("counters").at("serve.negative_cache_hits").number(),
              1.0);
    EXPECT_EQ(doc.at("counters").at("serve.cache_misses").number(), 1.0);
}

TEST_F(ServeServiceTest, ReloadSwapsPoolAndPinnedGenerationSurvives) {
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"greedy\"}}";
    const HttpResponse before = service_.handle(whatif_request(body));
    ASSERT_EQ(before.status, 200) << before.body;

    // Without a loader the route refuses rather than pretending.
    HttpRequest reload_req;
    reload_req.method = "POST";
    reload_req.path = "/admin/reload";
    EXPECT_EQ(service_.handle(reload_req).status, 409);

    // Pin the current generation the way an in-flight query would, then
    // reload: the pinned pool must stay fully usable (RCU grace period).
    const std::shared_ptr<const serve::SnapshotPool> pinned =
        service_.pool();
    service_.set_pool_loader([this] {
        return serve::SnapshotPool::from_document("warm", doc_, base_);
    });
    const HttpResponse reloaded = service_.handle(reload_req);
    EXPECT_EQ(reloaded.status, 200) << reloaded.body;
    EXPECT_NE(service_.pool(), pinned);  // a new generation is published

    const serve::SnapshotEntry* old_entry = pinned->find("warm");
    ASSERT_NE(old_entry, nullptr);
    EXPECT_EQ(serve::compute_whatif(*old_entry,
                                    serve::parse_whatif_query(body)),
              before.body);

    // Same files, same fingerprints: answers after the swap are
    // byte-identical (and still cache hits -- keys embed fingerprints).
    const HttpResponse after = service_.handle(whatif_request(body));
    ASSERT_EQ(after.status, 200);
    EXPECT_EQ(header(after, "X-Cache"), "hit");
    EXPECT_EQ(after.body, before.body);

    // A loader that throws must keep the old pool published.
    service_.set_pool_loader(
        []() -> serve::SnapshotPool { throw RequireError("disk gone"); });
    const std::shared_ptr<const serve::SnapshotPool> current =
        service_.pool();
    EXPECT_EQ(service_.handle(reload_req).status, 500);
    EXPECT_EQ(service_.pool(), current);
}

TEST_F(ServeServiceTest, RoutesAndErrorPaths) {
    HttpRequest healthz;
    healthz.method = "GET";
    healthz.path = "/healthz";
    const HttpResponse h = service_.handle(healthz);
    EXPECT_EQ(h.status, 200);
    EXPECT_NE(h.body.find("\"status\""), std::string::npos);

    HttpRequest snapshots;
    snapshots.method = "GET";
    snapshots.path = "/snapshots";
    EXPECT_EQ(service_.handle(snapshots).status, 200);

    HttpRequest metrics;
    metrics.method = "GET";
    metrics.path = "/metrics";
    const HttpResponse m = service_.handle(metrics);
    EXPECT_EQ(m.status, 200);
    EXPECT_NO_THROW(telemetry::parse_json(m.body));

    HttpRequest wrong_method;
    wrong_method.method = "DELETE";
    wrong_method.path = "/whatif";
    EXPECT_EQ(service_.handle(wrong_method).status, 405);

    HttpRequest reload_get;
    reload_get.method = "GET";
    reload_get.path = "/admin/reload";
    EXPECT_EQ(service_.handle(reload_get).status, 405);

    HttpRequest unknown;
    unknown.method = "GET";
    unknown.path = "/nope";
    EXPECT_EQ(service_.handle(unknown).status, 404);

    // Unknown snapshot name -> 404 with a JSON error body.
    const HttpResponse missing = service_.handle(whatif_request(
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"cold\"}"));
    EXPECT_EQ(missing.status, 404);
    EXPECT_NE(missing.body.find("\"error\""), std::string::npos);

    // Malformed body -> 400, not a crash.
    EXPECT_EQ(service_.handle(whatif_request("not json")).status, 400);
}

TEST_F(ServeServiceTest, MetricsCountHitsAndMisses) {
    const std::string body =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"none\"}}";
    service_.handle(whatif_request(body));
    service_.handle(whatif_request(body));

    HttpRequest metrics;
    metrics.method = "GET";
    metrics.path = "/metrics";
    const std::string m = service_.handle(metrics).body;
    const telemetry::JsonValue doc = telemetry::parse_json(m);
    const telemetry::JsonValue& counters = doc.at("counters");
    EXPECT_EQ(counters.at("serve.cache_misses").number(), 1.0);
    EXPECT_EQ(counters.at("serve.cache_hits").number(), 1.0);
    EXPECT_EQ(counters.at("serve.whatif_requests").number(), 2.0);
}

/// A /whatif body for `snapshot` with the given overrides object.
std::string whatif_body(const std::string& snapshot,
                        const std::string& overrides) {
    return "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"" +
           snapshot + "\",\"overrides\":" + overrides + "}";
}

TEST(ServeScenario, MidScenarioSnapshotForksLikeARelaxedRestore) {
    const TempFile mid("serve_mid_scenario");
    const std::string uninterrupted = capture_mid_scenario(mid.path());
    const Config base = scenario_base_config();
    telemetry::MetricsRegistry registry;
    serve::ServeService service(
        serve::SnapshotPool::from_document(
            "mid", load_snapshot_file(mid.path()), base),
        serve::ServiceOptions{}, registry);

    // mcs_sim restore=<mid> restore_relax=true scenario=... [scheduler=]
    const auto relaxed_restore = [&](const char* scheduler) {
        Config cfg = base;
        cfg.set("restore", mid.path());
        cfg.set("restore_relax", "true");
        if (scheduler != nullptr) {
            cfg.set("scheduler", scheduler);
        }
        const auto sys = make_system(cfg);
        return report_of(*sys, sys->restored_horizon());
    };

    const HttpResponse identity =
        service.handle(whatif_request(whatif_body("mid", "{}")));
    ASSERT_EQ(identity.status, 200) << identity.body;
    EXPECT_EQ(identity.body, relaxed_restore(nullptr));
    EXPECT_EQ(identity.body, uninterrupted);

    const HttpResponse greedy = service.handle(
        whatif_request(whatif_body("mid", "{\"scheduler\":\"greedy\"}")));
    ASSERT_EQ(greedy.status, 200) << greedy.body;
    EXPECT_EQ(greedy.body, relaxed_restore("greedy"));
    EXPECT_NE(greedy.body, identity.body);
}

TEST(ServeScenario, ChangedSpecIsAnsweredUncachedUntilItIsBack) {
    // Serve a mid-scenario capture from a copy of the spec, so the test can
    // edit the file the forks re-read.
    const TempFile spec("serve_spec_copy");
    const std::string original =
        testsupport::read_file(corpus_scenario("budget_cut.json"));
    testsupport::write_file(spec.path(), original);
    Config base = serve_base_config();
    base.set("scenario", spec.path());
    const TempFile mid("serve_mid_scenario_copy");
    {
        const auto sys = make_system(base);
        sys->checkpoint_at(800 * kMillisecond, mid.path());
        sys->run(2 * kSecond);
    }
    telemetry::MetricsRegistry registry;
    serve::ServeService service(
        serve::SnapshotPool::from_document(
            "mid", load_snapshot_file(mid.path()), base),
        serve::ServiceOptions{}, registry);
    const std::string body = whatif_body("mid", "{}");
    const auto expect_unavailable = [&](const char* what) {
        const HttpResponse resp = service.handle(whatif_request(body));
        EXPECT_EQ(resp.status, 503) << what << ": " << resp.body;
        EXPECT_EQ(header(resp, "X-Cache"), "miss") << what;
        EXPECT_NE(resp.body.find("scenario spec changed since the pool "
                                 "loaded"),
                  std::string::npos)
            << resp.body;
    };

    std::string edited = original;
    const std::string cut = "\"tdp_scale\":0.6";
    ASSERT_NE(edited.find(cut), std::string::npos);
    edited.replace(edited.find(cut), cut.size(), "\"tdp_scale\":0.5");
    testsupport::write_file(spec.path(), edited);
    expect_unavailable("edited");
    expect_unavailable("edited, asked again");  // nothing was cached
    std::remove(spec.path().c_str());
    expect_unavailable("removed");

    // Put the file back: the same query now forks, still as a miss, and
    // answers with the bytes of the relaxed restore.
    testsupport::write_file(spec.path(), original);
    const HttpResponse back = service.handle(whatif_request(body));
    ASSERT_EQ(back.status, 200) << back.body;
    EXPECT_EQ(header(back, "X-Cache"), "miss");
    Config relaxed = base;
    relaxed.set("restore", mid.path());
    relaxed.set("restore_relax", "true");
    const auto sys = make_system(relaxed);
    EXPECT_EQ(back.body, report_of(*sys, sys->restored_horizon()));
    EXPECT_EQ(header(service.handle(whatif_request(body)), "X-Cache"), "hit");
}

TEST(ServeCacheKey, PinsTheCapturePointAndTheBaseConfig) {
    // Two captures of one run share both document fingerprints; only the
    // capture point tells them apart. A third entry serves the later
    // capture under another base config.
    Config base;
    base.set("occupancy", "0.7");
    const TempFile early("serve_capture_early");
    const TempFile late("serve_capture_late");
    {
        const auto sys = make_system(base);
        sys->checkpoint_at(500 * kMillisecond, early.path());
        sys->checkpoint_at(kSecond, late.path());
        sys->run(2 * kSecond);
    }
    const TempFile greedy_cfg("serve_greedy_cfg");
    testsupport::write_file(greedy_cfg.path(), "scheduler = greedy\n");
    Config serve_cfg;
    serve_cfg.set("snapshot.a", early.path());
    serve_cfg.set("snapshot.b", late.path());
    serve_cfg.set("snapshot.g", late.path());
    serve_cfg.set("snapshot.g.config", greedy_cfg.path());
    telemetry::MetricsRegistry registry;
    serve::ServeService service(serve::SnapshotPool::load(serve_cfg, base),
                                serve::ServiceOptions{}, registry);

    // Every query misses and equals a fresh computation on its own entry.
    const auto ask = [&](const std::string& snapshot,
                         const std::string& overrides) {
        const std::string body = whatif_body(snapshot, overrides);
        const HttpResponse resp = service.handle(whatif_request(body));
        EXPECT_EQ(resp.status, 200) << resp.body;
        EXPECT_EQ(header(resp, "X-Cache"), "miss") << body;
        EXPECT_EQ(resp.body, serve::compute_whatif(
                                 *service.pool()->find(snapshot),
                                 serve::parse_whatif_query(body)))
            << body;
        return resp.body;
    };
    const std::string greedy = "{\"scheduler\":\"greedy\"}";
    const std::string a_greedy = ask("a", greedy);
    const std::string b_greedy = ask("b", greedy);
    EXPECT_NE(a_greedy, b_greedy);
    const std::string b_identity = ask("b", "{}");
    const std::string g_identity = ask("g", "{}");
    EXPECT_NE(g_identity, b_identity);
    // The same effective config gives the same bytes under either key.
    EXPECT_EQ(g_identity, b_greedy);
}

// ------------------------------------------------- the socket front end --

/// A small blocking test client speaking enough HTTP/1.1 to exercise
/// keep-alive and pipelining against the real event loop.
class TestClient {
public:
    explicit TestClient(int port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        MCS_REQUIRE(fd_ >= 0, "client socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        MCS_REQUIRE(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) == 0,
                    "client connect failed");
    }
    ~TestClient() {
        if (fd_ >= 0) ::close(fd_);
    }
    TestClient(const TestClient&) = delete;
    TestClient& operator=(const TestClient&) = delete;

    void send_all(std::string_view bytes) {
        while (!bytes.empty()) {
            const ssize_t n =
                ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << "client send failed";
            bytes.remove_prefix(static_cast<std::size_t>(n));
        }
    }

    struct Response {
        int status = 0;
        std::map<std::string, std::string> headers;  // lower-cased names
        std::string body;
    };

    /// Reads exactly one response (blocking); fails the test on EOF or a
    /// malformed frame. Leftover pipelined bytes stay buffered.
    Response read_response() {
        Response resp;
        std::size_t head_end;
        while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
            if (!fill()) {
                ADD_FAILURE() << "EOF before response head";
                return resp;
            }
        }
        const std::string head = buffer_.substr(0, head_end);
        std::size_t line_end = head.find("\r\n");
        const std::string status_line =
            head.substr(0, line_end == std::string::npos ? head.size()
                                                         : line_end);
        resp.status = std::stoi(status_line.substr(9, 3));
        std::size_t pos =
            line_end == std::string::npos ? head.size() : line_end + 2;
        while (pos < head.size()) {
            std::size_t eol = head.find("\r\n", pos);
            if (eol == std::string::npos) eol = head.size();
            const std::string line = head.substr(pos, eol - pos);
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string name = line.substr(0, colon);
                for (char& c : name)
                    c = static_cast<char>(std::tolower(c));
                std::size_t v = colon + 1;
                while (v < line.size() && line[v] == ' ') ++v;
                resp.headers[name] = line.substr(v);
            }
            pos = eol + 2;
        }
        std::size_t body_len = 0;
        if (resp.headers.count("content-length") != 0) {
            body_len = static_cast<std::size_t>(
                std::stoul(resp.headers.at("content-length")));
        }
        while (buffer_.size() < head_end + 4 + body_len) {
            if (!fill()) {
                ADD_FAILURE() << "EOF before response body";
                return resp;
            }
        }
        resp.body = buffer_.substr(head_end + 4, body_len);
        buffer_.erase(0, head_end + 4 + body_len);
        return resp;
    }

    /// True if the server closed the connection (orderly EOF).
    bool at_eof() {
        if (!buffer_.empty()) return false;
        return !fill();
    }

private:
    bool fill() {
        char buf[8192];
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0) return false;
        buffer_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    int fd_ = -1;
    std::string buffer_;
};

std::string whatif_wire(const std::string& body, bool close = false) {
    std::string req = "POST /whatif HTTP/1.1\r\nHost: t\r\n";
    if (close) req += "Connection: close\r\n";
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    return req + body;
}

class HttpServerTest : public ::testing::Test {
protected:
    HttpServerTest()
        : base_(serve_base_config()),
          doc_(make_snapshot_doc(base_)),
          service_(serve::SnapshotPool::from_document("warm", doc_, base_),
                   serve::ServiceOptions{}, registry_) {
        service_.set_pool_loader([this] {
            return serve::SnapshotPool::from_document("warm", doc_, base_);
        });
    }

    ~HttpServerTest() override { stop(); }

    void start(serve::ServerOptions opts = {}) {
        opts.port = 0;  // ephemeral
        opts.quiet = true;
        server_ = std::make_unique<serve::HttpServer>(service_, opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    void stop() {
        if (server_ != nullptr) {
            server_->stop();
            thread_.join();
            server_.reset();
        }
    }

    Config base_;
    telemetry::JsonValue doc_;
    telemetry::MetricsRegistry registry_;
    serve::ServeService service_;
    std::unique_ptr<serve::HttpServer> server_;
    std::thread thread_;
};

TEST_F(HttpServerTest, KeepAliveResponsesMatchOneShotByteForByte) {
    start();
    const std::string query =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"scheduler\":\"greedy\",\"tdp_scale\":0.8}}";

    // One-shot client: Connection: close, fresh computation.
    TestClient oneshot(server_->port());
    oneshot.send_all(whatif_wire(query, /*close=*/true));
    const TestClient::Response fresh = oneshot.read_response();
    ASSERT_EQ(fresh.status, 200) << fresh.body;
    EXPECT_EQ(fresh.headers.at("connection"), "close");
    EXPECT_TRUE(oneshot.at_eof());

    // Keep-alive client: two sequential queries over one connection.
    TestClient ka(server_->port());
    ka.send_all(whatif_wire(query));
    const TestClient::Response first = ka.read_response();
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(first.headers.at("connection"), "keep-alive");
    EXPECT_EQ(first.body, fresh.body);

    ka.send_all(whatif_wire(query));
    const TestClient::Response second = ka.read_response();
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.headers.at("x-cache"), "hit");
    EXPECT_EQ(second.body, fresh.body);  // byte-identity across transports
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
    start();
    TestClient client(server_->port());
    // Three requests in one write; the third asks to close.
    client.send_all(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /snapshots HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    const TestClient::Response r1 = client.read_response();
    const TestClient::Response r2 = client.read_response();
    const TestClient::Response r3 = client.read_response();
    EXPECT_EQ(r1.status, 200);
    EXPECT_NE(r1.body.find("\"status\""), std::string::npos);
    EXPECT_EQ(r2.status, 200);
    EXPECT_NE(r2.body.find("\"snapshots\""), std::string::npos);
    EXPECT_EQ(r3.status, 200);
    EXPECT_EQ(r3.headers.at("connection"), "close");
    EXPECT_TRUE(client.at_eof());
}

TEST_F(HttpServerTest, RequestCapClosesOversizedPipeline) {
    serve::ServerOptions opts;
    opts.max_requests_per_conn = 2;
    start(opts);
    TestClient client(server_->port());
    client.send_all(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    const TestClient::Response r1 = client.read_response();
    EXPECT_EQ(r1.headers.at("connection"), "keep-alive");
    const TestClient::Response r2 = client.read_response();
    // The cap turns the final permitted response into a close; the third
    // pipelined request is never answered.
    EXPECT_EQ(r2.status, 200);
    EXPECT_EQ(r2.headers.at("connection"), "close");
    EXPECT_TRUE(client.at_eof());
}

TEST_F(HttpServerTest, ResponsesTheServerWritesAreCounted) {
    start();
    // The parser's rejections never reach the service's handler.
    for (const auto& [request, status] :
         {std::pair<std::string, int>{"NONSENSE\r\n\r\n", 400},
          std::pair<std::string, int>{
              "POST /whatif HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
              501}}) {
        TestClient client(server_->port());
        client.send_all(request);
        EXPECT_EQ(client.read_response().status, status);
        EXPECT_TRUE(client.at_eof());
    }
    TestClient client(server_->port());
    client.send_all("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    const TestClient::Response metrics = client.read_response();
    ASSERT_EQ(metrics.status, 200);
    // The /metrics body is rendered before its own response is counted.
    const telemetry::JsonValue counters =
        telemetry::parse_json(metrics.body).at("counters");
    EXPECT_EQ(counters.at("serve.responses_2xx").u64(), 0u);
    EXPECT_EQ(counters.at("serve.responses_4xx").u64(), 1u);
    EXPECT_EQ(counters.at("serve.responses_5xx").u64(), 1u);
}

TEST_F(HttpServerTest, IdleConnectionGets408) {
    serve::ServerOptions opts;
    opts.idle_timeout_ms = 100;
    start(opts);
    // A half-written request head counts as idle input, not progress.
    TestClient client(server_->port());
    client.send_all("POST /whatif HTTP/1.1\r\n");
    const TestClient::Response resp = client.read_response();
    EXPECT_EQ(resp.status, 408);
    EXPECT_EQ(resp.headers.at("connection"), "close");
    EXPECT_TRUE(client.at_eof());
}

TEST_F(HttpServerTest, DrainAnswers503OnUndispatchedConnections) {
    start();
    // An idle keep-alive connection (one served request, none in flight)
    // and an accepted-but-unparsed connection must both be told to go.
    TestClient idle(server_->port());
    idle.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    ASSERT_EQ(idle.read_response().status, 200);

    TestClient unparsed(server_->port());
    unparsed.send_all("POST /whatif HTTP/1.1\r\n");  // never finishes
    // Give the loop a beat to accept and read the fragment.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server_->stop();
    const TestClient::Response r_idle = idle.read_response();
    EXPECT_EQ(r_idle.status, 503);
    EXPECT_EQ(r_idle.headers.at("connection"), "close");
    EXPECT_TRUE(idle.at_eof());

    const TestClient::Response r_unparsed = unparsed.read_response();
    EXPECT_EQ(r_unparsed.status, 503);
    EXPECT_EQ(r_unparsed.headers.at("connection"), "close");
    EXPECT_TRUE(unparsed.at_eof());

    thread_.join();
    server_.reset();
}

TEST_F(HttpServerTest, ReloadOverSocketKeepsAnswersByteIdentical) {
    start();
    const std::string query =
        "{\"schema\":\"mcs.whatif_query.v1\",\"snapshot\":\"warm\","
        "\"overrides\":{\"tdp_scale\":0.9}}";
    TestClient client(server_->port());

    client.send_all(whatif_wire(query));
    const TestClient::Response before = client.read_response();
    ASSERT_EQ(before.status, 200) << before.body;

    // Reload over the same keep-alive connection (the HTTP twin of
    // SIGHUP), then ask again: same fingerprints, same bytes.
    client.send_all(
        "POST /admin/reload HTTP/1.1\r\nHost: t\r\n"
        "Content-Length: 0\r\n\r\n");
    const TestClient::Response reloaded = client.read_response();
    ASSERT_EQ(reloaded.status, 200) << reloaded.body;
    EXPECT_NE(reloaded.body.find("\"reloaded\""), std::string::npos);

    client.send_all(whatif_wire(query, /*close=*/true));
    const TestClient::Response after = client.read_response();
    ASSERT_EQ(after.status, 200);
    EXPECT_EQ(after.body, before.body);
    EXPECT_TRUE(client.at_eof());

    // request_reload() (the SIGHUP byte) drives the same path; poll the
    // metrics until the asynchronous reload lands.
    server_->request_reload();
    for (int i = 0; i < 200; ++i) {
        TestClient poll(server_->port());
        poll.send_all(
            "GET /metrics HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n");
        const TestClient::Response m = poll.read_response();
        ASSERT_EQ(m.status, 200);
        const telemetry::JsonValue docm = telemetry::parse_json(m.body);
        if (docm.at("counters").at("serve.pool_reloads").number() >= 2.0) {
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "SIGHUP-style reload never landed in the metrics";
}

}  // namespace
}  // namespace mcs
