// Tests of the benchmark's own machinery: the percentile helper, the span
// self-time arithmetic, the forwarding decorators, the query panel and
// the keep-alive client.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "core/config_bridge.hpp"
#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "core/workload_engine.hpp"
#include "panel.hpp"
#include "probes.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_pool.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "util/config.hpp"

namespace {

using namespace perfbench;

std::vector<double> iota_samples(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
        v.push_back(static_cast<double>(n - i));  // unsorted on purpose
    }
    return v;
}

TEST(Percentile, LinearInterpolationBetweenOrderStatistics) {
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(quantile({10.0, 20.0}, 0.9), 19.0);
    EXPECT_DOUBLE_EQ(quantile({5.0}, 0.9), 5.0);
    // 1..101: p90 sits exactly on the 91st value.
    EXPECT_DOUBLE_EQ(quantile(iota_samples(101), 0.9), 91.0);
}

TEST(Percentile, NeedsTenSamplesBeyondTheReportedRank) {
    EXPECT_FALSE(percentile_supported(99, 90));
    EXPECT_TRUE(percentile_supported(100, 90));
    EXPECT_FALSE(percentile_supported(19, 50));
    EXPECT_TRUE(percentile_supported(20, 50));
    EXPECT_FALSE(percentile_supported(999, 99));
    EXPECT_TRUE(percentile_supported(1000, 99));

    EXPECT_FALSE(percentile(iota_samples(99), 90).has_value());
    const std::optional<Percentile> p90 = percentile(iota_samples(100), 90);
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(p90->count, 100u);
    EXPECT_DOUBLE_EQ(p90->value, quantile(iota_samples(100), 0.9));
    const std::optional<Percentile> p50 = percentile(iota_samples(20), 50);
    ASSERT_TRUE(p50.has_value());
    EXPECT_EQ(p50->count, 20u);
    EXPECT_DOUBLE_EQ(p50->value, 10.5);
}

TEST(StrideSample, KeepsAnEvenlySpacedBoundedSample) {
    StrideSample sample(8);
    for (int i = 0; i < 100; ++i) {
        sample.add(i);
    }
    EXPECT_EQ(sample.seen(), 100u);
    // Strides 1, 2, 4, 8, 16 as the buffer fills: 0, 16, ..., 96 remain.
    EXPECT_EQ(sample.values(),
              (std::vector<double>{0, 16, 32, 48, 64, 80, 96}));

    StrideSample small(8);
    small.add(3.0);
    small.add(1.0);
    EXPECT_EQ(small.values(), (std::vector<double>{3.0, 1.0}));
}

TEST(Spans, SelfTimeExcludesDirectChildren) {
    SpanRecorder spans;
    spans.set_enabled(false);
    { const ScopedSpan ignored(&spans, Layer::Thermal); }
    spans.set_enabled(true);
    spans.set_query(7);
    const std::uint32_t outer = spans.begin(Layer::Window);
    const std::uint32_t inner = spans.begin(Layer::Power);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    spans.end(inner);
    spans.end(outer);
    ASSERT_EQ(spans.spans().size(), 2u);
    EXPECT_EQ(spans.spans()[1].parent, outer);
    EXPECT_EQ(spans.spans()[1].query, 7u);

    const SpanRecorder::Totals t = spans.totals();
    const double outer_s = spans.durations(Layer::Window).at(0);
    const double inner_s = spans.durations(Layer::Power).at(0);
    EXPECT_GE(inner_s, 0.002);
    EXPECT_DOUBLE_EQ(t.self(Layer::Power), inner_s);
    EXPECT_NEAR(t.self(Layer::Window), outer_s - inner_s, 1e-12);
    EXPECT_EQ(t.count(Layer::Window), 1u);
    EXPECT_EQ(t.count(Layer::Power), 1u);
    EXPECT_EQ(t.count(Layer::Thermal), 0u);
}

// --------------------------------------------------------------- decorators

mcs::Config small_config() {
    mcs::Config c;
    c.set("side", "4");
    c.set("occupancy", "1.0");
    c.set("faults", "true");
    c.set("fault_rate", "0.05");
    c.set("seed", "11");
    return c;
}

std::string report_of(const mcs::RunMetrics& m,
                      const mcs::ManycoreSystem& sys) {
    std::ostringstream os;
    mcs::telemetry::write_run_report(m, &sys.registry(), os);
    return os.str();
}

/// A snapshot path in the working directory, removed on destruction.
struct TempFile {
    std::string path = "perfbench_test_" + std::to_string(::getpid()) +
                       "_" + std::to_string(counter++) + ".json";
    ~TempFile() { std::remove(path.c_str()); }
    static inline int counter = 0;
};

constexpr mcs::SimDuration kHorizon = 2500 * mcs::kMillisecond;
constexpr mcs::SimTime kCapture = 1800 * mcs::kMillisecond;

TEST(Decorators, ForwardNameTelemetryAndState) {
    const mcs::SystemConfig plain = mcs::system_config_from(small_config());
    mcs::ManycoreSystem reference(plain);
    const std::string expected = report_of(reference.run(kHorizon), reference);

    // Decorated uninterrupted run: same report and registry bytes.
    SpanRecorder spans;
    MapperCounts counts;
    mcs::SystemConfig decorated = plain;
    install_decorators(decorated, &spans, &counts);
    mcs::ManycoreSystem traced(decorated);
    EXPECT_EQ(traced.scheduler().name(), reference.scheduler().name());
    EXPECT_EQ(traced.mapper().name(), reference.mapper().name());
    const TempFile snapshot;
    traced.checkpoint_at(kCapture, snapshot.path);
    EXPECT_EQ(report_of(traced.run(kHorizon), traced), expected);
    EXPECT_GT(counts.attempts, 0u);
    EXPECT_EQ(counts.attempts,
              traced.workload_engine().mapping_attempts());
    EXPECT_GT(spans.totals().count(Layer::TestPolicy), 0u);
    EXPECT_EQ(spans.totals().count(Layer::Mapping), counts.attempts);

    // save_state/load_state forward: a decorated restore continues the
    // captured run byte for byte (the power-aware policy carries state).
    MapperCounts restored_counts;
    mcs::SystemConfig restored_cfg = plain;
    install_decorators(restored_cfg, nullptr, &restored_counts);
    mcs::ManycoreSystem restored(restored_cfg);
    restored.restore(mcs::load_snapshot_file(snapshot.path));
    EXPECT_EQ(report_of(restored.run(kHorizon), restored), expected);
}

TEST(Decorators, MirrorEveryConfiguredPolicy) {
    for (const char* scheduler :
         {"power-aware", "periodic", "greedy", "deadline", "none"}) {
        for (const char* mapper : {"test-aware", "reliability-weighted"}) {
            mcs::Config c = small_config();
            c.set("scheduler", scheduler);
            c.set("mapper", mapper);
            const mcs::SystemConfig plain = mcs::system_config_from(c);
            mcs::ManycoreSystem a(plain);
            MapperCounts counts;
            mcs::SystemConfig decorated = plain;
            install_decorators(decorated, nullptr, &counts);
            mcs::ManycoreSystem b(decorated);
            const mcs::SimDuration horizon = 600 * mcs::kMillisecond;
            EXPECT_EQ(report_of(b.run(horizon), b),
                      report_of(a.run(horizon), a))
                << scheduler << " / " << mapper;
        }
    }
}

// -------------------------------------------------------------------- panel

TEST(Panel, PureFunctionOfTheSeed) {
    const std::vector<std::string> a = make_panel(5, 120, "warm");
    EXPECT_EQ(a, make_panel(5, 120, "warm"));
    EXPECT_NE(a, make_panel(6, 120, "warm"));
    EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
}

TEST(Panel, QueriesParseAndStratifyThePolicies) {
    const std::vector<std::string> panel = make_panel(9, 60, "warm");
    std::set<std::string> keys;
    std::map<std::string, int> combos;
    for (const std::string& body : panel) {
        const mcs::serve::WhatIfQuery q = mcs::serve::parse_whatif_query(body);
        EXPECT_EQ(q.snapshot, "warm");
        EXPECT_EQ(q.overrides.size(), 4u);
        ++combos[q.overrides.at("scheduler") + "/" + q.overrides.at("mapper")];
        std::string key;
        for (const auto& [k, v] : q.overrides) {
            key += k + "=" + v + ";";
        }
        keys.insert(key);
    }
    EXPECT_EQ(keys.size(), panel.size());  // distinct after canonicalizing
    EXPECT_EQ(combos.size(), 30u);         // 5 schedulers x 6 mappers
    for (const auto& [combo, n] : combos) {
        EXPECT_EQ(n, 2) << combo;
    }
}

// ------------------------------------------------------------------- client

TEST(KeepAliveClient, ReconnectsAtTheServersKeepAliveCap) {
    const mcs::Config base = small_config();
    const TempFile snapshot;
    {
        mcs::ManycoreSystem sys(mcs::system_config_from(base));
        sys.checkpoint_at(200 * mcs::kMillisecond, snapshot.path);
        sys.run(300 * mcs::kMillisecond);
    }
    mcs::telemetry::MetricsRegistry registry;
    mcs::serve::ServeService service(
        mcs::serve::SnapshotPool::from_document(
            "warm", mcs::load_snapshot_file(snapshot.path), base),
        mcs::serve::ServiceOptions{}, registry);
    mcs::serve::ServerOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.quiet = true;
    opts.max_requests_per_conn = 3;
    mcs::serve::HttpServer server(service, opts);
    std::thread loop([&server] { server.run(); });
    struct Stopper {
        mcs::serve::HttpServer& server;
        std::thread& loop;
        ~Stopper() {
            server.stop();
            loop.join();
        }
    } stopper{server, loop};

    KeepAliveClient client(server.port());
    const std::string wire = whatif_wire(identity_query("warm"));
    std::string first;
    int closes = 0;
    for (int i = 0; i < 10; ++i) {
        const KeepAliveClient::Response r = client.roundtrip(wire);
        EXPECT_EQ(r.status, 200) << r.body;
        EXPECT_EQ(r.x_cache, i == 0 ? "miss" : "hit");
        if (i == 0) {
            first = r.body;
        }
        EXPECT_EQ(r.body, first);
        closes += r.close ? 1 : 0;
    }
    EXPECT_EQ(closes, 3);  // after responses 3, 6 and 9
    EXPECT_EQ(client.reconnects(), 3u);
}

}  // namespace
