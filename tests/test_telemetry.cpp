#include <clocale>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/tracer.hpp"
#include "util/require.hpp"

namespace mcs::telemetry {
namespace {

std::string registry_json(const MetricsRegistry& r) {
    std::ostringstream out;
    JsonWriter w(out);
    r.write_json(w);
    return out.str();
}

std::string chrome_json(const Tracer& t) {
    std::ostringstream out;
    t.write_chrome_json(out);
    return out.str();
}

TEST(JsonNumber, RoundTripsExactly) {
    for (double v : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                     3.141592653589793, 0.503, 65.0 / 3.0}) {
        const std::string text = json_number(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_EQ(json_number(std::nan("")), "null");
    EXPECT_EQ(json_number(INFINITY), "null");
}

TEST(JsonNumber, IsLocaleIndependent) {
    // snprintf/strtod honour LC_NUMERIC; charconv must not.
    if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
        GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
    }
    const std::string text = json_number(0.5);
    const double parsed = parse_json("1.25e2").number();
    std::setlocale(LC_NUMERIC, "C");
    EXPECT_EQ(text, "0.5");
    EXPECT_DOUBLE_EQ(parsed, 125.0);
}

TEST(JsonParser, EnforcesNestingDepthLimit) {
    // A nesting bomb ("[[[[...") must be rejected with a clean error, not
    // a stack overflow -- parse_json now fronts network input (mcs_serve).
    JsonLimits limits;
    limits.max_depth = 8;
    std::string ok(8, '[');
    ok += std::string(8, ']');
    EXPECT_EQ(parse_json(ok, limits).array().size(), 1u);

    std::string bomb(9, '[');
    bomb += std::string(9, ']');
    try {
        parse_json(bomb, limits);
        FAIL() << "depth bomb was accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("nesting exceeds max depth"),
                  std::string::npos)
            << e.what();
    }

    // Objects count toward the same depth budget.
    EXPECT_THROW(parse_json(R"({"a":{"b":[[[[[[[0]]]]]]]}})", limits),
                 RequireError);

    // The default limit still admits realistically nested documents but
    // stops an unbounded bomb well before the stack does.
    EXPECT_NO_THROW(parse_json(R"({"a":[{"b":[{"c":[1]}]}]})"));
    std::string deep(10000, '[');
    EXPECT_THROW(parse_json(deep), RequireError);
}

TEST(JsonParser, EnforcesDocumentSizeLimit) {
    JsonLimits limits;
    limits.max_bytes = 16;
    EXPECT_NO_THROW(parse_json(R"({"a":1})", limits));
    try {
        parse_json(R"({"key":"0123456789"})", limits);
        FAIL() << "oversized document was accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("exceeds max size"),
                  std::string::npos)
            << e.what();
    }
    // 0 disables the bound.
    JsonLimits unlimited;
    unlimited.max_bytes = 0;
    EXPECT_NO_THROW(parse_json(R"({"key":"0123456789"})", unlimited));
}

TEST(JsonParser, MalformedInputYieldsCleanErrors) {
    for (const char* bad :
         {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"unterminated",
          "1e", "{\"a\":1,}", "[1]trailing", "{\"a\":1 \"b\":2}"}) {
        EXPECT_THROW(parse_json(bad), RequireError) << bad;
    }
}

TEST(JsonValue, AccessorsRejectOtherKinds) {
    using Kind = JsonValue::Kind;
    const std::pair<const char*, Kind> samples[] = {
        {"null", Kind::Null},     {"true", Kind::Bool},
        {"7", Kind::Number},      {"\"s\"", Kind::String},
        {"[1]", Kind::Array},     {"{\"k\":1}", Kind::Object},
    };
    for (const auto& [text, kind] : samples) {
        const JsonValue v = parse_json(text);
        EXPECT_EQ(v.kind(), kind) << text;
        const auto accepts = [&](Kind k, const auto& read) {
            if (kind == k) {
                EXPECT_NO_THROW(read()) << text;
            } else {
                EXPECT_THROW(read(), RequireError) << text;
            }
        };
        accepts(Kind::Bool, [&] { return v.boolean(); });
        accepts(Kind::Number, [&] { return v.number(); });
        accepts(Kind::Number, [&] { return v.u64(); });
        accepts(Kind::Number, [&] { return v.i64(); });
        accepts(Kind::String, [&] { return v.string(); });
        accepts(Kind::Array, [&] { return v.array(); });
        accepts(Kind::Array, [&] { return v.numbers(); });
        accepts(Kind::Array, [&] { return v.u64s(); });
        if (kind != Kind::Array) {
            EXPECT_THROW(v.booleans(), RequireError) << text;
        }
        accepts(Kind::Object, [&] { return v.object(); });
        accepts(Kind::Object, [&] { return v.at("k"); });
        EXPECT_EQ(v.has("k"), kind == Kind::Object) << text;
    }
    // The array copies check every element, not just the container.
    EXPECT_THROW(parse_json("[1,\"2\"]").numbers(), RequireError);
    EXPECT_THROW(parse_json("[1,-2]").u64s(), RequireError);
    EXPECT_THROW(parse_json("[true,0]").booleans(), RequireError);
    EXPECT_EQ(parse_json("[true,false]").booleans(),
              (std::vector<bool>{true, false}));
    try {
        parse_json("1").boolean();
        ADD_FAILURE() << "a number read as a bool";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("JSON: expected bool, found "
                                             "number"),
                  std::string::npos)
            << e.what();
    }
    // Containers and strings come back by reference, never copied.
    const JsonValue doc = parse_json(R"({"s":"text","a":[1,2]})");
    EXPECT_EQ(&doc.object(), &doc.object());
    EXPECT_EQ(&doc.at("s").string(), &doc.at("s").string());
    EXPECT_EQ(&doc.at("a").array(), &doc.at("a").array());
}

TEST(JsonValue, ObjectsKeepTheFirstRepeatedKeyInKeyOrder) {
    const JsonValue doc = parse_json(R"({"b":1,"a":2,"b":3,"abc":4})");
    EXPECT_EQ(doc.at("b").u64(), 1u);
    EXPECT_EQ(doc.at("a").u64(), 2u);
    EXPECT_EQ(doc.at("abc").u64(), 4u);
    std::string order;
    for (const auto& [key, value] : doc.object()) {
        order += (order.empty() ? "" : " ") + key;
    }
    EXPECT_EQ(order, "a abc b");
    EXPECT_EQ(doc.object().size(), 3u);
    EXPECT_FALSE(doc.has("ab"));
    EXPECT_FALSE(doc.has(""));
    EXPECT_THROW(doc.at("ab"), RequireError);
}

TEST(JsonValue, IntegerReadsAcceptExactlyTheIntegerTokensInRange) {
    struct Row {
        const char* token;
        std::optional<std::uint64_t> u64;
        std::optional<std::int64_t> i64;
    };
    constexpr auto kI64Min = std::numeric_limits<std::int64_t>::min();
    const Row rows[] = {
        {"0", 0, 0},
        {"007", 7, 7},
        {"18446744073709551615", std::numeric_limits<std::uint64_t>::max(),
         std::nullopt},
        {"9223372036854775808", std::uint64_t{1} << 63, std::nullopt},
        {"18446744073709551616", std::nullopt, std::nullopt},
        {"-9223372036854775809", std::nullopt, std::nullopt},
        {"-9223372036854775808", std::nullopt, kI64Min},
        {"-0", std::nullopt, 0},
        {"-1", std::nullopt, -1},
        {"1.0", std::nullopt, std::nullopt},
        {"1e3", std::nullopt, std::nullopt},
        {"1E2", std::nullopt, std::nullopt},
        {"0.5", std::nullopt, std::nullopt},
    };
    for (const Row& row : rows) {
        const JsonValue v = parse_json(row.token);
        if (row.u64) {
            EXPECT_EQ(v.u64(), *row.u64) << row.token;
        } else {
            EXPECT_THROW(v.u64(), RequireError) << row.token;
        }
        if (row.i64) {
            EXPECT_EQ(v.i64(), *row.i64) << row.token;
        } else {
            EXPECT_THROW(v.i64(), RequireError) << row.token;
        }
    }
}

TEST(JsonWriter, EscapesAndNests) {
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    w.field("s", "a\"b\\c\n");
    w.key("arr");
    w.begin_array();
    w.value(std::int64_t{-3});
    w.value(true);
    w.null();
    w.end_array();
    w.end_object();
    EXPECT_EQ(out.str(), R"({"s":"a\"b\\c\n","arr":[-3,true,null]})");
    const JsonValue v = parse_json(out.str());
    EXPECT_EQ(v.at("s").string(), "a\"b\\c\n");
    EXPECT_EQ(v.at("arr").array().size(), 3u);
}

TEST(MetricsRegistry, CreateOnFirstUseWithStableReferences) {
    MetricsRegistry r;
    Counter& c = r.counter("system.tests_completed");
    c.inc();
    Counter& again = r.counter("system.tests_completed");
    EXPECT_EQ(&c, &again);
    again.inc(4);
    EXPECT_EQ(c.value(), 5u);

    Gauge& g = r.gauge("system.peak_temp_c");
    g.set(71.5);
    EXPECT_DOUBLE_EQ(r.gauge("system.peak_temp_c").value(), 71.5);

    EXPECT_EQ(r.find_counter("system.tests_completed"), &c);
    EXPECT_EQ(r.find_counter("no.such.metric"), nullptr);
    EXPECT_EQ(r.size(), 2u);
}

TEST(MetricsRegistry, HistogramLayoutIsFixedAtFirstRegistration) {
    MetricsRegistry r;
    Histogram& h = r.histogram("system.app_latency_ms", 0.0, 100.0, 10);
    h.add(42.0);
    EXPECT_EQ(&r.histogram("system.app_latency_ms", 0.0, 100.0, 10), &h);
    EXPECT_THROW(r.histogram("system.app_latency_ms", 0.0, 50.0, 10),
                 RequireError);
}

TEST(MetricsRegistry, ExportIsSortedByName) {
    MetricsRegistry r;
    r.counter("zeta").inc();
    r.counter("alpha").inc(2);
    const std::string json = registry_json(r);
    EXPECT_LT(json.find("alpha"), json.find("zeta"));
    const JsonValue v = parse_json(json);
    EXPECT_DOUBLE_EQ(v.at("counters").at("alpha").number(), 2.0);
}

TEST(MetricsRegistry, LoadStateRestoresWriteJsonInPlace) {
    MetricsRegistry r;
    r.counter("system.tests_completed").inc(42);
    r.gauge("system.mean_power_w").set(65.0 / 3.0);
    Histogram& h = r.histogram("system.app_latency_ms", 0.0, 100.0, 10);
    h.add(-1.0);
    h.add(12.0);
    h.add(250.0);
    const std::string json = registry_json(r);

    MetricsRegistry restored;
    Counter& cached = restored.counter("system.tests_completed");
    restored.load_state(parse_json(json));
    EXPECT_EQ(registry_json(restored), json);
    EXPECT_EQ(cached.value(), 42u);
    EXPECT_EQ(&restored.counter("system.tests_completed"), &cached);
}

TEST(MetricsRegistry, LoadStateRejectsTypeMutations) {
    const auto load = [](const std::string& counters,
                         const std::string& gauges) {
        MetricsRegistry r;
        r.load_state(parse_json(R"({"counters":)" + counters +
                                R"(,"gauges":)" + gauges +
                                R"(,"histograms":{}})"));
    };
    EXPECT_NO_THROW(load(R"({"c":1})", R"({"g":70.5})"));
    // The checkpoint form that carried a gauge merge policy.
    EXPECT_THROW(load("{}", R"({"g":{"merge":"max","value":70,"count":1}})"),
                 RequireError);
    EXPECT_THROW(load("{}", R"({"g":"70.5"})"), RequireError);
    EXPECT_THROW(load(R"({"c":"1"})", "{}"), RequireError);
}

TEST(Tracer, RingBufferWrapsAndCountsDrops) {
    Tracer t(4);
    for (int i = 0; i < 10; ++i) {
        t.record(static_cast<SimTime>(i), TraceCategory::Sim,
                 TracePhase::Instant, "tick", 0, i);
    }
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    std::vector<std::int64_t> seen;
    t.for_each([&](const TraceEvent& e) { seen.push_back(e.a); });
    EXPECT_EQ(seen, (std::vector<std::int64_t>{6, 7, 8, 9}));
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, LoadStateRejectsTypeMutations) {
    Tracer t(8);
    t.record(5, TraceCategory::Sim, TracePhase::Instant, "tick", 1, 2);
    std::ostringstream out;
    JsonWriter w(out);
    t.save_state(w);
    std::string state = out.str();
    Tracer restored(8);
    ASSERT_NO_THROW(restored.load_state(parse_json(state)));

    const std::string name = "\"name\":\"tick\"";
    const std::size_t pos = state.find(name);
    ASSERT_NE(pos, std::string::npos) << state;
    state.replace(pos, name.size(), "\"name\":7");
    EXPECT_THROW(restored.load_state(parse_json(state)), RequireError);
}

TEST(Tracer, ChromeJsonIsByteDeterministicAndParses) {
    auto feed = [](Tracer& t) {
        t.record(1'000, TraceCategory::Session, TracePhase::Begin,
                 "test_session", 5, 2);
        t.record(2'500, TraceCategory::Dvfs, TracePhase::Instant, "vf_change",
                 5, 3, 1);
        t.record(4'000, TraceCategory::Session, TracePhase::End,
                 "test_session", 5);
    };
    Tracer t1(16), t2(16);
    feed(t1);
    feed(t2);
    const std::string json = chrome_json(t1);
    EXPECT_EQ(json, chrome_json(t2));

    const JsonValue v = parse_json(json);
    const auto& events = v.at("traceEvents").array();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("ph").string(), "B");
    EXPECT_EQ(events[0].at("cat").string(), "session");
    EXPECT_DOUBLE_EQ(events[0].at("ts").number(), 1.0);  // ns -> us
    EXPECT_EQ(events[1].at("ph").string(), "i");

    std::ostringstream jsonl;
    t1.write_jsonl(jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(parse_json(line).kind(), JsonValue::Kind::Object) << line;
        ++n;
    }
    EXPECT_EQ(n, 3u);
}

TEST(RunReport, RoundTripsThroughParserDeterministically) {
    RunMetrics m;
    m.sim_time = 2 * kSecond;
    m.tests_completed = 42;
    m.mean_power_w = 65.0 / 3.0;
    MetricsRegistry reg;
    reg.counter("system.tests_completed").inc(42);
    reg.gauge("system.mean_power_w").set(65.0 / 3.0);
    reg.histogram("system.app_latency_ms", 0.0, 500.0, 50).add(12.0);

    std::ostringstream out1, out2;
    write_run_report(m, &reg, out1);
    write_run_report(m, &reg, out2);
    EXPECT_EQ(out1.str(), out2.str());

    const JsonValue v = parse_json(out1.str());
    EXPECT_EQ(v.at("schema").string(), "mcs.run_report.v1");
    EXPECT_DOUBLE_EQ(v.at("metrics").at("tests_completed").number(), 42.0);
    EXPECT_DOUBLE_EQ(v.at("metrics").at("mean_power_w").number(), 65.0 / 3.0);
    EXPECT_DOUBLE_EQ(
        v.at("registry").at("counters").at("system.tests_completed").number(),
        42.0);
    // Reports must stay wall-clock-free to be byte-reproducible.
    EXPECT_FALSE(v.has("wall_s"));
}

}  // namespace
}  // namespace mcs::telemetry
