#include "spans.hpp"

#include <fstream>

#include "util/require.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, kLayerCount> kNames = {
    "window",            "power",            "thermal",
    "test",              "test.policy",      "aging",
    "telemetry.trace",   "mapping",          "config.bridge",
    "core.build",        "snapshot.restore", "snapshot.load",
    "sim.run",           "telemetry.report", "serve.http_parse",
    "serve.query_parse", "serve.cache_key",  "serve.cache_find",
    "serve.serialize",
};

}  // namespace

const char* layer_name(Layer layer) {
    return kNames.at(static_cast<std::size_t>(layer));
}

double seconds_between(SpanRecorder::Clock::time_point a,
                       SpanRecorder::Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::uint32_t SpanRecorder::begin(Layer layer) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.layer = layer;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.query = query_;
    spans_.push_back(span);
    open_.push_back(index);
    // Read the clock last so the bookkeeping above stays outside the span.
    spans_.back().start = Clock::now();
    return index;
}

void SpanRecorder::end(std::uint32_t index) {
    const Clock::time_point now = Clock::now();
    MCS_REQUIRE(!open_.empty() && open_.back() == index,
                "spans must close innermost first");
    open_.pop_back();
    spans_[index].end = now;
}

SpanRecorder::Totals SpanRecorder::totals(std::size_t first) const {
    Totals t;
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double d = seconds_between(s.start, s.end);
        t.self_s[static_cast<std::size_t>(s.layer)] += d;
        ++t.calls[static_cast<std::size_t>(s.layer)];
        if (s.parent != kNoParent && s.parent >= first) {
            t.self_s[static_cast<std::size_t>(spans_[s.parent].layer)] -= d;
        }
    }
    return t;
}

std::vector<double> SpanRecorder::durations(Layer layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.layer == layer) {
            out.push_back(seconds_between(s.start, s.end));
        }
    }
    return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    MCS_REQUIRE(out.good(), "cannot open span file: " + path);
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
            .count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << layer_name(s.layer)
            << "\",\"query\":" << s.query << ",\"parent\":";
        if (s.parent == kNoParent) {
            out << "null";
        } else {
            out << s.parent;
        }
        out << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
            << "}\n";
    }
    out.flush();
    MCS_REQUIRE(out.good(), "span file write failed: " + path);
}

}  // namespace perfbench
