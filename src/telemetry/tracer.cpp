#include "telemetry/tracer.hpp"

#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs::telemetry {

std::string_view to_string(TraceCategory cat) {
    switch (cat) {
        case TraceCategory::Sim: return "sim";
        case TraceCategory::Workload: return "workload";
        case TraceCategory::Session: return "session";
        case TraceCategory::Dvfs: return "dvfs";
        case TraceCategory::Power: return "power";
        case TraceCategory::Noc: return "noc";
    }
    return "?";
}

namespace {

std::string_view phase_text(TracePhase phase) {
    switch (phase) {
        case TracePhase::Instant: return "i";
        case TracePhase::Begin: return "B";
        case TracePhase::End: return "E";
    }
    return "?";
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : buf_(capacity) {
    MCS_REQUIRE(capacity > 0, "tracer capacity must be positive");
}

void Tracer::store(const TraceEvent& e) noexcept {
    if (count_ == buf_.size()) {
        ++dropped_;  // overwrite the oldest event
    } else {
        ++count_;
    }
    buf_[next_] = e;
    next_ = (next_ + 1) % buf_.size();
}

void Tracer::clear() noexcept {
    next_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void Tracer::for_each(
    const std::function<void(const TraceEvent&)>& fn) const {
    const std::size_t first = (next_ + buf_.size() - count_) % buf_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        fn(buf_[(first + i) % buf_.size()]);
    }
}

void Tracer::write_chrome_json(std::ostream& out) const {
    JsonWriter w(out);
    w.begin_object();
    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.begin_object();
    w.field("dropped_events", dropped_);
    w.end_object();
    w.key("traceEvents");
    w.begin_array();
    for_each([&](const TraceEvent& e) {
        w.begin_object();
        w.field("name", e.name);
        w.field("cat", to_string(e.cat));
        w.field("ph", phase_text(e.phase));
        // Chrome-trace timestamps are microseconds; SimTime is integer
        // nanoseconds, so this division is exact to 1/1000 us.
        w.field("ts", static_cast<double>(e.time) / 1e3);
        w.field("pid", std::int64_t{0});
        w.field("tid", static_cast<std::int64_t>(e.tid));
        if (e.phase != TracePhase::End) {
            w.key("args");
            w.begin_object();
            w.field("a", e.a);
            w.field("b", e.b);
            w.end_object();
        }
        w.end_object();
    });
    w.end_array();
    w.end_object();
    out << '\n';
}

void Tracer::write_jsonl(std::ostream& out) const {
    for_each([&](const TraceEvent& e) {
        JsonWriter w(out);
        w.begin_object();
        w.field("t_ns", static_cast<std::uint64_t>(e.time));
        w.field("cat", to_string(e.cat));
        w.field("ph", phase_text(e.phase));
        w.field("name", e.name);
        w.field("tid", static_cast<std::int64_t>(e.tid));
        w.field("a", e.a);
        w.field("b", e.b);
        w.end_object();
        out << '\n';
    });
}

void Tracer::save_state(JsonWriter& w) const {
    w.begin_object();
    w.field("capacity", static_cast<std::uint64_t>(buf_.size()));
    w.field("dropped", dropped_);
    w.key("events");
    w.begin_array();
    for_each([&](const TraceEvent& e) {
        w.begin_object();
        w.field("t", static_cast<std::uint64_t>(e.time));
        w.field("name", e.name);
        w.field("a", e.a);
        w.field("b", e.b);
        w.field("tid", static_cast<std::uint64_t>(e.tid));
        w.field("cat", static_cast<std::uint64_t>(e.cat));
        w.field("ph", static_cast<std::uint64_t>(e.phase));
        w.end_object();
    });
    w.end_array();
    w.end_object();
}

const char* Tracer::intern(const std::string& name) {
    const auto it = interned_.find(name);
    if (it != interned_.end()) {
        return it->second;
    }
    name_pool_.push_back(name);
    const char* stable = name_pool_.back().c_str();
    interned_.emplace(name, stable);
    return stable;
}

void Tracer::load_state(const JsonValue& doc) {
    const std::uint64_t capacity = doc.at("capacity").u64();
    MCS_REQUIRE(capacity == buf_.size(),
                "tracer state capacity mismatch: snapshot has " +
                    std::to_string(capacity));
    clear();
    const auto& events = doc.at("events").array();
    MCS_REQUIRE(events.size() <= buf_.size(),
                "tracer state holds more events than its capacity");
    for (const auto& e : events) {
        const std::uint64_t cat = e.at("cat").u64();
        const std::uint64_t ph = e.at("ph").u64();
        MCS_REQUIRE(cat <= static_cast<std::uint64_t>(TraceCategory::Noc),
                    "tracer state: unknown trace category");
        MCS_REQUIRE(ph <= static_cast<std::uint64_t>(TracePhase::End),
                    "tracer state: unknown trace phase");
        store(TraceEvent{static_cast<SimTime>(e.at("t").u64()),
                         intern(e.at("name").string()), e.at("a").i64(),
                         e.at("b").i64(),
                         static_cast<std::uint32_t>(e.at("tid").u64()),
                         static_cast<TraceCategory>(cat),
                         static_cast<TracePhase>(ph)});
    }
    dropped_ = doc.at("dropped").u64();
}

}  // namespace mcs::telemetry
