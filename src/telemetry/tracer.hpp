#pragma once

// Deterministic run tracing: a fixed-capacity ring buffer of simulator
// events (test sessions, DVFS transitions, capping interventions, mapping
// decisions, ...) exportable as Chrome-trace JSON (chrome://tracing,
// https://ui.perfetto.dev) or as JSONL for ad-hoc tooling.
//
// Overhead contract: tracing is off when a call site holds a null
// Tracer*, which costs one predictable branch; an attached tracer costs
// one ring-buffer store per event (no allocation after construction, no
// locking -- the simulator is single-threaded). Every event carries an
// explicit simulated time. Event names must be string literals (the
// buffer stores the pointer).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mcs::telemetry {

class JsonWriter;
class JsonValue;

enum class TraceCategory : std::uint8_t {
    Sim,       ///< simulator lifecycle (run begin/end)
    Workload,  ///< application arrival / mapping / completion
    Session,   ///< SBST test-session lifecycle
    Dvfs,      ///< per-core V/F transitions
    Power,     ///< capping interventions, power gating
    Noc,       ///< link-test lifecycle
};

/// Chrome-trace phases (the subset this tracer emits).
enum class TracePhase : std::uint8_t {
    Instant,  ///< "i": a point event
    Begin,    ///< "B": opens a duration slice on (pid 0, tid)
    End,      ///< "E": closes the innermost slice on (pid 0, tid)
};

std::string_view to_string(TraceCategory cat);

/// One recorded event. `tid` is the Chrome-trace track -- this repo uses
/// the core id (or 0 for chip-level events). `a`/`b` are small integer
/// arguments whose meaning is event-specific (documented per event in
/// docs/telemetry.md).
struct TraceEvent {
    SimTime time = 0;
    const char* name = "";
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::uint32_t tid = 0;
    TraceCategory cat = TraceCategory::Sim;
    TracePhase phase = TracePhase::Instant;
};

class Tracer {
public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    void record(SimTime time, TraceCategory cat, TracePhase phase,
                const char* name, std::uint32_t tid = 0, std::int64_t a = 0,
                std::int64_t b = 0) {
        store(TraceEvent{time, name, a, b, tid, cat, phase});
    }

    std::size_t capacity() const noexcept { return buf_.size(); }
    /// Events currently retained (<= capacity()).
    std::size_t size() const noexcept { return count_; }
    /// Events overwritten because the buffer wrapped.
    std::uint64_t dropped() const noexcept { return dropped_; }
    void clear() noexcept;

    /// Visits retained events oldest-first.
    void for_each(const std::function<void(const TraceEvent&)>& fn) const;

    /// Chrome-trace JSON object ({"traceEvents":[...]}); `ts` is simulated
    /// microseconds. Byte-deterministic for identical event sequences.
    void write_chrome_json(std::ostream& out) const;

    /// One compact JSON object per line, schema-stable for stream tooling.
    void write_jsonl(std::ostream& out) const;

    /// Exact ring state (events oldest-first plus the drop count), for the
    /// snapshot document. Restoring it via load_state reproduces identical
    /// write_chrome_json/write_jsonl bytes.
    void save_state(JsonWriter& w) const;

    /// Replaces the ring contents with a save_state() document. Capacity
    /// must match the capacity the state was captured with. Event names are
    /// re-interned into a pool owned by this tracer (live call sites store
    /// string-literal pointers; restored events cannot).
    void load_state(const JsonValue& doc);

private:
    void store(const TraceEvent& e) noexcept;
    const char* intern(const std::string& name);

    std::vector<TraceEvent> buf_;
    std::size_t next_ = 0;   ///< slot the next event lands in
    std::size_t count_ = 0;  ///< retained events
    std::uint64_t dropped_ = 0;
    // Owned storage for names restored from a snapshot. A deque never
    // reallocates existing elements, so the c_str() pointers stay stable.
    std::deque<std::string> name_pool_;
    std::map<std::string, const char*, std::less<>> interned_;
};

}  // namespace mcs::telemetry
