#pragma once

// Minimal deterministic JSON support for the telemetry subsystem.
//
// The writer produces byte-stable output: numbers are rendered with the
// shortest locale-independent decimal text that round-trips (so the bytes
// depend only on the values, never on locale or formatting state), and all
// container contents are emitted in the order the caller provides them.
// The parser covers the subset this repo emits (objects, arrays, strings,
// finite numbers, booleans, null). Since the serve subsystem exposes it to
// network input it enforces resource limits -- a maximum document size and
// a maximum container nesting depth -- and rejects violations with clean
// RequireErrors instead of exhausting stack or memory. Callers parsing
// untrusted bytes should pass a JsonLimits tightened to their use case.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcs::telemetry {

/// Shortest decimal text that strtod round-trips to exactly `v`;
/// locale-independent. NaN/inf (not valid JSON numbers) render as null.
std::string json_number(double v);

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Streaming JSON writer with explicit structure calls. Produces compact
/// one-line output; the caller is responsible for calling begin/end pairs
/// in a well-formed order (checked with assertions in debug builds).
class JsonWriter {
public:
    explicit JsonWriter(std::ostream& out) : out_(out) {}

    void begin_object();
    void end_object();
    void begin_array();
    void end_array();

    /// Emits `"name":` inside an object (with any needed comma).
    void key(std::string_view name);

    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool v);
    void value(std::string_view v);
    void value(const char* v) { value(std::string_view(v)); }
    void null();

    // Convenience: `key(name); value(v);`
    template <typename T>
    void field(std::string_view name, T v) {
        key(name);
        value(v);
    }

private:
    void separate();

    std::ostream& out_;
    // One entry per open container: whether a value has been written.
    std::vector<bool> has_item_;
    bool pending_key_ = false;
};

/// Resource limits for parse_json. The defaults accommodate every mcs.*
/// artifact (snapshots included) while still bounding hostile input; the
/// serve request path uses much tighter limits (serve/query.cpp).
struct JsonLimits {
    /// Maximum document size in bytes (0 disables the check).
    std::size_t max_bytes = std::size_t{1} << 30;
    /// Maximum depth of nested containers; the document value itself is
    /// depth 1, so `{"a":[1]}` needs max_depth >= 2.
    std::size_t max_depth = 96;
};

class JsonValue;

/// Parses a complete JSON document. Throws RequireError on malformed
/// input, trailing garbage, or a limit violation.
JsonValue parse_json(std::string_view text, const JsonLimits& limits = {});

/// Parsed JSON value. The parser is its only writer; readers go through
/// the kind-checked accessors below, each of which throws RequireError
/// naming the expected and the found kind ("JSON: expected bool, found
/// number"), so a document with a mutated field type fails at the first
/// read of that field instead of reading a default.
class JsonValue {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };
    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    Kind kind() const { return kind_; }

    bool boolean() const {
        expect(Kind::Bool);
        return boolean_;
    }
    double number() const {
        expect(Kind::Number);
        return number_;
    }
    const std::string& string() const {
        expect(Kind::String);
        return string_;
    }
    const Array& array() const {
        expect(Kind::Array);
        return array_;
    }
    const Object& object() const {
        expect(Kind::Object);
        return object_;
    }

    /// Object member access; throws RequireError if absent or not an
    /// object.
    const JsonValue& at(const std::string& name) const;
    /// True iff this is an object with a member `name`.
    bool has(const std::string& name) const;

    /// Exact unsigned 64-bit value of a non-negative integer number token.
    /// A double cannot represent every 64-bit integer (precision ends at
    /// 2^53), so this reparses the number's token text: checkpoint fields
    /// like RNG state words and event sequence numbers round-trip
    /// exactly. Throws RequireError for non-numbers, negatives, or
    /// fractions.
    std::uint64_t u64() const;

    /// Exact signed 64-bit value of an integer number token.
    std::int64_t i64() const;

    /// An array of scalars copied into a vector, each element read through
    /// the matching accessor above.
    std::vector<double> numbers() const;
    std::vector<std::uint64_t> u64s() const;
    std::vector<bool> booleans() const;

private:
    friend JsonValue parse_json(std::string_view, const JsonLimits&);
    class Parser;

    void expect(Kind k) const {
        if (kind_ != k) {
            kind_mismatch(k);
        }
    }
    [[noreturn]] void kind_mismatch(Kind expected) const;

    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    /// Token text of a number, reparsed by u64()/i64().
    std::string raw_;
    std::string string_;
    Array array_;
    Object object_;
};

// ------------------------------------------------------ snapshot codecs
// Exact round-trips for value types that several components persist in
// their save_state/load_state.

/// RNG engine state as an array of its 4 raw words under `key`.
void write_rng(JsonWriter& w, std::string_view key, const Rng& rng);
Rng read_rng(const JsonValue& doc, const std::string& key);

/// Per-entity latent fault slots of an injector under `key`: the index of
/// the entity's latent fault in the injector's history, -1 for none.
void write_latent_slots(JsonWriter& w, std::string_view key,
                        const std::vector<std::optional<std::size_t>>& slots);
/// Every stored slot must index into a history of `history_size` entries.
std::vector<std::optional<std::size_t>> read_latent_slots(
    const JsonValue& doc, const std::string& key, std::size_t history_size);

/// Welford accumulator state as one object (n, mean, m2, sum, min, max).
void write_running_stats(JsonWriter& w, const RunningStats& s);
RunningStats read_running_stats(const JsonValue& doc);

}  // namespace mcs::telemetry
