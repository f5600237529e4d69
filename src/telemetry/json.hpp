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
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
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
///
/// Representation: one std::variant whose index is the Kind. A number
/// holds its double and, for an integer token (`-?[0-9]+`) in 64-bit
/// range, the exact integer, decoded once at parse time. An object is one
/// vector of (key, value) members sorted by key; when a key repeats, the
/// first value is kept and the later ones are dropped (std::map::emplace's
/// rule), and at()/has() binary-search it.
class JsonValue {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };
    using Array = std::vector<JsonValue>;
    using Member = std::pair<std::string, JsonValue>;
    using Object = std::vector<Member>;

    Kind kind() const { return static_cast<Kind>(value_.index()); }

    bool boolean() const { return get<bool>(Kind::Bool); }
    double number() const { return get<Number>(Kind::Number).value; }
    const std::string& string() const {
        return get<std::string>(Kind::String);
    }
    const Array& array() const { return get<Array>(Kind::Array); }
    /// Members in key order, one per key.
    const Object& object() const { return get<Object>(Kind::Object); }

    /// Object member access; throws RequireError if absent or not an
    /// object.
    const JsonValue& at(std::string_view name) const;
    /// True iff this is an object with a member `name`.
    bool has(std::string_view name) const;

    /// Exact unsigned 64-bit value of a non-negative integer number token.
    /// A double cannot represent every 64-bit integer (precision ends at
    /// 2^53), so checkpoint fields like RNG state words and event sequence
    /// numbers read the exact value the parser decoded from the token.
    /// Throws RequireError for non-numbers, negatives, fractions or
    /// exponents, and integers past 2^64 - 1.
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

    struct Number {
        /// Which exact integer the token spelled, if any.
        enum class Exact : std::uint8_t { None, Unsigned, Negative };
        double value = 0.0;
        /// The integer: a u64 when Unsigned, an i64's bits when Negative.
        std::uint64_t bits = 0;
        Exact exact = Exact::None;
    };

    template <typename T>
    const T& get(Kind k) const {
        if (kind() != k) {
            kind_mismatch(k);
        }
        return *std::get_if<T>(&value_);
    }
    [[noreturn]] void kind_mismatch(Kind expected) const;

    std::variant<std::monostate, bool, Number, std::string, Array, Object>
        value_;
};

static_assert(sizeof(JsonValue) <= 48, "a parsed value stays compact");

// ------------------------------------------------------ snapshot codecs
// Exact round-trips for value types that several components persist in
// their save_state/load_state.

/// RNG engine state as an array of its 4 raw words under `key`.
void write_rng(JsonWriter& w, std::string_view key, const Rng& rng);
Rng read_rng(const JsonValue& doc, std::string_view key);

/// Per-entity latent fault slots of an injector under `key`: the index of
/// the entity's latent fault in the injector's history, -1 for none.
void write_latent_slots(JsonWriter& w, std::string_view key,
                        const std::vector<std::optional<std::size_t>>& slots);
/// Every stored slot must index into a history of `history_size` entries.
std::vector<std::optional<std::size_t>> read_latent_slots(
    const JsonValue& doc, std::string_view key, std::size_t history_size);

/// Welford accumulator state as one object (n, mean, m2, sum, min, max).
void write_running_stats(JsonWriter& w, const RunningStats& s);
RunningStats read_running_stats(const JsonValue& doc);

}  // namespace mcs::telemetry
