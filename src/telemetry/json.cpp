#include "telemetry/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <system_error>

#include "util/require.hpp"

namespace mcs::telemetry {

std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "null";  // JSON has no NaN/inf literal
    }
    // std::to_chars emits the shortest decimal that round-trips and is
    // locale-independent (snprintf honours LC_NUMERIC, which would break
    // the byte-determinism contract inside a setlocale()d host process).
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    MCS_REQUIRE(res.ec == std::errc{}, "json_number: to_chars failed");
    return std::string(buf, res.ptr);
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

// ------------------------------------------------------------- JsonWriter

void JsonWriter::separate() {
    if (pending_key_) {
        pending_key_ = false;
        return;  // the key already emitted its separator
    }
    if (!has_item_.empty()) {
        if (has_item_.back()) {
            out_ << ',';
        }
        has_item_.back() = true;
    }
}

void JsonWriter::begin_object() {
    separate();
    out_ << '{';
    has_item_.push_back(false);
}

void JsonWriter::end_object() {
    MCS_REQUIRE(!has_item_.empty(), "end_object without begin_object");
    has_item_.pop_back();
    out_ << '}';
}

void JsonWriter::begin_array() {
    separate();
    out_ << '[';
    has_item_.push_back(false);
}

void JsonWriter::end_array() {
    MCS_REQUIRE(!has_item_.empty(), "end_array without begin_array");
    has_item_.pop_back();
    out_ << ']';
}

void JsonWriter::key(std::string_view name) {
    MCS_REQUIRE(!has_item_.empty(), "key outside an object");
    if (has_item_.back()) {
        out_ << ',';
    }
    has_item_.back() = true;
    out_ << '"' << json_escape(name) << "\":";
    pending_key_ = true;
}

void JsonWriter::value(double v) {
    separate();
    out_ << json_number(v);
}

void JsonWriter::value(std::int64_t v) {
    separate();
    out_ << v;
}

void JsonWriter::value(std::uint64_t v) {
    separate();
    out_ << v;
}

void JsonWriter::value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
}

void JsonWriter::value(std::string_view v) {
    separate();
    out_ << '"' << json_escape(v) << '"';
}

void JsonWriter::null() {
    separate();
    out_ << "null";
}

// ------------------------------------------------------------- JsonValue

namespace {

const char* kind_name(JsonValue::Kind k) {
    switch (k) {
        case JsonValue::Kind::Null: return "null";
        case JsonValue::Kind::Bool: return "bool";
        case JsonValue::Kind::Number: return "number";
        case JsonValue::Kind::String: return "string";
        case JsonValue::Kind::Array: return "array";
        case JsonValue::Kind::Object: return "object";
    }
    return "?";
}

/// The member named `name` in a key-sorted object, or end().
JsonValue::Object::const_iterator find_member(const JsonValue::Object& obj,
                                              std::string_view name) {
    const auto it = std::lower_bound(
        obj.begin(), obj.end(), name,
        [](const JsonValue::Member& m, std::string_view key) {
            return std::string_view(m.first) < key;
        });
    return it != obj.end() && it->first == name ? it : obj.end();
}

/// Whether a token std::from_chars took is also a JSON number,
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. from_chars has matched
/// the sign and the exponent already, but it also takes inf, nan, .5, 1.
/// and 007.
bool is_json_number(std::string_view token) {
    const std::string_view t = token.substr(token[0] == '-' ? 1 : 0);
    const auto digit = [t](std::size_t i) {
        return i < t.size() && t[i] >= '0' && t[i] <= '9';
    };
    const std::size_t dot = t.find('.');
    return digit(0) && !(t[0] == '0' && digit(1)) &&
           (dot == std::string_view::npos || digit(dot + 1));
}

/// Objects up to this many members sort by insertion (see parse_object).
constexpr std::ptrdiff_t kInsertionSortMax = 16;

/// Copies an array of scalars, reading each element through `read`.
template <typename T>
std::vector<T> copy_scalars(const JsonValue::Array& items,
                            T (JsonValue::*read)() const) {
    std::vector<T> out;
    out.reserve(items.size());
    for (const JsonValue& v : items) {
        out.push_back((v.*read)());
    }
    return out;
}

}  // namespace

void JsonValue::kind_mismatch(Kind expected) const {
    require_failed("kind() == expected", __FILE__, __LINE__,
                   std::string("JSON: expected ") + kind_name(expected) +
                       ", found " + kind_name(kind()));
}

const JsonValue& JsonValue::at(std::string_view name) const {
    const Object& members = object();
    const auto it = find_member(members, name);
    MCS_REQUIRE(it != members.end(),
                "missing JSON member: " + std::string(name));
    return it->second;
}

bool JsonValue::has(std::string_view name) const {
    const Object* members = std::get_if<Object>(&value_);
    return members != nullptr &&
           find_member(*members, name) != members->end();
}

std::uint64_t JsonValue::u64() const {
    const Number& n = get<Number>(Kind::Number);
    MCS_REQUIRE(n.exact == Number::Exact::Unsigned,
                "JsonValue::u64: not an unsigned 64-bit integer: " +
                    json_number(n.value));
    return n.bits;
}

std::int64_t JsonValue::i64() const {
    const Number& n = get<Number>(Kind::Number);
    const bool fits =
        n.exact == Number::Exact::Negative ||
        (n.exact == Number::Exact::Unsigned &&
         n.bits <= static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max()));
    MCS_REQUIRE(fits, "JsonValue::i64: not a signed 64-bit integer: " +
                          json_number(n.value));
    return static_cast<std::int64_t>(n.bits);
}

std::vector<double> JsonValue::numbers() const {
    return copy_scalars(array(), &JsonValue::number);
}

std::vector<std::uint64_t> JsonValue::u64s() const {
    return copy_scalars(array(), &JsonValue::u64);
}

std::vector<bool> JsonValue::booleans() const {
    return copy_scalars(array(), &JsonValue::boolean);
}

class JsonValue::Parser {
public:
    Parser(std::string_view text, const JsonLimits& limits)
        : text_(text), limits_(limits) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        MCS_REQUIRE(pos_ == text_.size(), "trailing bytes after JSON value");
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        MCS_REQUIRE(pos_ < text_.size(), "unexpected end of JSON input");
        return text_[pos_];
    }

    void expect(char c) {
        MCS_REQUIRE(peek() == c, std::string("expected '") + c + "' in JSON");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    JsonValue parse_value() {
        const char c = peek();
        JsonValue v;
        switch (c) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': v.value_ = parse_string(); return v;
            case 't':
                MCS_REQUIRE(consume_literal("true"), "bad JSON literal");
                v.value_ = true;
                return v;
            case 'f':
                MCS_REQUIRE(consume_literal("false"), "bad JSON literal");
                v.value_ = false;
                return v;
            case 'n':
                MCS_REQUIRE(consume_literal("null"), "bad JSON literal");
                return v;
            default: return parse_number();
        }
    }

    /// Container guard: depth counts every open object/array, so a deep
    /// bomb like "[[[[..." fails with a clean error long before the
    /// recursive descent can exhaust the stack.
    struct DepthGuard {
        explicit DepthGuard(Parser& parser) : p(parser) {
            ++p.depth_;
            MCS_REQUIRE(
                p.limits_.max_depth == 0 || p.depth_ <= p.limits_.max_depth,
                "JSON nesting exceeds max depth " +
                    std::to_string(p.limits_.max_depth));
        }
        ~DepthGuard() { --p.depth_; }
        DepthGuard(const DepthGuard&) = delete;
        DepthGuard& operator=(const DepthGuard&) = delete;
        Parser& p;
    };

    /// Moves the entries of `stack` above `mark` into an exactly sized
    /// container and pops them.
    template <typename Container>
    static Container take(Container& stack, std::size_t mark) {
        const auto first = stack.begin() + static_cast<std::ptrdiff_t>(mark);
        Container out(std::make_move_iterator(first),
                      std::make_move_iterator(stack.end()));
        stack.erase(first, stack.end());
        return out;
    }

    JsonValue parse_object() {
        const DepthGuard guard(*this);
        expect('{');
        const std::size_t mark = members_.size();
        if (peek() == '}') {
            ++pos_;
        } else {
            while (true) {
                MCS_REQUIRE(peek() == '"', "JSON object key must be a string");
                std::string key = parse_string();
                expect(':');
                JsonValue value = parse_value();
                members_.emplace_back(std::move(key), std::move(value));
                const char c = peek();
                ++pos_;
                if (c == '}') {
                    break;
                }
                MCS_REQUIRE(c == ',', "expected ',' or '}' in JSON object");
            }
        }
        // Key order; both sorts are stable, so of a repeated key unique()
        // keeps the first value. Insertion sort allocates nothing and
        // suits the small objects that dominate; stable_sort bounds the
        // rest at n log n.
        const auto first =
            members_.begin() + static_cast<std::ptrdiff_t>(mark);
        const auto by_key = [](const Member& a, const Member& b) {
            return a.first < b.first;
        };
        if (members_.end() - first <= kInsertionSortMax) {
            for (auto it = first; it != members_.end(); ++it) {
                for (auto j = it; j != first && by_key(*j, *(j - 1)); --j) {
                    std::iter_swap(j, j - 1);
                }
            }
        } else {
            std::stable_sort(first, members_.end(), by_key);
        }
        members_.erase(std::unique(first, members_.end(),
                                   [](const Member& a, const Member& b) {
                                       return a.first == b.first;
                                   }),
                       members_.end());
        JsonValue v;
        v.value_ = take(members_, mark);
        return v;
    }

    JsonValue parse_array() {
        const DepthGuard guard(*this);
        expect('[');
        const std::size_t mark = items_.size();
        if (peek() == ']') {
            ++pos_;
        } else {
            while (true) {
                JsonValue item = parse_value();
                items_.push_back(std::move(item));
                const char c = peek();
                ++pos_;
                if (c == ']') {
                    break;
                }
                MCS_REQUIRE(c == ',', "expected ',' or ']' in JSON array");
            }
        }
        JsonValue v;
        v.value_ = take(items_, mark);
        return v;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one piece.
            std::size_t stop = pos_;
            while (stop < text_.size() && text_[stop] != '"' &&
                   text_[stop] != '\\') {
                ++stop;
            }
            out.append(text_.substr(pos_, stop - pos_));
            pos_ = stop;
            MCS_REQUIRE(pos_ < text_.size(), "unterminated JSON string");
            if (text_[pos_++] == '"') {
                return out;
            }
            MCS_REQUIRE(pos_ < text_.size(), "unterminated JSON escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    MCS_REQUIRE(pos_ + 4 <= text_.size(),
                                "truncated \\u escape");
                    const std::string hex(text_.substr(pos_, 4));
                    pos_ += 4;
                    const auto cp = static_cast<unsigned>(
                        std::strtoul(hex.c_str(), nullptr, 16));
                    // The writer only emits \u00xx control escapes; decode
                    // the Latin-1 range and refuse the rest.
                    MCS_REQUIRE(cp < 0x80, "unsupported \\u escape");
                    out += static_cast<char>(cp);
                    break;
                }
                default: MCS_REQUIRE(false, "bad JSON escape");
            }
        }
    }

    JsonValue parse_number() {
        skip_ws();
        const char* begin = text_.data() + pos_;
        const char* end = text_.data() + text_.size();
        Number n;
        // std::from_chars is locale-independent, unlike strtod, which
        // would misparse "1.5" under a comma-decimal LC_NUMERIC.
        const auto res = std::from_chars(begin, end, n.value);
        const auto len = static_cast<std::size_t>(res.ptr - begin);
        MCS_REQUIRE(res.ec == std::errc{} && is_json_number({begin, len}),
                    "malformed JSON number");
        pos_ += len;
        // An integer token (-?[0-9]+) in 64-bit range also keeps its exact
        // value, which a double loses past 2^53.
        const bool negative = *begin == '-';
        const char* digits = begin + (negative ? 1 : 0);
        if (digits != res.ptr &&
            std::all_of(digits, res.ptr,
                        [](char c) { return c >= '0' && c <= '9'; })) {
            if (negative) {
                std::int64_t exact = 0;
                if (std::from_chars(begin, res.ptr, exact).ec == std::errc{}) {
                    n.bits = static_cast<std::uint64_t>(exact);
                    n.exact = Number::Exact::Negative;
                }
            } else if (std::from_chars(begin, res.ptr, n.bits).ec ==
                       std::errc{}) {
                n.exact = Number::Exact::Unsigned;
            }
        }
        JsonValue v;
        v.value_ = n;
        return v;
    }

    std::string_view text_;
    JsonLimits limits_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
    /// Members and items of the containers still open, innermost last;
    /// a container moves its own out when it closes.
    Object members_;
    Array items_;
};

JsonValue parse_json(std::string_view text, const JsonLimits& limits) {
    MCS_REQUIRE(limits.max_bytes == 0 || text.size() <= limits.max_bytes,
                "JSON document exceeds max size (" +
                    std::to_string(text.size()) + " > " +
                    std::to_string(limits.max_bytes) + " bytes)");
    return JsonValue::Parser(text, limits).parse_document();
}

// ------------------------------------------------------ snapshot codecs

void write_rng(JsonWriter& w, std::string_view key, const Rng& rng) {
    w.key(key);
    w.begin_array();
    for (std::uint64_t word : rng.state()) {
        w.value(word);
    }
    w.end_array();
}

Rng read_rng(const JsonValue& doc, std::string_view key) {
    const std::vector<std::uint64_t> words = doc.at(key).u64s();
    MCS_REQUIRE(words.size() == 4, "snapshot: RNG state must have 4 words");
    Rng rng;
    rng.set_state({words[0], words[1], words[2], words[3]});
    return rng;
}

void write_latent_slots(
    JsonWriter& w, std::string_view key,
    const std::vector<std::optional<std::size_t>>& slots) {
    w.key(key);
    w.begin_array();
    for (const auto& slot : slots) {
        if (slot) {
            w.value(static_cast<std::uint64_t>(*slot));
        } else {
            w.value(std::int64_t{-1});
        }
    }
    w.end_array();
}

std::vector<std::optional<std::size_t>> read_latent_slots(
    const JsonValue& doc, std::string_view key, std::size_t history_size) {
    std::vector<std::optional<std::size_t>> latent;
    for (const auto& v : doc.at(key).array()) {
        const std::int64_t slot = v.i64();
        if (slot < 0) {
            latent.emplace_back(std::nullopt);
        } else {
            MCS_REQUIRE(static_cast<std::size_t>(slot) < history_size,
                        "snapshot: latent slot out of history range");
            latent.emplace_back(static_cast<std::size_t>(slot));
        }
    }
    return latent;
}

void write_running_stats(JsonWriter& w, const RunningStats& s) {
    w.begin_object();
    w.field("n", static_cast<std::uint64_t>(s.count()));
    w.field("mean", s.mean());
    w.field("m2", s.m2());
    w.field("sum", s.sum());
    w.field("min", s.min());
    w.field("max", s.max());
    w.end_object();
}

RunningStats read_running_stats(const JsonValue& doc) {
    RunningStats s;
    s.restore(static_cast<std::size_t>(doc.at("n").u64()),
              doc.at("mean").number(), doc.at("m2").number(),
              doc.at("sum").number(), doc.at("min").number(),
              doc.at("max").number());
    return s;
}

}  // namespace mcs::telemetry
