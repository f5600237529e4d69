#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "util/require.hpp"

namespace mcs {

/// Tiny key=value configuration store used by the examples and benches to
/// accept command-line overrides (`./quickstart cores=64 seed=7`).
class Config {
public:
    Config() = default;

    /// Parses `key=value` tokens. Throws RequireError naming the first token
    /// that has no '=' or an empty key.
    static Config from_args(std::span<const char* const> args);

    /// Parses a file of `key=value` lines ('#' starts a comment). Throws
    /// RequireError if the file cannot be opened.
    static Config from_file(const std::string& path);

    /// Merges `other` into this config (other's values win).
    void merge(const Config& other);

    void set(const std::string& key, const std::string& value);
    bool has(const std::string& key) const;

    std::string get_string(const std::string& key,
                           const std::string& fallback) const;
    /// Numbers parse locale-independently (std::from_chars over the whole
    /// value, after one optional leading '+'). Throws RequireError naming
    /// the key if present but unparsable.
    std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
    double get_double(const std::string& key, double fallback) const;
    /// get_int narrowed to `T` (named at the call, never deduced from the
    /// fallback); throws RequireError naming the key unless the value is in
    /// T's range.
    template <std::integral T>
    T get_int_as(const std::string& key,
                 std::type_identity_t<T> fallback) const {
        if (!has(key)) {
            return fallback;
        }
        const std::int64_t value = get_int(key, 0);
        MCS_REQUIRE(std::in_range<T>(value), "config key '" + key +
                                                 "' is out of range: " +
                                                 values_.at(key));
        return static_cast<T>(value);
    }
    bool get_bool(const std::string& key, bool fallback) const;

    const std::map<std::string, std::string>& entries() const {
        return values_;
    }

private:
    std::map<std::string, std::string> values_;
    std::optional<std::string> lookup(const std::string& key) const;
};

}  // namespace mcs
