#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>

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
    /// Throws RequireError if present but unparsable.
    std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
    double get_double(const std::string& key, double fallback) const;
    bool get_bool(const std::string& key, bool fallback) const;

    const std::map<std::string, std::string>& entries() const {
        return values_;
    }

private:
    std::map<std::string, std::string> values_;
    std::optional<std::string> lookup(const std::string& key) const;
};

}  // namespace mcs
