#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <string_view>

#include "util/require.hpp"

namespace mcs {

namespace {

/// Parses all of `text` as a T with std::from_chars, which ignores the
/// locale. One leading '+' is accepted (from_chars takes none).
template <typename T>
std::optional<T> parse_number(std::string_view text) {
    if (text.starts_with('+') && !text.substr(1).starts_with('-')) {
        text.remove_prefix(1);
    }
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
        return std::nullopt;
    }
    return value;
}

}  // namespace

Config Config::from_args(std::span<const char* const> args) {
    Config cfg;
    for (const char* raw : args) {
        const std::string token(raw);
        const auto eq = token.find('=');
        MCS_REQUIRE(eq != std::string::npos && eq != 0,
                    "expected key=value argument: " + token);
        cfg.set(token.substr(0, eq), token.substr(eq + 1));
    }
    return cfg;
}

Config Config::from_file(const std::string& path) {
    std::ifstream in(path);
    MCS_REQUIRE(in.is_open(), "cannot open config file: " + path);
    Config cfg;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        auto trim = [](std::string s) {
            const auto first = s.find_first_not_of(" \t\r");
            if (first == std::string::npos) {
                return std::string{};
            }
            const auto last = s.find_last_not_of(" \t\r");
            return s.substr(first, last - first + 1);
        };
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            continue;
        }
        const std::string key = trim(line.substr(0, eq));
        if (key.empty()) {
            continue;
        }
        cfg.set(key, trim(line.substr(eq + 1)));
    }
    return cfg;
}

void Config::merge(const Config& other) {
    for (const auto& [key, value] : other.values_) {
        values_[key] = value;
    }
}

void Config::set(const std::string& key, const std::string& value) {
    values_[key] = value;
}

bool Config::has(const std::string& key) const {
    return values_.count(key) != 0;
}

std::optional<std::string> Config::lookup(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
        return std::nullopt;
    }
    return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
    return lookup(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
    const auto v = lookup(key);
    if (!v) {
        return fallback;
    }
    const auto parsed = parse_number<std::int64_t>(*v);
    MCS_REQUIRE(parsed.has_value(),
                "config key '" + key + "' is not an integer: " + *v);
    return *parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
    const auto v = lookup(key);
    if (!v) {
        return fallback;
    }
    const auto parsed = parse_number<double>(*v);
    MCS_REQUIRE(parsed.has_value(),
                "config key '" + key + "' is not a number: " + *v);
    return *parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
    const auto v = lookup(key);
    if (!v) {
        return fallback;
    }
    std::string lowered = *v;
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lowered == "1" || lowered == "true" || lowered == "yes" ||
        lowered == "on") {
        return true;
    }
    if (lowered == "0" || lowered == "false" || lowered == "no" ||
        lowered == "off") {
        return false;
    }
    MCS_REQUIRE(false, "config key '" + key + "' is not a boolean: " + *v);
    return fallback;  // unreachable
}

}  // namespace mcs
