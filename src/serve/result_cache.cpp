#include "serve/result_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs::serve {

std::shared_ptr<const CachedResponse> ResultCache::find(
    const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const CachedResponse> value) {
    if (max_entries_ == 0) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        // Concurrent misses on one key both compute (identical bytes);
        // keep the first value, just refresh recency.
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), lru_.begin()});
    while (entries_.size() > max_entries_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
}

std::size_t ResultCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t ResultCache::evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::size_t ResultCache::negative_size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [key, entry] : entries_) {
        if (entry.value->status != 200) {
            ++n;
        }
    }
    return n;
}

void ResultCache::save(const std::string& path) const {
    std::vector<std::pair<std::string, std::shared_ptr<const CachedResponse>>>
        snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot.reserve(entries_.size());
        for (const auto& [key, entry] : entries_) {
            snapshot.emplace_back(key, entry.value);
        }
    }
    std::sort(snapshot.begin(), snapshot.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    MCS_REQUIRE(out.is_open(), "cannot write cache file: " + path);
    for (const auto& [key, value] : snapshot) {
        out << "{\"key\":\"" << telemetry::json_escape(key)
            << "\",\"status\":" << value->status << ",\"body\":\""
            << telemetry::json_escape(value->body) << "\"}\n";
    }
    MCS_REQUIRE(out.good(), "write failed: " + path);
}

std::size_t ResultCache::load(const std::string& path) {
    if (!std::filesystem::exists(path)) {
        return 0;
    }
    std::ifstream in(path, std::ios::binary);
    MCS_REQUIRE(in.is_open(), "cannot read cache file: " + path);
    std::size_t loaded = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        const telemetry::JsonValue doc = telemetry::parse_json(line);
        // The cache holds what-if results (200) and rejections (400) only.
        const std::int64_t status = doc.at("status").i64();
        MCS_REQUIRE(status == 200 || status == 400,
                    "cache file entry status must be 200 or 400 in " + path);
        auto value = std::make_shared<const CachedResponse>(
            CachedResponse{static_cast<int>(status), doc.at("body").string()});
        insert(doc.at("key").string(), std::move(value));
        ++loaded;
    }
    return loaded;
}

}  // namespace mcs::serve
