#pragma once

// Deterministic mutation harness for parsers of untrusted bytes: every
// strict prefix of a document, plus seeded documents with 1-3 random byte
// edits each (overwrite, insert or erase, the edit kinds the scenario-spec
// fuzz test applies). A test feeds each document to the parser under test
// and requires a clean RequireError or a valid result; anything else that
// escapes fails the test.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace mcs::testsupport {

/// Calls `fn(prefix)` for every strict prefix of `text`, shortest first.
template <typename Fn>
void for_each_truncation(std::string_view text, Fn&& fn) {
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        fn(text.substr(0, cut));
    }
}

/// Calls `fn(edited)` for `count` copies of `text`, each with 1-3 byte
/// edits drawn from a stream seeded with `seed`; the same seed yields the
/// same documents.
template <typename Fn>
void for_each_mutation(const std::string& text, std::uint64_t seed, int count,
                       Fn&& fn) {
    Rng rng(seed);
    for (int trial = 0; trial < count; ++trial) {
        std::string edited = text;
        const int edits = 1 + static_cast<int>(rng.index(3));
        for (int e = 0; e < edits && !edited.empty(); ++e) {
            const std::size_t pos = rng.index(edited.size());
            const char byte = static_cast<char>(rng.index(256));
            switch (rng.index(3)) {
                case 0: edited[pos] = byte; break;
                case 1: edited.insert(edited.begin() + pos, byte); break;
                default: edited.erase(edited.begin() + pos); break;
            }
        }
        fn(edited);
    }
}

}  // namespace mcs::testsupport
