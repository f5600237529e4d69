#pragma once

// FNV-1a, 64-bit: the one byte-stream hash behind snapshot config
// fingerprints, scenario spec fingerprints and golden-artifact digests.
// Header-only so every layer can use it without a link dependency.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace mcs {

/// Incremental FNV-1a over a canonical byte stream: integers are fed
/// little-endian, doubles by bit pattern (exact, not round-trip
/// formatted), `str` length-prefixed and `bytes` raw.
class Fnv1a {
public:
    void bytes(std::string_view s) noexcept {
        for (const char c : s) {
            byte(static_cast<unsigned char>(c));
        }
    }
    void u64(std::uint64_t v) noexcept {
        for (int i = 0; i < 8; ++i) {
            byte(static_cast<unsigned char>(v >> (8 * i)));
        }
    }
    void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) noexcept { byte(v ? 1 : 0); }
    void str(std::string_view s) noexcept {
        u64(s.size());
        bytes(s);
    }

    std::uint64_t value() const noexcept { return h_; }

    /// The hash as 16 lowercase hex digits.
    std::string hex() const {
        static constexpr char kDigits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i) {
            out[static_cast<std::size_t>(i)] =
                kDigits[(h_ >> (60 - 4 * i)) & 0xF];
        }
        return out;
    }

private:
    void byte(unsigned char b) noexcept {
        h_ ^= b;
        h_ *= 1099511628211ULL;  // FNV prime
    }

    std::uint64_t h_ = 14695981039346656037ULL;  // FNV offset basis
};

/// FNV-1a of `s` as raw bytes.
inline std::uint64_t fnv1a64(std::string_view s) noexcept {
    Fnv1a h;
    h.bytes(s);
    return h.value();
}

}  // namespace mcs
