// Byte-level helpers for the engine checkpoint format (snapshot.cpp).
//
// Snapshots are explicit little-endian byte streams — never memcpy'd
// structs — so a blob written on one build is readable on any other
// (different compiler, padding, or endianness). Readers bounds-check every
// access and throw SnapshotError instead of reading past the blob: a
// truncated or corrupted checkpoint must fail loudly, not deserialize into
// a subtly wrong engine.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ceu::rt::snap {

/// Raised by Engine::load / host::Instance::load when a blob is malformed,
/// truncated, produced by a different snapshot version, or taken from a
/// different program (fingerprint mismatch).
class SnapshotError : public std::runtime_error {
  public:
    explicit SnapshotError(const std::string& msg)
        : std::runtime_error("snapshot: " + msg) {}
};

class ByteWriter {
  public:
    explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }
    void u32(uint32_t v) {
        for (int i = 0; i < 4; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void u64(uint64_t v) {
        for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void str(const std::string& s) {
        u32(static_cast<uint32_t>(s.size()));
        out_.insert(out_.end(), s.begin(), s.end());
    }
    void bytes(const uint8_t* data, size_t n) { out_.insert(out_.end(), data, data + n); }

  private:
    std::vector<uint8_t>& out_;
};

class ByteReader {
  public:
    ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

    uint8_t u8() {
        need(1);
        return *p_++;
    }
    uint32_t u32() {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(*p_++) << (8 * i);
        return v;
    }
    uint64_t u64() {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(*p_++) << (8 * i);
        return v;
    }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    /// The next `n` bytes, in place.
    const uint8_t* bytes(size_t n) {
        need(n);
        const uint8_t* at = p_;
        p_ += n;
        return at;
    }
    std::string str() {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(p_), n);
        p_ += n;
        return s;
    }
    /// A count about to drive a loop of >= `elem_bytes`-sized reads; reject
    /// counts the remaining bytes cannot possibly satisfy, so a corrupted
    /// length prefix fails before (not after) a giant allocation.
    uint32_t count(size_t elem_bytes) {
        uint32_t n = u32();
        if (elem_bytes > 0 && static_cast<size_t>(end_ - p_) / elem_bytes < n) {
            throw SnapshotError("count exceeds remaining blob size");
        }
        return n;
    }

    [[nodiscard]] bool done() const { return p_ == end_; }
    [[nodiscard]] size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  private:
    void need(size_t n) {
        if (static_cast<size_t>(end_ - p_) < n) {
            throw SnapshotError("truncated blob");
        }
    }
    const uint8_t* p_;
    const uint8_t* end_;
};

}  // namespace ceu::rt::snap
