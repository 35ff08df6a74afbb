#include "src/common/xxh64.h"

#include <cstring>

namespace txmod {

namespace {

constexpr uint64_t kPrime1 = UINT64_C(0x9E3779B185EBCA87);
constexpr uint64_t kPrime2 = UINT64_C(0xC2B2AE3D27D4EB4F);
constexpr uint64_t kPrime3 = UINT64_C(0x165667B19E3779F9);
constexpr uint64_t kPrime4 = UINT64_C(0x85EBCA77C2B2AE63);
constexpr uint64_t kPrime5 = UINT64_C(0x27D4EB2F165667C5);

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// The little-endian word at `p`, whatever the machine's byte order;
/// compilers turn the shifts into one load on a little-endian machine.
uint64_t Read64(const unsigned char* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 |
         uint64_t{p[3]} << 24 | uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 |
         uint64_t{p[6]} << 48 | uint64_t{p[7]} << 56;
}

uint64_t Read32(const unsigned char* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 |
         uint64_t{p[3]} << 24;
}

/// One lane's step over one word.
uint64_t Round(uint64_t lane, uint64_t word) {
  lane += word * kPrime2;
  lane = Rotl(lane, 31);
  return lane * kPrime1;
}

/// Folds a finished lane into the hash.
uint64_t MergeLane(uint64_t hash, uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

}  // namespace

Xxh64::Xxh64()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, uint64_t{0} - kPrime1} {}

void Xxh64::Update(std::string_view bytes) {
  if (bytes.empty()) return;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  length_ += n;
  if (buffered_ + n < kStripe) {
    std::memcpy(partial_ + buffered_, p, n);
    buffered_ += n;
    return;
  }
  // The lanes live in locals while the stripes stream past: the input
  // bytes may alias any object, so the members would be reloaded and
  // stored around every word.
  uint64_t l0 = lanes_[0];
  uint64_t l1 = lanes_[1];
  uint64_t l2 = lanes_[2];
  uint64_t l3 = lanes_[3];
  auto consume = [&](const unsigned char* stripe) {
    l0 = Round(l0, Read64(stripe));
    l1 = Round(l1, Read64(stripe + 8));
    l2 = Round(l2, Read64(stripe + 16));
    l3 = Round(l3, Read64(stripe + 24));
  };
  if (buffered_ > 0) {
    const std::size_t fill = kStripe - buffered_;
    std::memcpy(partial_ + buffered_, p, fill);
    consume(partial_);
    p += fill;
    n -= fill;
  }
  for (; n >= kStripe; p += kStripe, n -= kStripe) consume(p);
  lanes_[0] = l0;
  lanes_[1] = l1;
  lanes_[2] = l2;
  lanes_[3] = l3;
  if (n > 0) std::memcpy(partial_, p, n);
  buffered_ = n;
}

uint64_t Xxh64::Digest() const {
  uint64_t hash = kPrime5;  // seed 0, input shorter than one stripe
  if (length_ >= kStripe) {
    hash = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
           Rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) hash = MergeLane(hash, lane);
  }
  hash += length_;
  const unsigned char* p = partial_;
  std::size_t n = buffered_;
  for (; n >= 8; p += 8, n -= 8) {
    hash ^= Round(0, Read64(p));
    hash = Rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    hash ^= Read32(p) * kPrime1;
    hash = Rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    hash ^= *p * kPrime5;
    hash = Rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

uint64_t Xxh64::Of(std::string_view bytes) {
  Xxh64 hash;
  hash.Update(bytes);
  return hash.Digest();
}

}  // namespace txmod
