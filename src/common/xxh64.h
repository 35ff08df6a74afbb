#ifndef TXMOD_COMMON_XXH64_H_
#define TXMOD_COMMON_XXH64_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace txmod {

/// XXH64 with seed 0: the 64-bit variant of Yann Collet's xxHash, written
/// from its published specification. Four 64-bit lanes each take one
/// 8-byte word of every 32-byte stripe, so the multiplies of a stripe do
/// not wait on one another, as FNV-1a's one multiply per byte does.
///
/// It guards against accidental corruption, not against an adversary: a
/// random change of the input passes it with a probability of about
/// 2^-64, and, unlike a CRC, it detects no burst length by construction.
///
/// The input may be fed in pieces: Update takes the bytes in any split,
/// and Digest is the hash of everything fed so far, exactly as if it had
/// been fed whole. A piece shorter than a stripe is buffered, so a
/// caller can feed a text line by line.
class Xxh64 {
 public:
  Xxh64();

  void Update(std::string_view bytes);
  uint64_t Digest() const;

  /// The hash of `bytes`, fed whole.
  static uint64_t Of(std::string_view bytes);

 private:
  static constexpr std::size_t kStripe = 32;

  uint64_t lanes_[4];
  uint64_t length_ = 0;                  // bytes fed so far
  unsigned char partial_[kStripe] = {};  // the unfinished stripe
  std::size_t buffered_ = 0;             // bytes of it in partial_
};

}  // namespace txmod

#endif  // TXMOD_COMMON_XXH64_H_
