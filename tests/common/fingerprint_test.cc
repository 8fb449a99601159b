// FingerprintBytes: the payload digest behind unchanged-source reuse.
// A missed difference would serve a stale table, so every single-bit
// flip must change the digest, and so must the length.

#include "common/fingerprint.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace shareinsights {
namespace {

std::string Bytes(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  return out;
}

TEST(FingerprintBytesTest, EqualInputsHashEqual) {
  for (size_t n = 0; n <= 100; ++n) {
    std::string a = Bytes(n);
    std::string b = a;  // a different buffer with the same bytes
    EXPECT_EQ(FingerprintBytes(a), FingerprintBytes(b)) << "length " << n;
  }
}

TEST(FingerprintBytesTest, EverySingleBitFlipChangesTheDigest) {
  for (size_t n = 0; n <= 100; ++n) {
    const std::string original = Bytes(n);
    const uint64_t digest = FingerprintBytes(original);
    for (size_t bit = 0; bit < n * 8; ++bit) {
      std::string flipped = original;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(FingerprintBytes(flipped), digest)
          << "length " << n << " bit " << bit;
    }
  }
}

TEST(FingerprintBytesTest, LengthSensitive) {
  // Zero bytes are what the last partial word is padded with, so a
  // trailing NUL must still count.
  std::set<uint64_t> zeros;
  std::set<uint64_t> prefixes;
  const std::string bytes = Bytes(100);
  for (size_t n = 0; n <= 100; ++n) {
    zeros.insert(FingerprintBytes(std::string(n, '\0')));
    prefixes.insert(FingerprintBytes(std::string_view(bytes).substr(0, n)));
  }
  EXPECT_EQ(zeros.size(), 101u);
  EXPECT_EQ(prefixes.size(), 101u);
}

TEST(FingerprintBytesTest, IndependentOfAlignment) {
  const std::string bytes = Bytes(200);
  for (size_t offset = 1; offset < 8; ++offset) {
    std::string shifted = std::string(offset, 'x') + bytes;
    EXPECT_EQ(FingerprintBytes(std::string_view(shifted).substr(offset)),
              FingerprintBytes(bytes))
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace shareinsights
