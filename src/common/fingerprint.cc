#include "common/fingerprint.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace shareinsights {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;

inline uint64_t Load64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// Bijective in `acc` for a fixed `word` and in `word` for a fixed `acc`
// (odd multipliers, add and rotate are all invertible mod 2^64).
inline uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kPrime2;
  acc = Rotl(acc, 31);
  return acc * kPrime1;
}

// Final avalanche (MurmurHash3's fmix64), also a bijection.
inline uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t FingerprintBytes(std::string_view bytes) {
  const char* p = bytes.data();
  const size_t n = bytes.size();
  size_t i = 0;
  uint64_t h = Round(kPrime3, n);
  if (n >= 32) {
    uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    for (; i + 32 <= n; i += 32) {
      lane[0] = Round(lane[0], Load64(p + i));
      lane[1] = Round(lane[1], Load64(p + i + 8));
      lane[2] = Round(lane[2], Load64(p + i + 16));
      lane[3] = Round(lane[3], Load64(p + i + 24));
    }
    for (uint64_t l : lane) h = Round(h, l);
  }
  for (; i + 8 <= n; i += 8) h = Round(h, Load64(p + i));
  if (i < n) {
    uint64_t last = 0;
    std::memcpy(&last, p + i, n - i);
    h = Round(h, last);
  }
  return Avalanche(h ^ n);
}

void Fingerprinter::Mix(const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;  // FNV prime
  }
}

Fingerprinter& Fingerprinter::Add(std::string_view s) {
  uint64_t len = s.size();
  Mix(&len, sizeof(len));
  Mix(s.data(), s.size());
  return *this;
}

Fingerprinter& Fingerprinter::Add(uint64_t v) {
  unsigned char tag = 'u';
  Mix(&tag, 1);
  Mix(&v, sizeof(v));
  return *this;
}

std::string Fingerprinter::FingerprintValueKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kBool:
      return v.bool_value() ? "b1" : "b0";
    case ValueType::kInt64:
      return "i" + std::to_string(v.int64_value());
    case ValueType::kDouble: {
      // Bit-exact: -0.0 and NaN canonicalized the same way packed keys do,
      // so values that compare equal fingerprint equal.
      double d = v.double_value();
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return "d" + std::to_string(bits);
    }
    case ValueType::kString:
      return "s" + std::to_string(v.string_value().size()) + ":" +
             v.string_value();
  }
  return "?";
}

}  // namespace shareinsights
