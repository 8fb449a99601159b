#ifndef SHAREINSIGHTS_COMMON_FINGERPRINT_H_
#define SHAREINSIGHTS_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/value.h"

namespace shareinsights {

/// 64-bit digest of a byte string, a word at a time: four independent
/// multiply-rotate lanes over 32-byte stripes, then the lanes, the 8-byte
/// tail words and a zero-padded last word fold into one chain, and the
/// length is mixed in at both ends. Every step is a bijection of the
/// running state and of the word it takes in, so two inputs of the same
/// length that differ in one word always get different digests. Meant
/// for payloads (megabytes per call), where it runs several times faster
/// than the byte-wise FNV Fingerprinter; not a cryptographic hash.
uint64_t FingerprintBytes(std::string_view bytes);

/// Incremental FNV-1a (64-bit) over length-prefixed, type-tagged fields.
/// The digest is a pure function of the Add() sequence — independent of
/// process, pointer values, or iteration order of the caller's inputs —
/// which is what makes it usable as a cross-run plan/query fingerprint
/// (the result-cache key must survive recompiles of an identical flow).
class Fingerprinter {
 public:
  Fingerprinter& Add(std::string_view s);
  Fingerprinter& Add(uint64_t v);
  Fingerprinter& Add(const Value& v) {
    return Add(std::string_view(FingerprintValueKey(v)));
  }

  /// Never returns 0, so callers can use 0 as "no fingerprint".
  uint64_t Digest() const { return hash_ == 0 ? 1 : hash_; }

  /// Canonical key text for one Value: type-tagged and, for doubles, bit-
  /// exact (ToString would collide distinct doubles). Distinct values map
  /// to distinct keys; equal values map to equal keys.
  static std::string FingerprintValueKey(const Value& v);

  /// Length-prefixes a free-form string field so concatenated cache keys
  /// cannot alias across field boundaries ("a"+"bc" vs "ab"+"c").
  static std::string Field(std::string_view s) {
    return std::to_string(s.size()) + ":" + std::string(s);
  }

 private:
  void Mix(const void* data, size_t n);

  uint64_t hash_ = 14695981039346656037ULL;  // FNV offset basis
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_COMMON_FINGERPRINT_H_
