// FNV-1a 64 over raw bytes: stable across platforms and runs (unlike
// std::hash).  The one hash behind matrix content digests, generator seeds,
// and the serve/fuzz/chaos report digests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pstab {

[[nodiscard]] inline std::uint64_t fnv1a64(
    const void* data, std::size_t len,
    std::uint64_t h = 0xcbf29ce484222325ull) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace pstab
