#include "tvp/util/rng.hpp"

#include <algorithm>
#include <cstdlib>

#ifdef __SIZEOF_INT128__
using u128 = unsigned __int128;
#endif

namespace tvp::util {

namespace {

std::size_t buffered_rng_capacity() noexcept {
  const char* env = std::getenv("TVP_RNG_BUFFER");
  if (!env || !*env) return 256;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed < 1) return 1;
  return static_cast<std::size_t>(std::min(parsed, 1L << 20));
}

}  // namespace

BufferedRng::BufferedRng(Rng rng) noexcept : rng_(rng) {
  buf_.resize(buffered_rng_capacity());
  data_ = buf_.data();
  cap_ = buf_.size();
  pos_ = cap_;  // first next() refills
}

std::uint64_t BufferedRng::below(std::uint64_t bound) noexcept {
#ifdef __SIZEOF_INT128__
  // Mirrors Rng::below word for word so the rejection loop consumes the
  // same draws — the buffered stream must stay bit-compatible.
  std::uint64_t x = next();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
#else
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return x % bound;
#endif
}

}  // namespace tvp::util
