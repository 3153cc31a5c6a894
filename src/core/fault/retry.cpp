#include "core/fault/retry.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/util/rng.hpp"

namespace rebench {

double RetryPolicy::backoffSeconds(std::string_view key,
                                   int retryIndex) const {
  const int exponent = std::max(0, retryIndex - 1);
  double wait = backoffBase * std::pow(backoffMultiplier, exponent);
  wait = std::min(wait, backoffMax);
  if (wait > 0.0) {
    Rng rng = Rng::fromKey("backoff:" + std::to_string(seed) + ":" +
                           std::string(key) + ":" +
                           std::to_string(retryIndex));
    wait *= 1.0 + kRetryJitterFrac * (2.0 * rng.uniform() - 1.0);
  }
  return std::max(0.0, wait);
}

}  // namespace rebench
