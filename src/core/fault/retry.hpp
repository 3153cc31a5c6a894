// Retry policy (rebench::fault): exponential backoff with deterministic
// jitter and per-stage retry budgets.
//
// Replaces the flat ReFrame-style --max-retries counter: each pipeline
// stage spends its own budget of maxRetries (a flaky sanity pattern
// should not eat the retries a crashing job needs), and the wait between
// attempts grows exponentially with a seed-derived jitter of
// ±kRetryJitterFrac so that retry storms decorrelate — while staying
// byte-reproducible across identical invocations.  Backoff consumes
// *simulated* time: the pipeline advances the trace clock by the
// computed wait, making every backoff visible as a span.
#pragma once

#include <cstdint>
#include <string_view>

namespace rebench {

/// Fraction by which each backoff wait is jittered, either way.
inline constexpr double kRetryJitterFrac = 0.1;

struct RetryPolicy {
  /// Retry budget of each stage (0 = never retry, ReFrame default).
  int maxRetries = 0;

  /// attempt 1 waits base seconds, attempt n waits base * mult^(n-1),
  /// clamped to backoffMax — then jittered by ±kRetryJitterFrac.
  double backoffBase = 1.0;
  double backoffMultiplier = 2.0;
  double backoffMax = 60.0;
  /// Mixed into the jitter stream; CLI sets it to the fault seed.
  std::uint64_t seed = 0;

  /// Simulated seconds to wait before retry number `retryIndex` (1-based)
  /// of the attempt identified by `key`.  Deterministic in
  /// (seed, key, retryIndex).
  double backoffSeconds(std::string_view key, int retryIndex) const;
};

}  // namespace rebench
