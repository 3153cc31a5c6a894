// Circuit breaker / quarantine (rebench::fault).
//
// When a (test, target) pair — or a whole partition — keeps dying of
// infrastructure failures, rerunning the remaining work only burns
// allocation and floods the campaign with cascading errors.  The breaker
// counts *consecutive* infrastructure failures per key and opens once a
// threshold is reached; callers skip open keys and report them as
// quarantined entries instead of failures.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rebench {

struct BreakerOptions {
  /// Consecutive infrastructure failures before a (test, target) pair is
  /// quarantined.  (--quarantine-after)
  int pairThreshold = 3;
};

/// Consecutive infrastructure failures (across all tests) before a whole
/// system:partition is quarantined.
inline constexpr int kPartitionBreakerThreshold = 8;

/// Generic consecutive-failure breaker over string keys.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(int threshold) : threshold_(threshold) {}

  /// False once `key` has accumulated `threshold` consecutive failures.
  bool allows(std::string_view key) const;

  /// Records an infrastructure failure; returns true when this failure
  /// opened the circuit for `key`.
  bool recordFailure(std::string_view key);

  /// Any non-infrastructure outcome resets the consecutive counter.
  void recordSuccess(std::string_view key);

  int consecutiveFailures(std::string_view key) const;

  /// Keys whose circuit is open, in lexicographic order.
  std::vector<std::string> openKeys() const;

  int threshold() const { return threshold_; }

 private:
  int threshold_;
  std::map<std::string, int, std::less<>> consecutive_;
};

}  // namespace rebench
