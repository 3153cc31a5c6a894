#include "core/infer/changepoint_edm.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

namespace rebench::infer {

namespace {

/// Median absolute deviation about the series median, scaled by 1.4826
/// to be consistent with the standard deviation under normal noise.
double madScale(std::span<const double> values, double median) {
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  return 1.4826 * medianOf(deviations);
}

/// Total absolute deviation of a growing multiset from its median,
/// O(log n) per push: a max-heap holds the lower half (one extra on odd
/// counts), a min-heap the upper half, and each half keeps its sum.
class MedianDeviation {
 public:
  void push(double x) {
    if (low_.empty() || x <= low_.top()) {
      low_.push(x);
      lowSum_ += x;
    } else {
      high_.push(x);
      highSum_ += x;
    }
    if (low_.size() > high_.size() + 1) {
      moveTop(low_, lowSum_, high_, highSum_);
    } else if (high_.size() > low_.size()) {
      moveTop(high_, highSum_, low_, lowSum_);
    }
  }

  /// Sum of |x - median| over the pushed points.  Any point between the
  /// two middle values minimises it, so the lower middle serves for
  /// even counts too.
  double deviation() const {
    const double m = low_.top();
    return m * static_cast<double>(low_.size()) - lowSum_ + highSum_ -
           m * static_cast<double>(high_.size());
  }

 private:
  template <typename From, typename To>
  static void moveTop(From& from, double& fromSum, To& to, double& toSum) {
    const double x = from.top();
    from.pop();
    fromSum -= x;
    to.push(x);
    toSum += x;
  }

  std::priority_queue<double> low_;
  std::priority_queue<double, std::vector<double>, std::greater<>> high_;
  double lowSum_ = 0.0;
  double highSum_ = 0.0;
};

void segment(std::span<const double> values, std::size_t offset,
             std::vector<EdmChangepoint>* out) {
  const std::size_t n = values.size();
  if (n < 2 * kEdmMinSegment) return;

  // Place the split where each side sits closest to its own median:
  // prefix and suffix costs from one pass each way.
  std::vector<double> prefixCost(n + 1);
  MedianDeviation prefix;
  for (std::size_t t = 1; t <= n; ++t) {
    prefix.push(values[t - 1]);
    prefixCost[t] = prefix.deviation();
  }
  std::vector<double> suffixCost(n + 1);
  MedianDeviation suffix;
  for (std::size_t t = n; t-- > 0;) {
    suffix.push(values[t]);
    suffixCost[t] = suffix.deviation();
  }
  std::size_t split = kEdmMinSegment;
  for (std::size_t t = split + 1; t + kEdmMinSegment <= n; ++t) {
    if (prefixCost[t] + suffixCost[t] <
        prefixCost[split] + suffixCost[split]) {
      split = t;
    }
  }

  // Accept or reject that split on its scaled median distance.
  const double seriesMedian = medianOf(values);
  double scale = madScale(values, seriesMedian);
  // A constant (or near-constant) segment has zero MAD; fall back to a
  // tiny relative scale so an exact-zero shift still reports stat 0
  // while a real step in a noiseless series scores astronomically.
  if (scale <= 0.0) {
    scale = std::fabs(seriesMedian) > 0.0 ? 1e-9 * std::fabs(seriesMedian)
                                          : 1e-12;
  }
  const double before = medianOf(values.subspan(0, split));
  const double after = medianOf(values.subspan(split));
  const double weight = static_cast<double>(split) *
                        static_cast<double>(n - split) /
                        static_cast<double>(n);
  const double stat = weight * std::fabs(after - before) / scale;
  if (stat < kEdmThreshold) return;
  const double floor = kEdmRelFloor * std::max(std::fabs(before), 1e-300);
  if (std::fabs(after - before) < floor) return;

  segment(values.subspan(0, split), offset, out);
  out->push_back({offset + split, before, after, stat});
  segment(values.subspan(split), offset + split, out);
}

}  // namespace

double medianOf(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

std::vector<EdmChangepoint> detectChangepointsEdm(
    std::span<const double> values) {
  std::vector<EdmChangepoint> flags;
  segment(values, 0, &flags);
  return flags;
}

}  // namespace rebench::infer
