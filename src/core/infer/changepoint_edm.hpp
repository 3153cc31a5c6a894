// E-divisive-with-medians (EDM) changepoint detection (rebench::infer).
//
// After pilot-bench's detect_changepoint_edm; the one changepoint scan
// of rebench: the history trend view marks its changepoints and the
// regression gate cites the last one.  Binary segmentation: each
// segment splits where the total absolute deviation of each side from
// its own median is smallest (running medians, one pass from each end,
// O(n log n)), which puts a step where it is however far off-centre.
// The split is accepted only when the scaled median distance
//
//   stat(t) = (t * (n - t) / n) * |median(left) - median(right)| / scale
//
// (scale: the segment's MAD) clears `threshold` AND the raw median shift
// clears a relative floor, so flat-but-noisy series yield no
// changepoints; the scan then recurses on both sides.  Medians make it
// blind to the occasional outlier repeat that wrecks mean-based tests.
// Deterministic: no permutation test — plain arithmetic in input order,
// same series, same flags.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rebench::infer {

struct EdmOptions {
  std::size_t minSegment = 3;  // min points on each side of a split
  double threshold = 2.0;      // min scaled statistic to accept a split
  double relFloor = 0.02;      // min |shift| as a fraction of |medianBefore|
};

struct EdmChangepoint {
  std::size_t index = 0;  // first point of the new regime
  double medianBefore = 0.0;
  double medianAfter = 0.0;
  double statistic = 0.0;  // scaled EDM statistic at the split
};

/// All accepted changepoints, ascending by index.
std::vector<EdmChangepoint> detectChangepointsEdm(
    std::span<const double> values, const EdmOptions& options = {});

/// Median of `values` (empty input reports 0).  Exposed for tests.
double medianOf(std::span<const double> values);

}  // namespace rebench::infer
