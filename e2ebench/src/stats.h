#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

/// Fewest samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the "p99" of a short run is really its maximum.
inline constexpr size_t kMinSamplesBeyond = 10;

/// A nearest-rank percentile together with the evidence behind it.
struct Percentile {
  bool ok = false;     // false = refused (too few samples beyond it)
  double value = 0;    // sorted[rank - 1]
  size_t samples = 0;  // n
  size_t beyond = 0;   // n - rank: samples strictly above the reported rank
};

/// Nearest-rank percentile of `sorted` (ascending): rank = ceil(p * n),
/// 1-based. Refuses (ok = false) when fewer than kMinSamplesBeyond samples
/// lie beyond the rank, so p99 needs n >= 1000 and p50 needs n >= 20.
inline Percentile NearestRank(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty() || p <= 0 || p > 1) return out;
  const double exact = p * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  out.ok = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// Median of an unsorted sample (by value; averages the middle pair).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// A percentile robust to bursts of outside interference: `samples` (in
/// the order they were taken) is cut into consecutive blocks of at least
/// `block` samples, the nearest-rank percentile is taken in each block, and
/// the mean of those is reported. The mean, unlike the median, moves
/// smoothly with the share of blocks a shared host slowed, so runs that
/// caught more or less outside load do not jump between two levels (on a
/// 4-vCPU host it halved paper_oltp's run-to-run read_p50_ms spread). A
/// run shorter than one block is one
/// block. `block` must leave kMinSamplesBeyond beyond the percentile (1000
/// for p99, 20 for p50); the result is refused like NearestRank otherwise.
/// `beyond` is the smallest count beyond the percentile in any block.
inline Percentile BlockPercentile(const std::vector<double>& samples,
                                  double p, size_t block) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t blocks = std::max<size_t>(1, samples.size() / block);
  const size_t size = samples.size() / blocks;  // the remainder is dropped
  out.ok = true;
  out.beyond = samples.size();
  double sum = 0;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> part(samples.begin() + b * size,
                             samples.begin() + (b + 1) * size);
    std::sort(part.begin(), part.end());
    const Percentile q = NearestRank(part, p);
    out.ok = out.ok && q.ok;
    out.beyond = std::min(out.beyond, q.beyond);
    sum += q.value;
  }
  out.value = sum / static_cast<double>(blocks);
  return out;
}

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
