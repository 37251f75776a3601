// Order statistics and failure accounting for the perfbench report.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values when the count is even);
/// 0 for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The reported tail of a set of unit times: the highest whole percentile
/// whose nearest-rank sample still has at least `beyond` samples above it,
/// so the figure rests on at least that many slower units. With too few
/// units for any percentile from 50 up, it falls back to the median (p50)
/// and says so through `percentile`.
struct Tail {
  int percentile = 50;
  std::size_t units = 0;  // samples the percentile was taken over
  double value = 0.0;
};

/// Nearest rank (1-based) of percentile `q` among `n` samples.
inline std::size_t nearest_rank(int q, std::size_t n) {
  const std::size_t scaled = static_cast<std::size_t>(q) * n;
  std::size_t rank = scaled / 100 + (scaled % 100 != 0 ? 1 : 0);
  return rank < 1 ? 1 : rank;
}

inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.units = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int q = 99; q >= 50; --q) {
    if (n - nearest_rank(q, n) >= beyond) {
      t.percentile = q;
      break;
    }
  }
  t.value = v[nearest_rank(t.percentile, n) - 1];
  return t;
}

/// Units attempted and failed, with the first few failure messages kept for
/// the report. fail_frac is failed / attempted.
class Tally {
 public:
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < kKeptMessages) messages_.push_back(what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr std::size_t kKeptMessages = 20;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
