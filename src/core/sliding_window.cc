#include "core/sliding_window.h"

#include <cassert>

namespace ecc::core {

namespace {
// alpha^(m-1) computed by repeated multiplication — the exact operation
// sequence that builds the weight table, so a key queried once in the
// oldest in-window slice scores *exactly* the baseline threshold and is
// kept ("will not evict any key queried even just once in the span of the
// sliding window").  std::pow can differ in the last ulp and break that.
double BaselineThreshold(double alpha, std::size_t m) {
  double t = 1.0;
  for (std::size_t i = 1; i < m; ++i) t *= alpha;
  return t;
}
}  // namespace

SlidingWindow::SlidingWindow(SlidingWindowOptions opts)
    : opts_(opts), weight_{1.0, 1.0} {
  assert(opts_.alpha > 0.0 && opts_.alpha < 1.0);
  if (opts_.threshold >= 0.0) {
    threshold_ = opts_.threshold;
  } else if (opts_.slices > 0) {
    threshold_ = BaselineThreshold(opts_.alpha, opts_.slices);
  } else {
    threshold_ = 0.0;  // infinite window: nothing is ever scored
  }
  window_.emplace_front();  // the filling slice
}

void SlidingWindow::RecordQuery(Key k) { ++window_.front()[k].count; }

SliceExpiry SlidingWindow::AdvanceSlice() {
  // The filling slice closes and becomes t_1: link each of its keys to the
  // key's previous occurrence and make it the newest.
  ++closed_;
  for (auto& [k, occ] : window_.front()) {
    const auto [it, first] = newest_.try_emplace(k, closed_);
    if (!first) {
      assert(closed_ - it->second <= UINT32_MAX);
      occ.link = static_cast<std::uint32_t>(closed_ - it->second);
      it->second = closed_;
    }
  }
  // A fresh filling slice opens.  window_ = [filling, t_1, t_2, ..., t_m];
  // everything beyond t_m is "t_{m+1}": expired, scored against the
  // retained window.
  SliceExpiry result;
  window_.emplace_front();
  while (weight_.size() < window_.size()) {
    weight_.push_back(weight_.back() * opts_.alpha);
  }
  if (infinite()) return result;

  while (window_.size() > opts_.slices + 1) {
    const std::uint64_t oldest = closed_ + 2 - window_.size();  // back()
    Slice expired = std::move(window_.back());
    window_.pop_back();
    ++result.expired_slices;
    for (const auto& [k, occ] : expired) {
      ++result.scored;
      const auto it = newest_.find(k);
      assert(it != newest_.end());
      double score = 0.0;
      if (it->second == oldest) {
        newest_.erase(it);  // no occurrence left in the window
      } else {
        score = SumOccurrences(k, it->second, oldest, 0.0);
      }
      if (score < threshold_) result.evicted.push_back(k);
    }
    // Only one slice expires per advance in steady state; the loop also
    // drains surplus slices after a Resize shrink, scoring each against
    // every slice still held.
  }
  return result;
}

double SlidingWindow::SumOccurrences(Key k, std::uint64_t seq,
                                     std::uint64_t stop, double score) const {
  while (seq > stop) {
    const std::size_t pos = static_cast<std::size_t>(closed_ - seq) + 1;
    const auto found = window_[pos].find(k);
    assert(found != window_[pos].end());
    const Occurrence& occ = found->second;
    score += weight_[pos] * occ.count;
    if (occ.link == 0) break;
    seq -= occ.link;
  }
  return score;
}

double SlidingWindow::Lambda(Key k) const {
  // The filling slice shares t_1's weight (recent queries are rewarded
  // immediately); completed slice i gets alpha^(i-1).
  double score = 0.0;
  const Slice& filling = window_.front();
  if (const auto it = filling.find(k); it != filling.end()) {
    score += weight_[0] * it->second.count;
  }
  const auto it = newest_.find(k);
  if (it == newest_.end()) return score;
  // Slices numbered at or below this one have expired.
  const std::uint64_t stop = closed_ + 1 - window_.size();
  return SumOccurrences(k, it->second, stop, score);
}

std::uint32_t SlidingWindow::CountInSlice(Key k, std::size_t i) const {
  assert(i >= 1);
  if (i > window_.size()) return 0;
  const Slice& slice = window_[i - 1];
  const auto it = slice.find(k);
  return it == slice.end() ? 0 : it->second.count;
}

std::size_t SlidingWindow::DistinctKeys() const {
  std::size_t n = newest_.size();
  for (const auto& [k, occ] : window_.front()) {
    if (!newest_.contains(k)) ++n;
  }
  return n;
}

void SlidingWindow::Resize(std::size_t new_slices) {
  opts_.slices = new_slices;
  if (opts_.slices > 0 && opts_.threshold < 0.0) {
    threshold_ = BaselineThreshold(opts_.alpha, opts_.slices);
  }
}

}  // namespace ecc::core
