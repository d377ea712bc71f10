// Temporal sliding window with exponential-decay eviction scoring
// (paper §III.B, Fig. 2).
//
// The window T = (t_1, ..., t_m) holds the keys queried in each of the m
// most recent time slices (t_1 = the slice currently filling).  When a
// slice expires past t_m, every key recorded in the expired slice gets an
// eviction score over the still-in-window slices,
//
//   lambda(k) = sum_{i=1..m} alpha^{i-1} * |{k in t_i}|
//
// and keys with lambda(k) < T_lambda are designated for global eviction.
// The baseline threshold alpha^{m-1} keeps any key queried at least once
// anywhere in the window.
//
// Scoring follows each key's occurrences instead of probing all m slices.
// Completed slices carry sequence numbers.  When a slice closes, each of
// its keys gets a link: how many slices back the key occurred before (0 =
// not in the window).  An index maps each key to the newest completed
// slice holding it.  Scoring an expiring key walks from that slice down
// the links to the expiring one, so an expiry costs O(occurrences of the
// expiring keys), whatever m is; a key whose newest occurrence is the
// expiring slice leaves the index and scores 0.  A query costs one insert
// into the filling slice: links are set once per slice, when it closes.
//
// The walk adds weight * count newest-first, with weights built by
// repeated multiplication: the order and the operations of a
// slice-by-slice sum, so every score is bit-identical to that sum.  In
// particular a key queried once in the oldest in-window slice scores
// exactly the baseline threshold.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace ecc::core {

struct SlidingWindowOptions {
  /// Window length m in time slices.  0 means infinite: nothing ever
  /// expires (the Fig. 3 configuration).
  std::size_t slices = 0;
  /// Decay alpha in (0, 1).
  double alpha = 0.99;
  /// Eviction threshold T_lambda; negative selects the baseline
  /// alpha^(m-1).
  double threshold = -1.0;
};

/// Result of one slice expiry.
struct SliceExpiry {
  /// Keys whose score fell below threshold (candidates for eviction).
  std::vector<Key> evicted;
  /// Distinct keys in the expired slice (scored population).
  std::size_t scored = 0;
  /// Number of slices that fell out of the window (usually 0 while the
  /// window is filling, then 1; more only right after a Resize shrink).
  std::size_t expired_slices = 0;
};

class SlidingWindow {
 public:
  explicit SlidingWindow(SlidingWindowOptions opts);

  [[nodiscard]] const SlidingWindowOptions& options() const { return opts_; }
  [[nodiscard]] bool infinite() const { return opts_.slices == 0; }
  [[nodiscard]] double EffectiveThreshold() const { return threshold_; }

  /// Record one query for `k` in the current slice t_1.
  void RecordQuery(Key k);

  /// Close the current slice and open a new one.  If a slice fell out of
  /// the window, score its keys and report eviction candidates.
  SliceExpiry AdvanceSlice();

  /// Current eviction score of `k` over the in-window slices.
  [[nodiscard]] double Lambda(Key k) const;

  /// Occurrences of `k` in slice i (1-based, 1 = newest); 0 if absent.
  [[nodiscard]] std::uint32_t CountInSlice(Key k, std::size_t i) const;

  /// Number of slices currently held (completed + the filling one).
  [[nodiscard]] std::size_t ActiveSlices() const { return window_.size(); }

  /// Distinct keys across the whole window.
  [[nodiscard]] std::size_t DistinctKeys() const;

  /// Change the window length in-flight (dynamic window extension).
  /// Shrinking expires surplus old slices on the next AdvanceSlice calls;
  /// growing simply allows the deque to lengthen.  0 makes the window
  /// infinite; a finite length given to an infinite window expires every
  /// slice beyond it on the next AdvanceSlice.
  void Resize(std::size_t new_slices);

 private:
  /// One key's entry in one slice.
  struct Occurrence {
    std::uint32_t count = 0;
    /// Slices back to the key's previous occurrence; 0 = none.  Set when
    /// the slice closes.
    std::uint32_t link = 0;
  };
  using Slice = std::unordered_map<Key, Occurrence>;

  /// Adds weight * count to `score` newest-first over the completed slices
  /// holding `k`, from slice `seq` down the links to just above slice
  /// `stop`, and returns the sum.
  [[nodiscard]] double SumOccurrences(Key k, std::uint64_t seq,
                                      std::uint64_t stop, double score) const;

  SlidingWindowOptions opts_;
  double threshold_;
  /// front() = the filling slice, then t_1 (newest completed) ... t_m
  /// (oldest retained) toward back().  window_[p], p >= 1, is completed
  /// slice number closed_ - p + 1.
  std::deque<Slice> window_;
  /// Completed slices so far; the number of t_1.
  std::uint64_t closed_ = 0;
  /// Key -> number of the newest completed in-window slice holding it.
  std::unordered_map<Key, std::uint64_t> newest_;
  /// weight_[p] = the weight of window_[p]: 1, 1, alpha, alpha^2, ...
  /// Covers every slice held, surplus ones after a Resize shrink included.
  std::vector<double> weight_;
};

}  // namespace ecc::core
