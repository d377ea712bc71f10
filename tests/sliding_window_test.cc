// Tests for the sliding-window decay eviction scorer (paper §III.B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/sliding_window.h"

namespace ecc::core {
namespace {

SlidingWindowOptions Window(std::size_t m, double alpha = 0.99,
                            double threshold = -1.0) {
  SlidingWindowOptions opts;
  opts.slices = m;
  opts.alpha = alpha;
  opts.threshold = threshold;
  return opts;
}

TEST(SlidingWindowTest, BaselineThresholdIsAlphaToMMinusOne) {
  const SlidingWindow w(Window(100, 0.99));
  EXPECT_NEAR(w.EffectiveThreshold(), std::pow(0.99, 99), 1e-12);
  // The paper quotes ~0.367 for m=100, alpha=0.99.
  EXPECT_NEAR(w.EffectiveThreshold(), 0.3697, 1e-3);
}

TEST(SlidingWindowTest, ExplicitThresholdOverridesBaseline) {
  const SlidingWindow w(Window(100, 0.99, 0.5));
  EXPECT_DOUBLE_EQ(w.EffectiveThreshold(), 0.5);
}

TEST(SlidingWindowTest, LambdaWeightsDecayWithAge) {
  SlidingWindow w(Window(10, 0.5));
  w.RecordQuery(1);           // filling slice: weight 1
  EXPECT_DOUBLE_EQ(w.Lambda(1), 1.0);
  (void)w.AdvanceSlice();     // now t_1: still weight 1
  EXPECT_DOUBLE_EQ(w.Lambda(1), 1.0);
  (void)w.AdvanceSlice();     // t_2: alpha
  EXPECT_DOUBLE_EQ(w.Lambda(1), 0.5);
  (void)w.AdvanceSlice();     // t_3: alpha^2
  EXPECT_DOUBLE_EQ(w.Lambda(1), 0.25);
}

TEST(SlidingWindowTest, LambdaCountsMultiplicity) {
  SlidingWindow w(Window(10, 0.5));
  w.RecordQuery(1);
  w.RecordQuery(1);
  w.RecordQuery(1);
  EXPECT_DOUBLE_EQ(w.Lambda(1), 3.0);  // 3 hits in t_1, weight 1
  EXPECT_DOUBLE_EQ(w.Lambda(2), 0.0);
}

TEST(SlidingWindowTest, NoEvictionsWhileWindowFills) {
  SlidingWindow w(Window(5, 0.9));
  for (int i = 0; i < 5; ++i) {
    w.RecordQuery(static_cast<Key>(i));
    const SliceExpiry e = w.AdvanceSlice();
    EXPECT_TRUE(e.evicted.empty());
    EXPECT_EQ(e.expired_slices, 0u);
  }
}

TEST(SlidingWindowTest, KeySeenOnlyInExpiredSliceIsEvicted) {
  SlidingWindow w(Window(3, 0.9));
  w.RecordQuery(42);
  // Advance until the slice containing 42 passes t_m (m+1 advances: one to
  // complete it, m more to push it off the window).
  SliceExpiry e;
  for (int i = 0; i < 4; ++i) e = w.AdvanceSlice();
  ASSERT_EQ(e.expired_slices, 1u);
  ASSERT_EQ(e.evicted.size(), 1u);
  EXPECT_EQ(e.evicted[0], 42u);
  EXPECT_EQ(e.scored, 1u);
}

TEST(SlidingWindowTest, RequeriedKeySurvivesExpiry) {
  SlidingWindow w(Window(3, 0.9));
  w.RecordQuery(42);
  (void)w.AdvanceSlice();
  w.RecordQuery(42);  // fresh reference inside the window
  SliceExpiry e;
  for (int i = 0; i < 3; ++i) e = w.AdvanceSlice();
  // The slice with the first query expired, but lambda(42) >= threshold
  // because of the second reference.
  EXPECT_TRUE(e.evicted.empty());
  EXPECT_EQ(e.scored, 1u);
}

TEST(SlidingWindowTest, BaselineKeepsAnyKeyQueriedOnceInWindow) {
  // With the baseline threshold, a single query anywhere in the window is
  // enough to survive — the paper's "will not evict any key queried even
  // just once in the span of the sliding window".
  SlidingWindow w(Window(4, 0.99));
  w.RecordQuery(1);
  (void)w.AdvanceSlice();
  w.RecordQuery(1);  // second occurrence, one slice later
  SliceExpiry e;
  for (int i = 0; i < 4; ++i) e = w.AdvanceSlice();
  // First occurrence expired (scored); key survives via the in-window
  // occurrence even at the oldest in-window position (weight alpha^(m-1)
  // == the baseline threshold exactly).
  EXPECT_EQ(e.scored, 1u);
  EXPECT_TRUE(e.evicted.empty());
}

TEST(SlidingWindowTest, HigherThresholdEvictsMore) {
  // threshold above 1: even a key with one in-window reference dies.
  SlidingWindow strict(Window(3, 0.9, 1.5));
  strict.RecordQuery(7);
  (void)strict.AdvanceSlice();
  strict.RecordQuery(7);
  SliceExpiry e;
  for (int i = 0; i < 3; ++i) e = strict.AdvanceSlice();
  ASSERT_EQ(e.evicted.size(), 1u);
  EXPECT_EQ(e.evicted[0], 7u);
}

TEST(SlidingWindowTest, SmallerAlphaEvictsMoreAggressively) {
  // Same history, two decays: the low-alpha window evicts, the high-alpha
  // one keeps (this is Fig. 7's mechanism).
  const auto run = [](double alpha, double threshold) {
    SlidingWindow w(Window(5, alpha, threshold));
    w.RecordQuery(1);
    (void)w.AdvanceSlice();
    w.RecordQuery(1);
    SliceExpiry e;
    for (int i = 0; i < 5; ++i) e = w.AdvanceSlice();
    return e.evicted.size();
  };
  // Fixed threshold 0.5: alpha=0.99 keeps (0.99^4 ~= 0.96 > 0.5), alpha=0.7
  // evicts (0.7^4 ~= 0.24 < 0.5).
  EXPECT_EQ(run(0.99, 0.5), 0u);
  EXPECT_EQ(run(0.70, 0.5), 1u);
}

TEST(SlidingWindowTest, InfiniteWindowNeverExpires) {
  SlidingWindow w(Window(0));
  EXPECT_TRUE(w.infinite());
  for (int i = 0; i < 100; ++i) {
    w.RecordQuery(static_cast<Key>(i));
    const SliceExpiry e = w.AdvanceSlice();
    EXPECT_TRUE(e.evicted.empty());
    EXPECT_EQ(e.expired_slices, 0u);
  }
  EXPECT_EQ(w.ActiveSlices(), 101u);
  EXPECT_EQ(w.DistinctKeys(), 100u);
}

TEST(SlidingWindowTest, CountInSliceIndexesFromNewest) {
  SlidingWindow w(Window(5));
  w.RecordQuery(9);
  w.RecordQuery(9);
  EXPECT_EQ(w.CountInSlice(9, 1), 2u);
  (void)w.AdvanceSlice();
  EXPECT_EQ(w.CountInSlice(9, 1), 0u);
  EXPECT_EQ(w.CountInSlice(9, 2), 2u);
  EXPECT_EQ(w.CountInSlice(9, 99), 0u);
}

TEST(SlidingWindowTest, ResizeShrinkDrainsSurplusSlices) {
  SlidingWindow w(Window(10, 0.9));
  for (int i = 0; i < 10; ++i) {
    w.RecordQuery(static_cast<Key>(100 + i));
    (void)w.AdvanceSlice();
  }
  EXPECT_EQ(w.ActiveSlices(), 11u);  // 10 completed + filling
  w.Resize(4);
  const SliceExpiry e = w.AdvanceSlice();
  // 11 completed after the advance - 4 retained = 7 expired at once.
  EXPECT_EQ(e.expired_slices, 7u);
  EXPECT_EQ(w.ActiveSlices(), 5u);  // 4 completed + filling
  // Keys seen only in the drained slices are eviction candidates.
  EXPECT_GE(e.evicted.size(), 5u);
}

TEST(SlidingWindowTest, ResizeGrowAllowsLongerHistory) {
  SlidingWindow w(Window(2, 0.9));
  w.Resize(5);
  for (int i = 0; i < 4; ++i) {
    w.RecordQuery(1);
    (void)w.AdvanceSlice();
  }
  EXPECT_EQ(w.ActiveSlices(), 5u);  // 4 completed + filling
  // Baseline threshold rescaled to the new m.
  EXPECT_NEAR(w.EffectiveThreshold(), std::pow(0.9, 4), 1e-12);
}

TEST(SlidingWindowTest, ScoredCountsDistinctKeysOfExpiredSlice) {
  SlidingWindow w(Window(2, 0.9));
  w.RecordQuery(1);
  w.RecordQuery(1);
  w.RecordQuery(2);
  (void)w.AdvanceSlice();
  (void)w.AdvanceSlice();
  const SliceExpiry e = w.AdvanceSlice();
  EXPECT_EQ(e.scored, 2u);  // {1, 2}, multiplicity ignored
}

// --- Parameterized guarantees across (m, alpha) ------------------------------

struct WindowParams {
  std::size_t m;
  double alpha;
};

class WindowGuarantees : public ::testing::TestWithParam<WindowParams> {};

TEST_P(WindowGuarantees, BaselineNeverEvictsInWindowKeys) {
  // The paper's guarantee: with T_lambda = alpha^(m-1), a key queried even
  // once within the window survives every expiry.  Drive random traffic
  // and verify no evicted key had an in-window reference.
  const WindowParams p = GetParam();
  SlidingWindow w(Window(p.m, p.alpha));
  Rng rng(500 + p.m);
  std::deque<std::vector<Key>> recent;  // last m slices of queried keys
  for (int step = 0; step < 400; ++step) {
    std::vector<Key> this_slice;
    const std::size_t q = rng.Uniform(20);
    for (std::size_t i = 0; i < q; ++i) {
      const Key k = rng.Uniform(64);
      w.RecordQuery(k);
      this_slice.push_back(k);
    }
    const SliceExpiry e = w.AdvanceSlice();
    recent.push_front(std::move(this_slice));
    if (recent.size() > p.m) recent.pop_back();
    for (Key victim : e.evicted) {
      for (const auto& slice : recent) {
        for (Key k : slice) {
          ASSERT_NE(k, victim)
              << "step " << step << ": evicted key " << victim
              << " was queried within the window";
        }
      }
    }
  }
}

TEST_P(WindowGuarantees, LambdaIsMonotoneInRecency) {
  // Two keys with single occurrences: the more recent one scores higher.
  const WindowParams p = GetParam();
  if (p.m < 4) GTEST_SKIP();
  SlidingWindow w(Window(p.m, p.alpha));
  w.RecordQuery(1);  // older
  (void)w.AdvanceSlice();
  (void)w.AdvanceSlice();
  w.RecordQuery(2);  // newer
  (void)w.AdvanceSlice();
  EXPECT_GT(w.Lambda(2), w.Lambda(1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowGuarantees,
    ::testing::Values(WindowParams{5, 0.99}, WindowParams{20, 0.99},
                      WindowParams{50, 0.95}, WindowParams{100, 0.9},
                      WindowParams{10, 0.5}),
    [](const ::testing::TestParamInfo<WindowParams>& param_info) {
      return "m" + std::to_string(param_info.param.m) + "_a" +
             std::to_string(
                 static_cast<int>(param_info.param.alpha * 100));
    });

// --- Indexed scorer vs the probe-every-slice reference -----------------------

// The reference scorer: it rescores each expiring key by looking it up in
// every slice held.  The indexed SlidingWindow must match it bit for bit.
class ProbeWindow {
 public:
  explicit ProbeWindow(SlidingWindowOptions opts) : opts_(opts) {
    if (opts_.threshold >= 0.0) {
      threshold_ = opts_.threshold;
    } else if (opts_.slices > 0) {
      threshold_ = Baseline();
    }
    window_.emplace_front();
  }

  [[nodiscard]] double EffectiveThreshold() const { return threshold_; }
  void RecordQuery(Key k) { ++window_.front()[k]; }

  SliceExpiry AdvanceSlice() {
    SliceExpiry result;
    window_.emplace_front();
    if (opts_.slices == 0) return result;
    while (window_.size() > opts_.slices + 1) {
      Slice expired = std::move(window_.back());
      window_.pop_back();
      ++result.expired_slices;
      for (const auto& [k, count] : expired) {
        ++result.scored;
        if (Lambda(k) < threshold_) result.evicted.push_back(k);
      }
    }
    return result;
  }

  [[nodiscard]] double Lambda(Key k) const {
    double score = 0.0;
    double weight = 1.0;
    bool filling = true;
    for (const Slice& slice : window_) {
      const auto it = slice.find(k);
      if (it != slice.end()) score += weight * it->second;
      if (filling) {
        filling = false;
      } else {
        weight *= opts_.alpha;
      }
    }
    return score;
  }

  [[nodiscard]] std::uint32_t CountInSlice(Key k, std::size_t i) const {
    if (i > window_.size()) return 0;
    const auto it = window_[i - 1].find(k);
    return it == window_[i - 1].end() ? 0 : it->second;
  }

  [[nodiscard]] std::size_t ActiveSlices() const { return window_.size(); }

  [[nodiscard]] std::size_t DistinctKeys() const {
    std::unordered_set<Key> keys;
    for (const Slice& slice : window_) {
      for (const auto& [k, count] : slice) keys.insert(k);
    }
    return keys.size();
  }

  void Resize(std::size_t new_slices) {
    opts_.slices = new_slices;
    if (opts_.slices > 0 && opts_.threshold < 0.0) threshold_ = Baseline();
  }

 private:
  using Slice = std::unordered_map<Key, std::uint32_t>;

  [[nodiscard]] double Baseline() const {
    double t = 1.0;
    for (std::size_t i = 1; i < opts_.slices; ++i) t *= opts_.alpha;
    return t;
  }

  SlidingWindowOptions opts_;
  double threshold_ = 0.0;
  std::deque<Slice> window_;
};

struct ReferenceParams {
  std::size_t m;  // 0 = infinite
  double alpha;
  double threshold;  // negative = baseline
};

class IndexedMatchesProbe : public ::testing::TestWithParam<ReferenceParams> {};

TEST_P(IndexedMatchesProbe, BitForBitUnderRandomTrafficAndResizes) {
  const ReferenceParams p = GetParam();
  const SlidingWindowOptions opts = Window(p.m, p.alpha, p.threshold);
  SlidingWindow w(opts);
  ProbeWindow ref(opts);
  Rng rng(900 + p.m * 7 + static_cast<std::uint64_t>(p.alpha * 100) +
          (p.threshold < 0.0 ? 0 : 1));
  constexpr Key kKeys = 40;  // small, so keys recur across slices
  // Grow, shrink (draining several slices in one advance), then restore.
  const std::size_t grow = 3 * p.m + 2;
  const std::size_t shrink = std::max<std::size_t>(1, p.m / 2);
  std::unordered_set<Key> seen;
  for (int step = 1; step <= 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step == 80) {
      w.Resize(grow);
      ref.Resize(grow);
    } else if (step == 200) {
      w.Resize(shrink);
      ref.Resize(shrink);
    } else if (step == 300) {
      w.Resize(p.m);
      ref.Resize(p.m);
    }
    ASSERT_EQ(w.EffectiveThreshold(), ref.EffectiveThreshold());
    // Some slices stay empty; the rest take up to 30 queries.
    const std::size_t queries = rng.Uniform(4) == 0 ? 0 : rng.Uniform(31);
    for (std::size_t q = 0; q < queries; ++q) {
      const Key k = rng.Uniform(kKeys);
      w.RecordQuery(k);
      ref.RecordQuery(k);
      seen.insert(k);
    }
    // The filling slice counts toward Lambda() before the advance too.
    for (Key k : seen) ASSERT_EQ(w.Lambda(k), ref.Lambda(k)) << "key " << k;

    const SliceExpiry got = w.AdvanceSlice();
    const SliceExpiry want = ref.AdvanceSlice();
    EXPECT_EQ(got.evicted, want.evicted);
    EXPECT_EQ(got.scored, want.scored);
    EXPECT_EQ(got.expired_slices, want.expired_slices);
    EXPECT_EQ(w.DistinctKeys(), ref.DistinctKeys());
    ASSERT_EQ(w.ActiveSlices(), ref.ActiveSlices());
    for (Key k : seen) {
      EXPECT_EQ(w.Lambda(k), ref.Lambda(k)) << "key " << k;
      for (std::size_t i = 1; i <= ref.ActiveSlices() + 1; ++i) {
        EXPECT_EQ(w.CountInSlice(k, i), ref.CountInSlice(k, i))
            << "key " << k << " slice " << i;
      }
    }
    if (HasFailure()) return;  // one step's report is enough
  }
}

std::vector<ReferenceParams> ReferenceSweep() {
  std::vector<ReferenceParams> all;
  for (std::size_t m : {0, 1, 2, 5, 100}) {
    for (double alpha : {0.5, 0.99}) {
      for (double threshold : {-1.0, 1.5}) all.push_back({m, alpha, threshold});
    }
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexedMatchesProbe, ::testing::ValuesIn(ReferenceSweep()),
    [](const ::testing::TestParamInfo<ReferenceParams>& param_info) {
      const ReferenceParams& q = param_info.param;
      return "m" + std::to_string(q.m) + "_a" +
             std::to_string(static_cast<int>(q.alpha * 100)) +
             (q.threshold < 0.0 ? "_baseline" : "_explicit");
    });

}  // namespace
}  // namespace ecc::core
