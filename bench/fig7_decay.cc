// Figure 7 reproduction: "Data Reuse Behavior for Various Decay" —
// m = 100 window, decay alpha in {0.99, 0.98, 0.95, 0.93}, fixed eviction
// threshold (the m=100/alpha=0.99 baseline, ~0.3697), phased workload.
//
// Paper shape: smaller alpha evicts more aggressively (the exponential
// nature of the decay makes it very sensitive), the cache grows more
// slowly, yet actual cache hits do not vary enough across alphas to change
// speedup materially.
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "figcommon.h"

namespace ecc::bench {
namespace {

// alpha_ref^(m-1) with the same multiplication chain the window uses.
double FixedThreshold(double alpha_ref, std::size_t m) {
  double t = 1.0;
  for (std::size_t i = 1; i < m; ++i) t *= alpha_ref;
  return t;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Figure 7 — Data Reuse vs Decay (m = 100, alpha = "
      "0.99/0.98/0.95/0.93)",
      "Fixed threshold T_lambda ~= 0.3697; smaller alpha evicts more "
      "aggressively.");

  const std::size_t m = cfg.GetInt("window", 100);
  const double threshold = FixedThreshold(0.99, m);
  const std::vector<double> alphas = {0.99, 0.98, 0.95, 0.93};
  std::vector<workload::ExperimentResult> results;
  for (double alpha : alphas) {
    results.push_back(
        RunPhased(cfg, m, alpha, threshold, "alpha" + FormatG(alpha)));
  }

  SeriesSet fig("step");
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const std::string a = FormatG(alphas[i]);
    const Series* hits = results[i].series.Find("hits");
    const Series* evict = results[i].series.Find("evictions");
    Series& hc = fig.Get("hits_a" + a);
    Series& ec = fig.Get("evict_a" + a);
    for (std::size_t j = 0; j < hits->size(); ++j) {
      hc.Add(hits->xs()[j], hits->ys()[j]);
      ec.Add(evict->xs()[j], evict->ys()[j]);
    }
  }
  std::printf("\n%s\n", fig.ToTable().c_str());
  MaybeWriteCsv(cfg, fig, "fig7_decay");

  Table summary({"alpha", "total_hits", "hit_rate", "evictions",
                 "nodes_mean", "nodes_max", "max_speedup", "cost_usd"});
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const auto& s = results[i].summary;
    summary.AddRow({FormatG(alphas[i]),
                    FormatG(static_cast<double>(s.total_hits)),
                    FormatG(s.hit_rate),
                    FormatG(static_cast<double>(s.evictions)),
                    FormatG(s.mean_nodes),
                    FormatG(static_cast<double>(s.max_nodes)),
                    FormatG(s.max_speedup), FormatG(s.cost_usd)});
    BenchMetric("hits_total_a" + FormatG(alphas[i]),
                static_cast<double>(s.total_hits));
  }
  std::printf("%s\n", summary.ToString().c_str());

  bool ok = true;
  ok &= ShapeCheck(
      "evictions increase as alpha decreases (0.99 < 0.93 aggression)",
      results[0].summary.evictions < results[3].summary.evictions);
  ok &= ShapeCheck(
      "eviction counts are monotone across the alpha sweep",
      results[0].summary.evictions <= results[1].summary.evictions &&
          results[1].summary.evictions <= results[2].summary.evictions &&
          results[2].summary.evictions <= results[3].summary.evictions);
  ok &= ShapeCheck(
      "smaller alpha grows the cache more slowly (mean nodes ordered)",
      results[3].summary.mean_nodes <= results[0].summary.mean_nodes);
  {
    // "the number of actual cache hits does not seem to vary enough" —
    // within ~35% across the sweep.
    double lo = 1e18, hi = 0;
    for (const auto& r : results) {
      lo = std::min(lo, static_cast<double>(r.summary.total_hits));
      hi = std::max(hi, static_cast<double>(r.summary.total_hits));
    }
    ok &= ShapeCheck("total hits vary by < 35% across alphas",
                     hi <= lo * 1.35);
  }
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "fig7_decay");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
