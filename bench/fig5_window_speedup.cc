// Figure 5 reproduction: "Speedup under Eviction/Contraction" for sliding
// window sizes m = 50/100/200/400, alpha = 0.99, baseline threshold
// T_lambda = alpha^(m-1), on the phased workload (50 -> 250 -> 50 q/step).
//
// Paper shape: all windows adapt to the intensive period; peak speedup and
// node usage grow with m (m=50: ~1.55x on ~2 nodes; m=400: ~8x on up to 8
// nodes); after step 300 nodes relax but never back to 1 (conservative,
// churn-avoiding contraction).
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "figcommon.h"

namespace ecc::bench {
namespace {

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Figure 5 — Speedup under Eviction/Contraction (32K keys, phased "
      "rate)",
      "Sliding windows m = 50/100/200/400, alpha = 0.99, baseline "
      "threshold.");

  const std::vector<std::size_t> windows = {50, 100, 200, 400};
  std::vector<workload::ExperimentResult> results;
  for (std::size_t m : windows) {
    results.push_back(RunPhased(cfg, m, cfg.GetDouble("alpha", 0.99),
                                /*threshold=*/-1.0,
                                "m" + std::to_string(m)));
  }

  // Speedup and node columns per window, shared step axis.
  SeriesSet fig("step");
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Series* sp = results[i].series.Find("speedup");
    Series& col = fig.Get("speedup_m" + std::to_string(windows[i]));
    for (std::size_t j = 0; j < sp->size(); ++j) {
      col.Add(sp->xs()[j], sp->ys()[j]);
    }
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Series* nodes = results[i].series.Find("nodes");
    Series& col = fig.Get("nodes_m" + std::to_string(windows[i]));
    for (std::size_t j = 0; j < nodes->size(); ++j) {
      col.Add(nodes->xs()[j], nodes->ys()[j]);
    }
  }
  std::printf("\n%s\n", fig.ToTable().c_str());
  MaybeWriteCsv(cfg, fig, "fig5_window_speedup");

  Table summary({"window", "max_speedup", "final_speedup", "hit_rate",
                 "nodes_mean", "nodes_max", "nodes_final", "evictions",
                 "merges", "cost_usd"});
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& s = results[i].summary;
    summary.AddRow({"m=" + std::to_string(windows[i]),
                    FormatG(s.max_speedup), FormatG(s.final_speedup),
                    FormatG(s.hit_rate), FormatG(s.mean_nodes),
                    FormatG(static_cast<double>(s.max_nodes)),
                    FormatG(static_cast<double>(s.final_nodes)),
                    FormatG(static_cast<double>(s.evictions)),
                    FormatG(static_cast<double>(s.node_removals)),
                    FormatG(s.cost_usd)});
    const std::string m = "_m" + std::to_string(windows[i]);
    BenchMetric("speedup_peak" + m, s.max_speedup);
    BenchMetric("nodes_max" + m, static_cast<double>(s.max_nodes));
    BenchMetric("nodes_final" + m, static_cast<double>(s.final_nodes));
    BenchMetric("evictions" + m, static_cast<double>(s.evictions));
  }
  std::printf("%s\n", summary.ToString().c_str());

  bool ok = true;
  ok &= ShapeCheck(
      "peak speedup grows with window size (m50 < m100 < m200 < m400)",
      results[0].summary.max_speedup < results[1].summary.max_speedup &&
          results[1].summary.max_speedup < results[2].summary.max_speedup &&
          results[2].summary.max_speedup < results[3].summary.max_speedup);
  ok &= ShapeCheck("m=50 peaks modestly (max speedup in [1.2, 3])",
                   results[0].summary.max_speedup > 1.2 &&
                       results[0].summary.max_speedup < 3.0);
  ok &= ShapeCheck("m=400 peaks high (max speedup > 5x)",
                   results[3].summary.max_speedup > 5.0);
  ok &= ShapeCheck("node usage grows with window size (mean nodes ordered)",
                   results[0].summary.mean_nodes <
                           results[3].summary.mean_nodes &&
                       results[1].summary.mean_nodes <
                           results[3].summary.mean_nodes);
  ok &= ShapeCheck("m=50 runs on a small fleet (mean nodes <= 3.5)",
                   results[0].summary.mean_nodes <= 3.5);
  ok &= ShapeCheck("m=400 grows to ~8 nodes (max in [6, 11])",
                   results[3].summary.max_nodes >= 6 &&
                       results[3].summary.max_nodes <= 11);
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    const auto& s = results[i].summary;
    ok &= ShapeCheck("m=" + std::to_string(windows[i]) +
                         " relaxes nodes after the burst (final < max)",
                     s.final_nodes < s.max_nodes);
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ok &= ShapeCheck("m=" + std::to_string(windows[i]) +
                         " never contracts to a single node",
                     results[i].summary.final_nodes > 1);
  }
  // For m=400 the window outlives the burst: the paper flags that node
  // allocation persists well past the intensive period and questions the
  // cost tradeoff (§IV.C/D) — the fleet stays large at the end.
  ok &= ShapeCheck("m=400 retains a large fleet at the end (final >= 6)",
                   results[3].summary.final_nodes >= 6);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "fig5_window_speedup");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
