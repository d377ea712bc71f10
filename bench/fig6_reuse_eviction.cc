// Figure 6 reproduction: "Data Reuse and Eviction Behavior" — per-interval
// hit (reuse) and eviction counts over time for the same four window sizes
// as Figure 5.
//
// Paper shape: reuse rises during the intensive period for every window;
// after step 300 eviction turns aggressive for m <= 200; for m = 400 the
// eviction trend inverts (decreasing over the tail) because the expiring
// slices belong to the intensive period whose keys still see reuse, and
// node allocation keeps rising past the burst.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "figcommon.h"

namespace ecc::bench {
namespace {

double SumRange(const Series& s, double x_lo, double x_hi) {
  double total = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.xs()[i] >= x_lo && s.xs()[i] < x_hi) total += s.ys()[i];
  }
  return total;
}

/// Last step at which the node count increased (0 if it never grew).
double LastGrowthStep(const Series& nodes) {
  double last = 0.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes.ys()[i] > nodes.ys()[i - 1]) last = nodes.xs()[i];
  }
  return last;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  Config cfg = ParseArgs(argc, argv);
  // The m=400 window only finishes expiring burst slices at step 700
  // (300 + m); run past that so the decay of the eviction curve — the
  // paper's "inverted trend" for (d) — is observable.
  if (!cfg.Has("steps")) cfg.Set("steps", "1000");
  PrintHeader(
      "Figure 6 — Data Reuse and Eviction Behavior (32K keys, phased rate)",
      "Per-interval hits and evictions, windows m = 50/100/200/400, "
      "alpha = 0.99.");

  const std::vector<std::size_t> windows = {50, 100, 200, 400};
  std::vector<workload::ExperimentResult> results;
  for (std::size_t m : windows) {
    results.push_back(RunPhased(cfg, m, cfg.GetDouble("alpha", 0.99),
                                /*threshold=*/-1.0,
                                "m" + std::to_string(m)));
  }

  SeriesSet fig("step");
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::string m = std::to_string(windows[i]);
    const Series* hits = results[i].series.Find("hits");
    const Series* evict = results[i].series.Find("evictions");
    const Series* nodes = results[i].series.Find("nodes");
    Series& hc = fig.Get("hits_m" + m);
    Series& ec = fig.Get("evict_m" + m);
    Series& nc = fig.Get("nodes_m" + m);
    for (std::size_t j = 0; j < hits->size(); ++j) {
      hc.Add(hits->xs()[j], hits->ys()[j]);
      ec.Add(evict->xs()[j], evict->ys()[j]);
      nc.Add(nodes->xs()[j], nodes->ys()[j]);
    }
  }
  std::printf("\n%s\n", fig.ToTable().c_str());
  MaybeWriteCsv(cfg, fig, "fig6_reuse_eviction");

  const auto steps = static_cast<double>(cfg.GetInt("steps", 1000));
  Table summary({"window", "hits_normal1", "hits_burst", "hits_tail",
                 "evict_burst", "evict_peak_per_step", "evict_late_per_step",
                 "last_node_growth", "nodes_max"});
  struct Shape {
    double hits_normal, hits_burst, hits_tail;
    double evict_burst, evict_mid, evict_late;
    double last_growth, nodes_max;
  };
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Series* hits = results[i].series.Find("hits");
    const Series* evict = results[i].series.Find("evictions");
    const Series* nodes = results[i].series.Find("nodes");
    Shape s{};
    s.hits_normal = SumRange(*hits, 0, 101);
    s.hits_burst = SumRange(*hits, 101, 301);
    s.hits_tail = SumRange(*hits, 400, steps + 1);
    s.evict_burst = SumRange(*evict, 101, 301);
    // Peak era: +-50 steps around the expiry of the last burst slice
    // (step 300 + m); late era: the final 150 steps.  Normalized per step.
    const double peak_center = 300.0 + static_cast<double>(windows[i]);
    s.evict_mid =
        SumRange(*evict, peak_center - 50, peak_center + 50) / 100.0;
    s.evict_late = SumRange(*evict, steps - 150, steps + 1) / 150.0;
    s.last_growth = LastGrowthStep(*nodes);
    s.nodes_max = nodes->MaxY();
    shapes.push_back(s);
    summary.AddRow({"m=" + std::to_string(windows[i]),
                    FormatG(s.hits_normal), FormatG(s.hits_burst),
                    FormatG(s.hits_tail), FormatG(s.evict_burst),
                    FormatG(s.evict_mid), FormatG(s.evict_late),
                    FormatG(s.last_growth), FormatG(s.nodes_max)});
    const std::string m = "_m" + std::to_string(windows[i]);
    BenchMetric("hits_normal" + m, s.hits_normal);
    BenchMetric("hits_burst" + m, s.hits_burst);
    BenchMetric("hits_tail" + m, s.hits_tail);
  }
  std::printf("%s\n", summary.ToString().c_str());

  bool ok = true;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    // Burst has 5x the queries of the first 100 steps; reuse must rise by
    // more than the traffic ratio alone would during the burst.
    ok &= ShapeCheck("m=" + std::to_string(windows[i]) +
                         ": reuse increases over the intensive period",
                     shapes[i].hits_burst > 5.0 * shapes[i].hits_normal);
  }
  ok &= ShapeCheck("larger windows reuse more during the burst",
                   shapes[0].hits_burst < shapes[3].hits_burst);
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    // m <= 200: once the rate drops, reuse chances fall and eviction turns
    // aggressive ("this allows aggressive eviction behaviors in all
    // cases" except (d)).
    ok &= ShapeCheck(
        "m=" + std::to_string(windows[i]) +
            ": aggressive eviction after the burst expires",
        shapes[i].evict_mid > 0.0 && shapes[i].evict_late > 0.0);
  }
  // (d): the eviction trend inverts — once the burst-era slices finish
  // expiring (step 300 + m = 700), the expiring slices belong to the
  // low-rate tail and the eviction rate decays instead of rising.
  ok &= ShapeCheck("m=400: eviction quiet while burst slices in window",
                   shapes[3].evict_burst == 0.0);
  ok &= ShapeCheck(
      "m=400: eviction decreases over time (late era < peak era)",
      shapes[3].evict_late < shapes[3].evict_mid);
  ok &= ShapeCheck(
      "m=400: node allocation continues past the intensive period "
      "(last growth after step 300)",
      shapes[3].last_growth > 300.0);
  ok &= ShapeCheck(
      "m<=200: node growth completes by the end of the burst",
      shapes[0].last_growth <= 310.0 && shapes[1].last_growth <= 310.0);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "fig6_reuse_eviction");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
