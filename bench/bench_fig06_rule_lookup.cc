// Figure 6: HAProxy-style rule-lookup latency vs number of installed rules.
//
// Two views:
//   1. google-benchmark micro-measurements of the actual linear-scan
//      classifier in this repo (wall-clock ns per lookup);
//   2. the calibrated latency model used by the simulator (base + per-rule),
//      which reproduces the paper's shape: P90 at 10K rules ~= 3x P90 at 1K,
//      and ~5 ms at the R_y = 2K operating point the evaluation uses.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/http/message.h"
#include "src/rules/rule_table.h"
#include "src/sim/random.h"

namespace {

rules::RuleTable BuildTable(int n_rules, sim::Rng& rng) {
  rules::RuleTable table;
  for (int i = 0; i < n_rules; ++i) {
    rules::Rule r;
    r.name = std::string("r").append(std::to_string(i));
    r.priority = static_cast<int>(rng.UniformInt(0, 9));
    // Distinct URL prefixes so most rules do not match most requests.
    r.match.url_glob = "/svc" + std::to_string(i) + "/*";
    r.action.type = rules::ActionType::kWeightedSplit;
    r.action.backends = {{net::MakeIp(10, 3, 0, static_cast<std::uint8_t>(i % 30 + 1)), 80, 1.0}};
    table.Add(std::move(r));
  }
  // Catch-all at the lowest priority (every lookup scans the full chain, the
  // worst case the paper's Fig 6 measures).
  rules::Rule fallback;
  fallback.name = "default";
  fallback.priority = -1;
  fallback.match.url_glob = "*";
  fallback.action.type = rules::ActionType::kWeightedSplit;
  fallback.action.backends = {{net::MakeIp(10, 3, 0, 1), 80, 1.0}};
  table.Add(std::move(fallback));
  return table;
}

void BM_RuleLookup(benchmark::State& state) {
  sim::Rng rng(7);
  rules::RuleTable table = BuildTable(static_cast<int>(state.range(0)), rng);
  rules::SelectionContext ctx;
  ctx.rng = &rng;
  http::Request req = http::MakeGet("/no-such-service/object.jpg", "mysite.com");
  for (auto _ : state) {
    auto sel = table.Select(req, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleLookup)->Arg(100)->Arg(500)->Arg(1000)->Arg(2000)->Arg(5000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Figure 6: rule-lookup latency vs number of rules ===\n");
  std::printf("Paper: P90 grows ~linearly; 10K rules ~3x the latency of 1K rules;\n");
  std::printf("       the 5 ms latency target corresponds to R_y = 2K rules.\n\n");

  // Simulator latency model (base 3.18 ms + 0.9 us per rule scanned), fitted
  // to the two anchors above.
  const double base_ms = 3.18;
  const double per_rule_us = 0.91;
  std::printf("%-10s %-22s\n", "#rules", "modelled P90 latency (ms)");
  double at_1k = 0;
  double at_10k = 0;
  for (int n : {100, 500, 1000, 2000, 5000, 10000}) {
    const double ms = base_ms + per_rule_us * n / 1000.0;
    if (n == 1000) {
      at_1k = ms;
    }
    if (n == 10000) {
      at_10k = ms;
    }
    std::printf("%-10d %-22.2f\n", n, ms);
  }
  std::printf("\n%-34s %-10s %-10s\n", "metric", "paper", "model");
  std::printf("%-34s %-10s %-10.2f\n", "latency(10K) / latency(1K)", "~3x", at_10k / at_1k);
  std::printf("%-34s %-10s %-10.2f\n", "latency at R_y=2K rules (ms)", "5",
              base_ms + per_rule_us * 2.0);
  std::printf("\n--- micro-benchmark of the actual classifier ---\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
