// Figure 13: elastic scale-out under a load step.
//
// Paper: 6 Yoda instances at 5K req/s each (~40% CPU); at t=10 s the load
// doubles to 10K req/s each (~80% CPU); the controller adds 3 instances,
// bringing per-instance load to ~6.7K req/s and CPU to ~60%. No client flow
// breaks at any point, and latency stays flat (queues only build once CPU
// saturates).
//
// Rates are scaled 20x down for the single-core simulator; the CPU cost
// model is scaled up by the same factor so the utilization percentages land
// where the paper's do.

// With --x100 an additional section runs the same per-cell topology as
// workload::kScenarioCells independent cells at 100x the Fig 13 aggregate
// rate (cell-sharded across --threads N worker threads, default 1). Flow
// totals are worker-count-invariant; only wall-clock changes with N.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "src/workload/open_loop.h"
#include "src/workload/parallel_load.h"
#include "src/workload/scenario.h"

namespace {

workload::TestbedConfig Fig13CellConfig() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.spare_instances = 3;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  cfg.instance_template.cpu_costs.per_connection = sim::Usec(500);
  cfg.instance_template.cpu_costs.per_packet = sim::Usec(18);
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.70;
  cfg.controller.scale_out_step = 3;
  cfg.controller.scale_out_ticks = 3;
  return cfg;
}

// 100x the steady-state Fig 13 aggregate (6 instances x 250 req/s), spread
// across the cells; 3 simulated seconds keeps the flow count (~450K) within
// a couple of minutes of wall-clock on one core.
void RunX100(int threads) {
  std::printf("\n=== x100 section: %d cells, %d worker thread(s) ===\n",
              workload::kScenarioCells, threads);
  const double aggregate_rate = 100.0 * 6 * 250;
  const auto wall0 = std::chrono::steady_clock::now();
  const workload::ParallelLoadResult r = workload::RunShardedFetchLoad(
      Fig13CellConfig(), aggregate_rate, sim::Sec(3), threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  std::printf("  x100: %llu ok, %llu failed across %d cells (%d workers) in %.1f s"
              " -> %.0f flows/s\n",
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.failed), r.cells, r.workers, wall,
              static_cast<double>(r.ok + r.failed) / wall);
}

}  // namespace

int main(int argc, char** argv) {
  bool x100 = false;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--x100") == 0) {
      x100 = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::printf("usage: %s [--x100] [--threads N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Figure 13: scale-out under a 2x load step ===\n");
  std::printf("Paper: CPU 40%% -> 80%% at the step -> 60%% after +3 instances; no broken flows.\n\n");

  workload::TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.spare_instances = 3;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  // Small objects; CPU model scaled so 250 req/s/instance ~= 40% CPU.
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  cfg.instance_template.cpu_costs.per_connection = sim::Usec(500);
  cfg.instance_template.cpu_costs.per_packet = sim::Usec(18);
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.70;
  cfg.controller.scale_out_step = 3;
  cfg.controller.scale_out_ticks = 3;  // ~2 s of sustained overload, as in Fig 13.
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  sim::Rng rng(5);
  workload::FetchTally tally;

  // Open-loop load: 250 req/s per initial instance, doubling at t=10 s.
  workload::PoissonLoad load(&tb.sim, &rng, 250.0 * 6, [&]() {
    workload::FetchRandomObject(tb, rng, nullptr, tb.vip(), {}, &tally);
  });
  load.Start(sim::Msec(1), sim::Sec(30));
  tb.sim.At(sim::Sec(10), [&]() { load.set_rate(500.0 * 6); });

  // Per-second sampler: requests landed per active instance + CPU.
  std::printf("%-8s %-12s %-14s %-12s %-10s\n", "t (s)", "#instances", "req/s/instance",
              "avg CPU %", "failed");
  std::uint64_t last_flows = 0;
  std::function<void(int)> sample = [&](int second) {
    if (second > 30) {
      return;
    }
    tb.sim.At(sim::Sec(second), [&, second]() {
      const auto active = tb.controller->ActiveInstances();
      std::uint64_t flows = 0;
      double cpu = 0;
      for (auto* inst : active) {
        flows += inst->stats().flows_started;
        cpu += inst->cpu().Utilization(tb.sim.now());
        inst->cpu().ResetWindow(tb.sim.now());
      }
      const double rate = static_cast<double>(flows - last_flows) /
                          static_cast<double>(active.size());
      last_flows = flows;
      if (second % 2 == 0) {
        std::printf("%-8d %-12zu %-14.0f %-12.1f %-10llu\n", second, active.size(), rate,
                    100.0 * cpu / static_cast<double>(active.size()),
                    static_cast<unsigned long long>(tally.failed));
      }
      sample(second + 1);
    });
  };
  sample(1);

  tb.sim.Run();

  std::printf("\n%-44s %-12s %-12s\n", "metric", "paper", "measured");
  std::printf("%-44s %-12s %-12zu\n", "instances after scale-out", "9",
              tb.controller->ActiveInstances().size());
  std::printf("%-44s %-12s %llu/%llu\n", "broken flows during scaling", "0",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.ok + tally.failed));
  tb.PrintMetricsSnapshot();

  if (x100) {
    RunX100(threads);
  }
  return 0;
}
