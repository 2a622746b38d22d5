#include "src/workload/parallel_load.h"

#include <memory>
#include <vector>

#include "src/sim/sharded_sim.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace workload {
namespace {

// Per-cell generator state; only the cell's owning shard touches it while the
// engine runs.
struct Cell {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<sim::Rng> rng;
  FetchTally tally;
  std::unique_ptr<PoissonLoad> load;
};

}  // namespace

ParallelLoadResult RunShardedFetchLoad(const TestbedConfig& cell_template,
                                       double aggregate_rate, sim::Duration duration,
                                       int workers) {
  sim::ShardedSim::Config ecfg;
  ecfg.shards = kScenarioCells;
  ecfg.workers = workers;
  sim::ShardedSim engine(ecfg);

  std::vector<std::unique_ptr<Cell>> cells;
  for (int c = 0; c < kScenarioCells; ++c) {
    TestbedConfig cfg = cell_template;
    cfg.external_sim = &engine.shard(c);
    cfg.seed = cell_template.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(c);
    auto cell = std::make_unique<Cell>();
    cell->tb = std::make_unique<Testbed>(cfg);
    cell->tb->DefineDefaultVipAndStart();
    cell->rng = std::make_unique<sim::Rng>(5 ^ cfg.seed);
    Cell* cs = cell.get();
    cell->load = std::make_unique<PoissonLoad>(
        cs->tb->simulator, cs->rng.get(), aggregate_rate / kScenarioCells, [cs]() {
          FetchRandomObject(*cs->tb, *cs->rng, nullptr, cs->tb->vip(), {}, &cs->tally);
        });
    cell->load->Start(sim::Msec(1), duration);
    cells.push_back(std::move(cell));
  }

  engine.Run();

  ParallelLoadResult result;
  result.cells = kScenarioCells;
  result.workers = engine.workers();
  for (auto& cell : cells) {
    result.ok += cell->tally.ok;
    result.failed += cell->tally.failed;
  }
  return result;
}

}  // namespace workload
