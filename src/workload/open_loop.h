// Open-loop Poisson load: the one request generator behind the scenario
// runner, the cell-sharded fetch load and the benches.
//
// The generator owns only the arrival process. The caller supplies the body
// that issues one request, so each caller keeps its own RNG draw order:
// whatever the body draws (client, then target, then URL) comes first, and
// the generator draws the gap to the next arrival after the body returns.

#ifndef SRC_WORKLOAD_OPEN_LOOP_H_
#define SRC_WORKLOAD_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/workload/browser_client.h"
#include "src/workload/testbed.h"

namespace workload {

// Fires `fire` at the first arrival and then after every Exponential(1/rate)
// gap drawn from `rng`, for as long as the arrival falls at or before the
// end. Open loop: arrivals never wait for earlier requests to finish. The
// pending arrival event points at this object, so it must outlive the
// simulator run.
class PoissonLoad {
 public:
  PoissonLoad(sim::Simulator* simulator, sim::Rng* rng, double rate,
              std::function<void()> fire)
      : sim_(simulator), rng_(rng), rate_(rate), fire_(std::move(fire)) {}
  PoissonLoad(const PoissonLoad&) = delete;
  PoissonLoad& operator=(const PoissonLoad&) = delete;

  // Schedules the first arrival at `first`; arrivals stop after `end`.
  void Start(sim::Time first, sim::Time end) {
    end_ = end;
    Schedule(first);
  }
  // Arrivals per simulated second; applies from the next gap drawn.
  void set_rate(double rate) { rate_ = rate; }

 private:
  void Schedule(sim::Time when);

  sim::Simulator* sim_;
  sim::Rng* rng_;
  double rate_;
  sim::Time end_ = 0;
  std::function<void()> fire_;
};

// Uniform pick with the single UniformInt draw every generator uses.
template <typename T>
const T& PickUniform(sim::Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
}

// Outcome counts of a stream of fetches.
struct FetchTally {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  sim::Histogram latency_ms;  // Successful fetches only.

  void Add(const FetchResult& r) {
    if (r.ok) {
      ++ok;
      latency_ms.Add(sim::ToMillis(r.latency));
    } else {
      ++failed;
    }
  }
};

// The generators' common request body: `client` (or, when null, a uniform
// pick from tb.clients) fetches a uniform pick from the catalog at `target`,
// and the outcome lands in `tally`. Draws: client, then object.
void FetchRandomObject(Testbed& tb, sim::Rng& rng, BrowserClient* client, net::IpAddr target,
                       const FetchOptions& opts, FetchTally* tally);

}  // namespace workload

#endif  // SRC_WORKLOAD_OPEN_LOOP_H_
