#include "src/workload/open_loop.h"

namespace workload {

void PoissonLoad::Schedule(sim::Time when) {
  if (when > end_) {
    return;
  }
  sim_->At(when, [this]() {
    fire_();
    Schedule(sim_->now() + sim::FromSeconds(rng_->Exponential(1.0 / rate_)));
  });
}

void FetchRandomObject(Testbed& tb, sim::Rng& rng, BrowserClient* client, net::IpAddr target,
                       const FetchOptions& opts, FetchTally* tally) {
  if (client == nullptr) {
    client = PickUniform(rng, tb.clients).get();
  }
  const WebObject& obj = PickUniform(rng, tb.catalog->objects());
  client->FetchObject(target, 80, obj.url, opts, [tally](const FetchResult& r) { tally->Add(r); });
}

}  // namespace workload
