// Testbed: one-call assembly of the paper's §7 evaluation environment —
// network fabric, L4 muxes, TCPStore (memcached fleet + replicating client),
// Yoda instances, controller, backend web servers, catalog and clients.
// Integration tests, examples and benches all build on this instead of
// hand-wiring sixty objects.
//
// Default layout mirrors the Azure testbed: Yoda instances 10.1.0.x,
// TCPStore 10.2.0.x, backends 10.3.0.x, baseline proxies 10.4.0.x, clients
// 10.9.0.x (Internet region), VIPs 10.200.0.x.

#ifndef SRC_WORKLOAD_TESTBED_H_
#define SRC_WORKLOAD_TESTBED_H_

#include <memory>
#include <vector>

#include "src/baseline/proxy_instance.h"
#include "src/core/controller.h"
#include "src/fault/fault_plane.h"
#include "src/core/tcp_store.h"
#include "src/core/yoda_instance.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/placement.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"
#include "src/workload/browser_client.h"
#include "src/workload/http_server_node.h"
#include "src/workload/object_catalog.h"

namespace workload {

struct TestbedConfig {
  std::uint64_t seed = 42;
  // When set, every component is wired to this simulator instead of the
  // testbed's own `sim` member. Cell-sharded scenario runs use this to place
  // one whole testbed on each sim::ShardedSim shard; the pointer must
  // outlive the testbed.
  sim::Simulator* external_sim = nullptr;
  // Intra-cell sharding: when set, this ONE testbed spans the engine's
  // shards per `placement` — each instance/backend/kv/client is constructed
  // on its owning shard's simulator, the network delivers cross-shard
  // packets through the engine's mailboxes, the fabric and controller get
  // their cross-shard routing hooks, and observability is per-shard (see
  // metrics_lane/flight_lane). Mutually exclusive with external_sim; the
  // engine must outlive the testbed, and its epoch window must not exceed
  // the minimum cross-shard latency (dc_latency and kv network_delay).
  // Unsupported in this mode: assignment rollouts / auto-scale (counter
  // aggregation reads instance state cross-shard) and fault-plane packet
  // overlays (per-packet draws would race).
  sim::ShardedSim* engine = nullptr;
  sim::IntraPlacement placement;
  int yoda_instances = 4;
  int spare_instances = 0;
  int baseline_proxies = 0;
  int kv_servers = 3;
  int kv_replicas = 2;
  int backends = 6;
  int muxes = 4;
  int clients = 4;
  // Latency model: campus clients to the Azure DC, and intra-DC.
  sim::Duration internet_latency = sim::Msec(33);
  sim::Duration internet_jitter = sim::Msec(3);
  sim::Duration dc_latency = sim::Usec(250);
  sim::Duration dc_jitter = sim::Usec(50);
  sim::Duration server_processing = sim::Msec(1);
  bool build_catalog = true;
  CatalogConfig catalog;
  yoda::YodaInstanceConfig instance_template;  // ip is overwritten per instance.
  baseline::ProxyConfig proxy_template;        // ip is overwritten per proxy.
  yoda::ControllerConfig controller;
  // Controller HA: replica count (replica 0 is the `controller` member) and
  // whether the replicas contend for the store-backed leader lease. Off
  // (default) builds the single controller, identical to the seed. When on,
  // the testbed gives the control plane its own ReplicatingClient into the
  // same KV ring, enables bounded step retries (5, unless the template set
  // its own), and leaves every replica stopped until StartAllControllers().
  int controllers = 1;
  bool controller_ha = false;
  kv::KvServerConfig kv;
  kv::ReplicatingClientConfig kv_client;
  net::TcpConfig server_tcp;
  HttpServerConfig server_template;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- address plan ---
  net::IpAddr controller_ip(int i) const { return net::MakeIp(10, 0, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr instance_ip(int i) const { return net::MakeIp(10, 1, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr kv_ip(int i) const { return net::MakeIp(10, 2, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr backend_ip(int i) const { return net::MakeIp(10, 3, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr proxy_ip(int i) const { return net::MakeIp(10, 4, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr client_ip(int i) const { return net::MakeIp(10, 9, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr vip(int i = 0) const { return net::MakeIp(10, 200, 0, static_cast<std::uint8_t>(i + 1)); }

  // Equal-weight split rule over backends [first, first+count).
  std::vector<rules::Rule> EqualSplitRules(int first_backend, int count,
                                           const std::string& name = "r-default",
                                           const std::string& url_glob = "*");

  // Defines vip(0) with an equal split over all backends and starts the
  // controller monitor.
  void DefineDefaultVipAndStart();

  // Installs rules on all baseline proxies.
  void InstallProxyRules(const std::vector<rules::Rule>& proxy_rules);

  // Uniform end-of-run observability dump used by benches and examples:
  // prints the metrics registry as an aligned text table to stdout.
  void PrintMetricsSnapshot(const char* title = "metrics registry snapshot") const;

  // --- intra-cell sharding (cfg.engine set) ---
  bool placed() const { return cfg.engine != nullptr; }
  // Owning shard of an address under cfg.placement (controller_shard when
  // unplaced or the address is outside the testbed plan).
  int OwnerShardOf(net::IpAddr ip) const;
  // Simulator that owns `shard` (the testbed's single simulator when
  // unplaced).
  sim::Simulator* SimFor(int shard) const {
    return cfg.engine != nullptr ? &cfg.engine->shard(shard) : simulator;
  }
  // Runs `fn` on `shard`: inline when unplaced, idle, or already executing
  // there; otherwise a cross-shard CallOn landing at the next barrier.
  void RunOnOwner(int shard, std::function<void()> fn);
  // Per-shard observability lanes. Placed components report into their own
  // shard's registry/recorder (no cross-thread writes); report code merges
  // the lanes in shard order. Unplaced, both fall back to the shared
  // `metrics`/`flight` members and lane_count() is 0.
  int lane_count() const { return static_cast<int>(shard_metrics.size()); }
  obs::Registry& metrics_lane(int shard) {
    return shard_metrics.empty() ? metrics
                                 : *shard_metrics[static_cast<std::size_t>(shard)];
  }
  obs::FlightRecorder& flight_lane(int shard) {
    return shard_flight.empty() ? flight
                                : *shard_flight[static_cast<std::size_t>(shard)];
  }

  // Crash helpers (instance/proxy/kv/backend): mark down + drop state.
  void FailInstance(int i);
  void RecoverInstance(int i);
  void FailProxy(int i);
  void FailBackend(int i);
  void RecoverBackend(int i);
  void FailKvServer(int i);

  // Fault-plane crash/restart routed through the wired handlers: CrashInstance
  // drops state and blackholes the address; RestartInstance brings it back
  // warm (revive only) or cold (Network::RestartNode -> OnColdRestart).
  void CrashInstance(int i) { faults->CrashNode(instance_ip(i)); }
  void RestartInstance(int i, fault::FaultPlane::RestartMode mode =
                                  fault::FaultPlane::RestartMode::kCold) {
    faults->RestartNode(instance_ip(i), mode);
  }
  // KV replica answers, but `d` late (0 clears).
  void SlowKvServer(int i, sim::Duration d) { faults->SlowKv(kv_ip(i), d); }

  // --- controller HA helpers (controller_ha builds) ---
  int controller_count() const { return 1 + static_cast<int>(standbys.size()); }
  yoda::Controller* ControllerAt(int i) {
    return i == 0 ? controller.get() : standbys[static_cast<std::size_t>(i - 1)].get();
  }
  // Starts every replica (each contends for the lease; first CAS wins).
  void StartAllControllers();
  // Index of the replica currently acting as leader, or -1 during an
  // interregnum.
  int LeaderIndex();
  // The replica currently acting as leader, or nullptr during an interregnum.
  yoda::Controller* LeaderController() {
    const int i = LeaderIndex();
    return i < 0 ? nullptr : ControllerAt(i);
  }
  // The handle for control-plane writes: the leader under HA (a standby
  // silently ignores them), replica 0 otherwise or during an interregnum.
  yoda::Controller* ActiveController() {
    yoda::Controller* leader = cfg.controller_ha ? LeaderController() : nullptr;
    return leader != nullptr ? leader : controller.get();
  }
  // Runs the simulation until some replica holds the lease (or max_wait).
  yoda::Controller* AwaitLeader(sim::Duration max_wait = sim::Sec(2));
  // Crash/restart through the fault plane so the flight recorder sees the
  // kNodeCrash / kNodeRestart events the failover benches measure from.
  void CrashController(int i) { faults->CrashNode(controller_ip(i)); }
  void RestartController(int i) {
    faults->RestartNode(controller_ip(i), fault::FaultPlane::RestartMode::kWarm);
  }

  // --- components (construction order matters; declared accordingly) ---
  TestbedConfig cfg;
  sim::Simulator sim;
  // The simulator every component actually runs on: &sim normally, the
  // engine-owned shard when cfg.external_sim is set (then `sim` is idle and
  // callers must drive the external engine, not tb.sim).
  sim::Simulator* const simulator;
  // Shared observability: every component reports into this registry, and
  // every flow's lifecycle lands in this flight recorder. Placed testbeds
  // use the per-shard lanes below instead (metrics_lane/flight_lane).
  obs::Registry metrics;
  obs::FlightRecorder flight;
  // Per-shard observability lanes (placed mode only; one per engine shard).
  std::vector<std::unique_ptr<obs::Registry>> shard_metrics;
  std::vector<std::unique_ptr<obs::FlightRecorder>> shard_flight;
  net::Network network;
  l4lb::L4Fabric fabric;
  std::vector<std::unique_ptr<kv::KvServer>> kv_servers;
  std::unique_ptr<kv::ReplicatingClient> kv_client;
  // Control-plane store client (controller_ha): the controllers journal and
  // contend for the lease through their own client into the same KV ring.
  std::unique_ptr<kv::ReplicatingClient> ctl_kv_client;
  std::unique_ptr<yoda::TcpStore> store;
  // Placed mode: each instance pipeline gets its own store client + TCPStore
  // on its owning shard (the shared `kv_client`/`store` above stay on the
  // controller shard); op messages hop shards via the engine's mailboxes.
  std::vector<std::unique_ptr<kv::ReplicatingClient>> instance_kv_clients;
  std::vector<std::unique_ptr<yoda::TcpStore>> instance_stores;
  std::unique_ptr<ObjectCatalog> catalog;
  std::vector<std::unique_ptr<yoda::YodaInstance>> instances;
  std::vector<std::unique_ptr<yoda::YodaInstance>> spares;
  std::vector<std::unique_ptr<baseline::ProxyInstance>> proxies;
  std::vector<std::unique_ptr<HttpServerNode>> servers;
  std::vector<std::unique_ptr<BrowserClient>> clients;
  std::unique_ptr<yoda::Controller> controller;
  // HA standby replicas (replicas 1..controllers-1); empty unless
  // controller_ha. Each sees the same fleet as replica 0.
  std::vector<std::unique_ptr<yoda::Controller>> standbys;
  // Fault-injection plane: installed as the network's fault hook, seeded from
  // cfg.seed, with crash/restart/kv-slow handlers mapped to the components
  // above. With no faults scheduled it never draws, so same-seed runs stay
  // bit-identical to pre-fault-plane builds.
  std::unique_ptr<fault::FaultPlane> faults;

 private:
  yoda::Controller* ControllerByIp(net::IpAddr ip);
  yoda::YodaInstance* InstanceByIp(net::IpAddr ip);
  HttpServerNode* ServerByIp(net::IpAddr ip);
  kv::KvServer* KvByIp(net::IpAddr ip);
  baseline::ProxyInstance* ProxyByIp(net::IpAddr ip);
};

}  // namespace workload

#endif  // SRC_WORKLOAD_TESTBED_H_
