// One benchmark run of one workload, in one process.
//
//   yoda_perfbench --workload NAME --seed N [--rounds R] [--trace]
//
// Each of R rounds builds the workload's testbed through the public
// workload::Testbed API, drives an open loop of requests for the workload's
// span of simulated load, waits until every request has finished and checks
// each response against the catalog. Prints one JSON object on stdout:
//
//   "sim"    simulated outputs pooled over rounds, and "rounds" per round;
//            for a fixed seed they repeat exactly, so a traced and an
//            untraced round of one seed must agree on them;
//   "host"   what the simulator cost: setup time, load-phase wall and CPU
//            time, peak RSS and a host-speed probe, one entry per round;
//   "layers" (--trace only) per-layer counts and host times of round 0.
//
// Tracing is done from outside: every instance, backend, client and VIP
// address is re-attached to a TimingProxy node that forwards to the real
// node and accumulates host nanoseconds per call. Layers without a packet
// entry point (KV server, flight recorder) are timed afterwards by direct
// calls at the shape the traced run observed. Nothing under src/ changes.
//
// See RATIONALE.md beside this file for why each workload exists.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flow_state.h"
#include "src/kv/kv_server.h"
#include "src/obs/trace.h"
#include "src/sim/random.h"
#include "src/sim/sharded_sim.h"
#include "src/workload/browser_client.h"
#include "src/workload/testbed.h"

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux.
}

// Lowers the process's RSS high-water mark to its current RSS, so each
// round reports its own peak. Without procfs the mark keeps rising.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "yoda_perfbench: %s\n", why.c_str());
  std::exit(2);
}

// Host-speed probe: a fixed, memory-bound loop of random read-modify-writes
// over a 32 MB table that shares no code with the simulator. Shared hosts
// slow it and the simulator down together, so run.py scales host times by
// its duration. The table is mapped and unmapped here, so it never counts
// toward a round's peak RSS.
double ProbeHostMs() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  constexpr std::size_t kBytes = kWords * sizeof(std::uint64_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    Die("cannot map the host-speed probe table");
  }
  auto* table = static_cast<std::uint64_t*>(mem);
  for (std::size_t i = 0; i < kWords; ++i) {
    table[i] = i;
  }
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (kWords - 1)];
    acc += slot;
    slot = x;
  }
  const double ms = static_cast<double>(NsSince(t0)) / 1e6;
  munmap(mem, kBytes);
  if (acc == 0) {
    Die("host-speed probe read nothing");
  }
  return ms;
}

// --- workloads --------------------------------------------------------------

struct Spec {
  const char* name;
  sim::Duration load;     // Simulated span of the open loop in one round.
  double conn_per_s;      // Poisson connection arrivals, summed over clients.
  int requests_per_conn;  // 1: FetchObject; >1: one HTTP/1.1 FetchSequence.
  bool small_objects;     // Fig 13's ~10 KB catalog, else the heavy-tailed default.
  bool failover;          // HA controllers, two VIPs, crash/restart schedule.
  int workers;            // 0: one simulator; else placed on 8 shards, this many workers.
};

// Why each exists: RATIONALE.md.
constexpr Spec kSpecs[] = {
    {"web_small", sim::Msec(500), 15000, 1, true, false, 0},
    {"bulk_keepalive", sim::Msec(500), 1200, 4, false, false, 0},
    {"failover_ha", sim::Msec(3000), 4500, 1, true, true, 0},
    {"placed_web", sim::Msec(500), 15000, 1, true, false, 1},
};

constexpr int kShards = 8;
// Simulated time granted to control-plane setup (leader election, VIP and
// store-mode plans) before the first request is scheduled.
constexpr sim::Duration kSetupWindow = sim::Sec(1);
// The load phase advances in slices; between slices the benchmark samples
// state (and, traced, re-asserts the VIP proxies) without adding events.
constexpr sim::Duration kSlice = sim::Msec(100);
// Requests still open this long after the last arrival count as failed.
constexpr sim::Duration kDrainCap = sim::Sec(120);
// Setups timed per round, each on a testbed that is then discarded. A setup
// takes about a millisecond, so one alone is at the mercy of the host; a
// round reports the median of these.
constexpr int kSetupsPerRound = 15;
// failover_ha: an instance restarts cold this long after its crash.
constexpr sim::Duration kRestartAfter = sim::Msec(700);

workload::TestbedConfig MakeConfig(const Spec& spec, std::uint64_t seed) {
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.yoda_instances = 6;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  if (spec.small_objects) {
    cfg.catalog.objects = 60;
    cfg.catalog.median_size = 10'000;
    cfg.catalog.sigma = 0.02;
    cfg.catalog.min_size = 9'800;
    cfg.catalog.max_size = 10'200;
  }
  if (spec.failover) {
    cfg.controller_ha = true;
    cfg.controllers = 3;
    // Crashed instances come back cold and must rejoin the pools.
    cfg.controller.readmit_instances = true;
    cfg.kv_client.read_mode = kv::ReadMode::kHedged;
    cfg.kv_client.max_retries = 2;
    cfg.kv_client.read_repair = true;
  }
  return cfg;
}

// A testbed and, for placed workloads, the engine it spans.
struct Bed {
  std::unique_ptr<sim::ShardedSim> engine;
  std::unique_ptr<workload::Testbed> tb;
  std::vector<net::IpAddr> vips;

  sim::Time now() const { return engine ? engine->now() : tb->simulator->now(); }
  void RunUntil(sim::Time t) {
    if (engine) {
      engine->RunUntil(t);
    } else {
      tb->simulator->RunUntil(t);
    }
  }
  std::vector<sim::Simulator*> sims() const {
    std::vector<sim::Simulator*> out;
    if (engine) {
      for (int s = 0; s < engine->shards(); ++s) {
        out.push_back(&engine->shard(s));
      }
    } else {
      out.push_back(tb->simulator);
    }
    return out;
  }
};

// Testbed construction through VIP and store-mode install and leader
// election, up to the instant the first request may be scheduled.
std::unique_ptr<Bed> Setup(const Spec& spec, std::uint64_t seed) {
  auto bed = std::make_unique<Bed>();
  workload::TestbedConfig cfg = MakeConfig(spec, seed);
  if (spec.workers > 0) {
    sim::ShardedSim::Config ecfg;
    ecfg.shards = kShards;
    ecfg.workers = spec.workers;
    bed->engine = std::make_unique<sim::ShardedSim>(ecfg);
    cfg.engine = bed->engine.get();
  }
  bed->tb = std::make_unique<workload::Testbed>(cfg);
  workload::Testbed& tb = *bed->tb;
  if (spec.failover) {
    tb.StartAllControllers();
    yoda::Controller* leader = tb.AwaitLeader();
    if (leader == nullptr) {
      Die("no controller won the lease");
    }
    bed->vips = {tb.vip(0), tb.vip(1)};
    for (net::IpAddr vip : bed->vips) {
      leader->DefineVip(vip, 80, tb.EqualSplitRules(0, cfg.backends));
    }
    leader->SetStoreMode(tb.vip(1), yoda::StoreMode::kStateless);
  } else {
    tb.DefineDefaultVipAndStart();
    bed->vips = {tb.vip(0)};
  }
  bed->RunUntil(bed->now() + kSetupWindow);
  for (std::size_t v = 0; v < bed->vips.size(); ++v) {
    if (!tb.network.IsAttached(bed->vips[v])) {
      Die("VIP not attached after setup");
    }
    for (auto& inst : tb.instances) {
      if (!inst->ServesVip(bed->vips[v])) {
        Die("instance does not serve the VIP after setup");
      }
      const yoda::StoreMode want =
          spec.failover && v == 1 ? yoda::StoreMode::kStateless : yoda::StoreMode::kStateful;
      if (inst->VipStoreMode(bed->vips[v]) != want) {
        Die("store mode not installed after setup");
      }
    }
  }
  return bed;
}

// --- tracing ----------------------------------------------------------------

// Forwards to the real node and accumulates host time. Each proxy is called
// only from its node's owning shard, so its accumulator is never shared; the
// alignment keeps proxies of different shards off one cache line.
class alignas(64) TimingProxy : public net::Node {
 public:
  TimingProxy(net::Node* inner, int shard) : inner_(inner), shard_(shard) {}

  void HandlePacket(const net::Packet& packet) override {
    const Clock::time_point t0 = Clock::now();
    inner_->HandlePacket(packet);
    ns_ += NsSince(t0);
    ++calls_;
  }
  void OnColdRestart() override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnColdRestart();
    ns_ += NsSince(t0);
  }

  std::int64_t ns() const { return ns_; }
  std::uint64_t calls() const { return calls_; }
  int shard() const { return shard_; }

 private:
  net::Node* inner_;
  int shard_;
  std::int64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

enum class Kind { kInstance, kFabric, kClient, kBackend };

struct Proxies {
  std::vector<std::pair<Kind, std::unique_ptr<TimingProxy>>> all;
  std::vector<std::pair<net::IpAddr, TimingProxy*>> vip_proxies;

  void Add(workload::Testbed& tb, Kind kind, net::IpAddr ip, net::Node* node,
           net::Region region) {
    all.emplace_back(kind, std::make_unique<TimingProxy>(node, tb.OwnerShardOf(ip)));
    tb.network.Attach(ip, all.back().second.get(), region);
    if (kind == Kind::kFabric) {
      vip_proxies.emplace_back(ip, all.back().second.get());
    }
  }

  // A leader takeover re-attaches each VIP to the fabric; put the proxy
  // back. Called only between slices, with the simulation idle. VIP
  // endpoints are never marked down, so re-attaching cannot revive one.
  void Reassert(workload::Testbed& tb) const {
    for (const auto& [ip, proxy] : vip_proxies) {
      tb.network.Attach(ip, proxy, net::Region::kDatacenter);
    }
  }

  std::int64_t Ns(Kind kind) const {
    std::int64_t n = 0;
    for (const auto& [k, p] : all) {
      n += k == kind ? p->ns() : 0;
    }
    return n;
  }
  std::uint64_t Calls(Kind kind) const {
    std::uint64_t n = 0;
    for (const auto& [k, p] : all) {
      n += k == kind ? p->calls() : 0;
    }
    return n;
  }
};

void AttachProxies(workload::Testbed& tb, const std::vector<net::IpAddr>& vips,
                   Proxies& proxies) {
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    proxies.Add(tb, Kind::kInstance, tb.instance_ip(static_cast<int>(i)),
                tb.instances[i].get(), net::Region::kDatacenter);
  }
  for (std::size_t i = 0; i < tb.servers.size(); ++i) {
    proxies.Add(tb, Kind::kBackend, tb.backend_ip(static_cast<int>(i)), tb.servers[i].get(),
                net::Region::kDatacenter);
  }
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    proxies.Add(tb, Kind::kClient, tb.client_ip(static_cast<int>(i)), tb.clients[i].get(),
                net::Region::kInternet);
  }
  for (net::IpAddr vip : vips) {
    proxies.Add(tb, Kind::kFabric, vip, &tb.fabric, net::Region::kDatacenter);
  }
}

// --- load -------------------------------------------------------------------

// Per-client open loop, owned and mutated only on the client's shard.
struct ClientLoad {
  explicit ClientLoad(std::uint64_t seed) : rng(seed) {}
  sim::Rng rng;
  std::uint64_t conns = 0;
  std::uint64_t conns_done = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t mismatches = 0;
  bool generating = true;
  std::vector<double> latency_ms;  // +inf for a failed request.
  std::int64_t gen_ns = 0;         // Traced: host time inside generator ticks.
  std::shared_ptr<std::function<void()>> tick;
};

// Tallies one response: status 200 and exactly the object's size, else it
// is a content-check mismatch and counts as failed.
void Tally(ClientLoad& cl, const workload::FetchResult& r, std::size_t want_bytes) {
  ++cl.requests;
  if (!r.ok) {
    ++cl.failed;
    cl.latency_ms.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  if (r.status != 200 || r.bytes != want_bytes) {
    ++cl.mismatches;
    ++cl.failed;
    cl.latency_ms.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  ++cl.ok;
  if (r.retries_used > 0) {
    ++cl.retried;
  }
  cl.latency_ms.push_back(sim::ToMillis(r.latency));
}

void StartLoad(const Spec& spec, Bed& bed, std::vector<std::unique_ptr<ClientLoad>>& loads,
               sim::Time start, sim::Time end, bool trace) {
  workload::Testbed& tb = *bed.tb;
  const double per_client = spec.conn_per_s / static_cast<double>(tb.clients.size());
  workload::FetchOptions opts;
  opts.http_timeout = sim::Sec(10);
  opts.retries = 2;
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    loads.push_back(std::make_unique<ClientLoad>(
        tb.cfg.seed ^ (0xB3E1C4ULL + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i))));
    ClientLoad* cl = loads.back().get();
    workload::BrowserClient* client = tb.clients[i].get();
    sim::Simulator* csim = tb.SimFor(tb.OwnerShardOf(client->ip()));
    cl->tick = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = cl->tick;
    *cl->tick = [&spec, &tb, &bed, cl, client, csim, per_client, end, opts, trace, weak]() {
      const Clock::time_point t0 = trace ? Clock::now() : Clock::time_point{};
      const auto& objects = tb.catalog->objects();
      auto pick = [&]() -> const workload::WebObject& {
        return objects[static_cast<std::size_t>(
            cl->rng.UniformInt(0, static_cast<std::int64_t>(objects.size()) - 1))];
      };
      const net::IpAddr vip = bed.vips[cl->conns % bed.vips.size()];
      ++cl->conns;
      if (spec.requests_per_conn == 1) {
        const workload::WebObject& obj = pick();
        client->FetchObject(vip, 80, obj.url, opts,
                            [cl, want = obj.size](const workload::FetchResult& r) {
                              Tally(*cl, r, want);
                              ++cl->conns_done;
                            });
      } else {
        std::vector<std::string> urls;
        std::vector<std::size_t> sizes;
        for (int k = 0; k < spec.requests_per_conn; ++k) {
          const workload::WebObject& obj = pick();
          urls.push_back(obj.url);
          sizes.push_back(obj.size);
        }
        client->FetchSequence(
            vip, 80, urls, opts,
            [cl, sizes = std::move(sizes)](std::vector<workload::FetchResult> rs) {
              // Each result's latency runs from the connection's start, so
              // it includes the requests before it on the connection.
              for (std::size_t k = 0; k < sizes.size(); ++k) {
                if (k < rs.size()) {
                  Tally(*cl, rs[k], sizes[k]);
                } else {
                  workload::FetchResult never;  // Not reached: connection failed.
                  Tally(*cl, never, sizes[k]);
                }
              }
              ++cl->conns_done;
            });
      }
      const sim::Time next = csim->now() + sim::FromSeconds(cl->rng.Exponential(1.0 / per_client));
      if (next < end) {
        if (auto self = weak.lock()) {
          csim->At(next, *self);
        }
      } else {
        cl->generating = false;
      }
      if (trace) {
        cl->gen_ns += NsSince(t0);
      }
    };
    const sim::Time first = start + sim::FromSeconds(cl->rng.Exponential(1.0 / per_client));
    csim->At(first, [tick = cl->tick]() { (*tick)(); });
  }
}

struct Crash {
  sim::Time at = 0;
  net::IpAddr ip = 0;
};

// failover_ha: one instance crashes each simulated second, round robin, and
// restarts cold kRestartAfter later; the leader controller crashes once,
// mid-run. Events run on the controller's simulator.
void ScheduleFaults(Bed& bed, sim::Time start, sim::Time end, std::vector<Crash>& crashes,
                    Crash& leader_crash) {
  workload::Testbed& tb = *bed.tb;
  sim::Simulator* csim = tb.SimFor(tb.cfg.placement.controller_shard);
  const int n = static_cast<int>(tb.instances.size());
  int k = 1;
  for (sim::Time t = start + sim::Sec(1); t + kRestartAfter < end; t += sim::Sec(1), ++k) {
    const int i = (k - 1) % n;
    csim->At(t, [&tb, &crashes, csim, i]() {
      crashes.push_back({csim->now(), tb.instance_ip(i)});
      tb.CrashInstance(i);
    });
    csim->At(t + kRestartAfter, [&tb, i]() { tb.RestartInstance(i); });
  }
  const sim::Time mid = start + (end - start) / 2 + sim::Msec(250);
  csim->At(mid, [&tb, &leader_crash, csim]() {
    for (int c = 0; c < tb.controller_count(); ++c) {
      if (tb.ControllerAt(c) == tb.LeaderController()) {
        leader_crash = {csim->now(), tb.controller_ip(c)};
        tb.CrashController(c);
        return;
      }
    }
  });
}

// --- after-run views ----------------------------------------------------------

// Every registry lane folded by instrument name: counters and gauges summed
// over labels, histograms merged.
struct RegistryView {
  std::map<std::string, double> scalars;
  std::map<std::string, sim::Histogram> hists;

  explicit RegistryView(workload::Testbed& tb) {
    const int lanes = std::max(1, tb.lane_count());
    for (int l = 0; l < lanes; ++l) {
      tb.metrics_lane(l).ForEach([this](const obs::Registry::Row& row) {
        if (row.counter != nullptr) {
          scalars[*row.name] += static_cast<double>(row.counter->value());
        } else if (row.gauge != nullptr) {
          scalars[*row.name] += row.gauge->value();
        } else {
          hists[*row.name].MergeFrom(*row.histogram);
        }
      });
    }
  }
  double Pct(const std::string& name, double p) const {
    auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.Percentile(p);
  }
};

struct Counts {
  std::uint64_t events = 0;
  std::vector<std::uint64_t> shard_events;
  net::NetworkStats net;
  l4lb::FabricStats fabric;
  kv::KvServerStats kv;
  yoda::StoreSessionStats store;
  std::map<std::string, double> scalars;
};

Counts Snapshot(Bed& bed) {
  workload::Testbed& tb = *bed.tb;
  Counts c;
  for (sim::Simulator* s : bed.sims()) {
    c.shard_events.push_back(s->executed_events());
    c.events += s->executed_events();
  }
  c.net = tb.network.stats();
  c.fabric = tb.fabric.stats();
  for (auto& s : tb.kv_servers) {
    const kv::KvServerStats& k = s->stats();
    c.kv.sets += k.sets;
    c.kv.gets += k.gets;
    c.kv.hits += k.hits;
    c.kv.misses += k.misses;
  }
  for (auto& inst : tb.instances) {
    const yoda::StoreSessionStats& st = inst->store_session().stats();
    c.store.ack_point_writes += st.ack_point_writes;
    c.store.sync_removes += st.sync_removes;
    c.store.journal_flushes += st.journal_flushes;
    c.store.journal_coalesced += st.journal_coalesced;
  }
  c.scalars = RegistryView(tb).scalars;
  return c;
}

// Linear interpolation between closest ranks; a rank that touches a failed
// request (+inf) is +inf.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0 || std::isinf(v[lo])) {
    return v[lo];
  }
  if (std::isinf(v[hi])) {
    return std::numeric_limits<double>::infinity();
  }
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// --- microbenches for layers with no packet entry point ------------------------

yoda::FlowState SampleFlowState(std::uint32_t i) {
  yoda::FlowState st;
  st.stage = yoda::FlowStage::kTunneling;
  st.client_ip = net::MakeIp(10, 9, 0, static_cast<std::uint8_t>(1 + i % 10));
  st.client_port = static_cast<net::Port>(10'000 + i % 50'000);
  st.vip = net::MakeIp(10, 200, 0, 1);
  st.vip_port = 80;
  st.client_isn = 0x1000 + i;
  st.lb_isn = 0x2000 + i;
  st.backend_ip = net::MakeIp(10, 3, 0, static_cast<std::uint8_t>(1 + i % 10));
  st.backend_port = 80;
  st.server_isn = 0x3000 + i;
  return st;
}

// TCPStore-shaped keys: a client-side and a server-side key per flow.
std::string FlowKey(std::uint32_t i) {
  const yoda::FlowState st = SampleFlowState(i / 2);
  return i % 2 == 0 ? yoda::ClientFlowKey(st.vip, st.vip_port, st.client_ip,
                                          static_cast<net::Port>(st.client_port + i / 100'000))
                    : yoda::ServerFlowKey(st.backend_ip, st.backend_port, st.vip,
                                          static_cast<net::Port>(st.client_port + i / 100'000));
}

// Host ns per KvServer::Set (fresh keys) or ::Get (live keys), completion
// events included, on a server already holding `live_items` items. Median
// of repeated batches.
double KvNsPerOp(bool set, std::size_t live_items) {
  sim::Simulator s;
  kv::KvServer server(&s, "bench");
  const std::string value = SampleFlowState(7).Serialize();
  const std::size_t live = std::max<std::size_t>(live_items, 1);
  std::vector<std::string> live_keys;
  for (std::uint32_t i = 0; i < live; ++i) {
    live_keys.push_back(FlowKey(i));
    server.Set(live_keys.back(), value, [](bool) {});
  }
  s.Run();
  constexpr int kReps = 15;
  constexpr std::size_t kBatch = 4000;
  std::uint64_t acks = 0;
  sim::Rng rng(99);
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < kBatch; ++i) {
      keys.push_back(set ? FlowKey(static_cast<std::uint32_t>(live + i))
                         : live_keys[static_cast<std::size_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(live) - 1))]);
    }
    const Clock::time_point t0 = Clock::now();
    for (const std::string& k : keys) {
      if (set) {
        server.Set(k, value, [&acks](bool) { ++acks; });
      } else {
        server.Get(k, [&acks](std::optional<std::string>) { ++acks; });
      }
    }
    s.Run();
    per_op.push_back(static_cast<double>(NsSince(t0)) / kBatch);
    if (set) {
      for (const std::string& k : keys) {
        server.Delete(k, [](bool) {});
      }
      s.Run();
    }
  }
  if (acks != kReps * kBatch) {
    Die("kv microbench lost completions");
  }
  return Median(per_op);
}

// Host ns per FlightRecorder::Record on a recorder already tracking
// `live_flows` flows.
double RecordNs(std::size_t live_flows) {
  obs::FlightRecorder rec;
  const std::size_t live = std::max<std::size_t>(live_flows, 1);
  std::vector<obs::FlowId> flows;
  for (std::uint32_t i = 0; i < live; ++i) {
    const yoda::FlowState st = SampleFlowState(i);
    flows.push_back(obs::FlowId{st.vip, st.vip_port, st.client_ip,
                                static_cast<std::uint16_t>(st.client_port + i / 50'000)});
    rec.Record(flows.back(), 0, obs::EventType::kClientSyn, st.vip);
  }
  constexpr int kReps = 15;
  constexpr std::size_t kBatch = 50'000;
  sim::Rng rng(7);
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::size_t> pick(kBatch);
    for (auto& p : pick) {
      p = static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(live) - 1));
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      rec.Record(flows[pick[i]], static_cast<sim::Time>(i), obs::EventType::kEstablished, 1, i);
    }
    per_op.push_back(static_cast<double>(NsSince(t0)) / kBatch);
  }
  return Median(per_op);
}

// --- JSON ---------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') {
        quoted += '\\';
      }
      quoted += ch;
    }
    Raw(key, quoted + "\"");
  }
  void List(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    Raw(key, s + "]");
  }
  void Obj(const std::string& key, const JsonObject& o) { Raw(key, o.str()); }
  void ObjList(const std::string& key, const std::vector<JsonObject>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + v[i].str();
    }
    Raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + v;
  }
  std::string body_;
};

// --- run ----------------------------------------------------------------------

// --- one round ------------------------------------------------------------------

// What one round measured. Requests that never finished count as attempted
// and failed, with +inf latency.
struct Round {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t connections = 0;
  std::vector<double> latency_ms;
  std::uint64_t events = 0;
  std::uint64_t packets_sent = 0;
  double end_ms = 0;
  double setup_s = 0;   // Median of the round's kSetupsPerRound timed setups.
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double probe_ms = 0;  // Host-speed probe, mean of before setup and after load.
  JsonObject layers;    // Traced rounds only.
};

// Simulated outputs of a set of requests; a traced and an untraced round of
// one seed must agree on every field.
JsonObject SimJson(std::uint64_t attempted, std::uint64_t ok, std::uint64_t failed,
                   std::uint64_t retried, std::uint64_t mismatches,
                   const std::vector<double>& latency_ms) {
  std::uint64_t slow = 0;
  for (double l : latency_ms) {
    slow += l >= 1000.0 ? 1 : 0;
  }
  JsonObject j;
  j.Num("attempted", static_cast<double>(attempted));
  j.Num("ok", static_cast<double>(ok));
  j.Num("failed", static_cast<double>(failed));
  j.Num("retried", static_cast<double>(retried));
  j.Num("mismatches", static_cast<double>(mismatches));
  j.Num("slow_1s", static_cast<double>(slow));
  j.Num("latency_p50_ms", Percentile(latency_ms, 50));
  j.Num("latency_p999_ms", Percentile(latency_ms, 99.9));
  return j;
}

JsonObject RoundJson(const Round& r) {
  JsonObject j = SimJson(r.attempted, r.ok, r.failed, r.retried, r.mismatches, r.latency_ms);
  j.Num("connections", static_cast<double>(r.connections));
  j.Num("events", static_cast<double>(r.events));
  j.Num("packets_sent", static_cast<double>(r.packets_sent));
  j.Num("end_ms", r.end_ms);
  return j;
}

std::uint64_t RoundSeed(std::uint64_t seed, int round) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(round);
}

Round RunRound(const Spec& spec, std::uint64_t seed, bool trace) {
  Round r;
  // Declared before the testbed so they outlive every callback into them.
  std::vector<std::unique_ptr<ClientLoad>> loads;
  std::vector<Crash> crashes;
  Crash leader_crash;
  Proxies proxies;

  const double probe_before = ProbeHostMs();
  std::vector<double> setups;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Bed> timed = Setup(spec, seed);
    setups.push_back(static_cast<double>(NsSince(t0)) / 1e9);
  }
  r.setup_s = Median(setups);
  // The round's own testbed: the same setup once more, untimed.
  ResetPeakRss();
  std::unique_ptr<Bed> bed = Setup(spec, seed);
  workload::Testbed& tb = *bed->tb;
  if (trace) {
    AttachProxies(tb, bed->vips, proxies);
  }

  const sim::Time start = bed->now();
  const sim::Time end = start + spec.load;
  const Counts before = Snapshot(*bed);
  StartLoad(spec, *bed, loads, start, end, trace);
  if (spec.failover) {
    ScheduleFaults(*bed, start, end, crashes, leader_crash);
  }

  std::size_t max_kv_items = 0;
  std::size_t max_server_items = 0;
  const double cpu0 = CpuSeconds();
  const Clock::time_point wall0 = Clock::now();
  for (sim::Time t = start + kSlice;; t += kSlice) {
    bed->RunUntil(t);
    if (trace) {
      proxies.Reassert(tb);
    }
    std::size_t items = 0;
    for (auto& s : tb.kv_servers) {
      items += s->item_count();
      max_server_items = std::max(max_server_items, s->item_count());
    }
    max_kv_items = std::max(max_kv_items, items);
    bool open = false;
    for (const auto& cl : loads) {
      open = open || cl->generating || cl->conns_done < cl->conns;
    }
    if (!open || t >= end + kDrainCap) {
      break;
    }
  }
  r.wall_s = static_cast<double>(NsSince(wall0)) / 1e9;
  r.cpu_s = CpuSeconds() - cpu0;
  r.peak_rss_mb = PeakRssMb();
  r.probe_ms = 0.5 * (probe_before + ProbeHostMs());
  const Counts after = Snapshot(*bed);

  std::uint64_t conns_done = 0;
  std::uint64_t requests = 0;
  std::int64_t gen_ns = 0;
  for (const auto& cl : loads) {
    r.connections += cl->conns;
    conns_done += cl->conns_done;
    requests += cl->requests;
    r.ok += cl->ok;
    r.failed += cl->failed;
    r.retried += cl->retried;
    r.mismatches += cl->mismatches;
    gen_ns += cl->gen_ns;
    r.latency_ms.insert(r.latency_ms.end(), cl->latency_ms.begin(), cl->latency_ms.end());
  }
  const std::uint64_t unfinished =
      (r.connections - conns_done) * static_cast<std::uint64_t>(spec.requests_per_conn);
  r.attempted = requests + unfinished;
  r.failed += unfinished;
  r.latency_ms.insert(r.latency_ms.end(), unfinished, std::numeric_limits<double>::infinity());
  r.events = after.events - before.events;
  r.packets_sent = after.net.sent - before.net.sent;
  r.end_ms = sim::ToMillis(bed->now() - start);
  if (!trace) {
    return r;
  }

  // --- per-layer figures -------------------------------------------------------
  const double req = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  const double cpu_ns = r.cpu_s * 1e9;
  const double wall_ns = r.wall_s * 1e9;
  auto delta = [&](const std::string& name) {
    auto a = after.scalars.find(name);
    auto b = before.scalars.find(name);
    return (a == after.scalars.end() ? 0.0 : a->second) -
           (b == before.scalars.end() ? 0.0 : b->second);
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const RegistryView reg(tb);
  JsonObject& L = r.layers;

  // sim event core and sharded engine.
  const double events = static_cast<double>(r.events);
  double proxy_ns = 0;
  std::vector<double> shard_busy(bed->sims().size(), 0.0);
  for (const auto& [kind, p] : proxies.all) {
    proxy_ns += static_cast<double>(p->ns());
    shard_busy[static_cast<std::size_t>(p->shard())] += static_cast<double>(p->ns());
  }
  double ev_max = 0;
  double ev_sum = 0;
  for (std::size_t s = 0; s < after.shard_events.size(); ++s) {
    const auto e = static_cast<double>(after.shard_events[s] - before.shard_events[s]);
    ev_max = std::max(ev_max, e);
    ev_sum += e;
  }
  std::size_t high_water = 0;
  for (sim::Simulator* s : bed->sims()) {
    high_water = std::max(high_water, s->queue_high_water());
  }
  L.Num("sim.events_per_req", events / req);
  L.Num("sim.host_ns_per_event", per(cpu_ns, events));
  L.Num("sim.queue_high_water", static_cast<double>(high_water));
  L.Num("sim.rest_host_ns_per_req", (cpu_ns - proxy_ns) / req);
  L.Num("sim.shard_events_max_over_mean",
        per(ev_max, ev_sum / static_cast<double>(after.shard_events.size())));
  L.Num("sim.shard_busy_frac_max",
        per(*std::max_element(shard_busy.begin(), shard_busy.end()), wall_ns));
  L.Num("sim.cpu_over_wall", per(r.cpu_s, r.wall_s));

  // net.
  const net::NetworkStats& n1 = after.net;
  const net::NetworkStats& n0 = before.net;
  const auto drops = static_cast<double>(
      (n1.dropped_loss + n1.dropped_down + n1.dropped_unroutable + n1.dropped_fault) -
      (n0.dropped_loss + n0.dropped_down + n0.dropped_unroutable + n0.dropped_fault));
  L.Num("net.pkts_per_req", static_cast<double>(r.packets_sent) / req);
  L.Num("net.drops_per_req", drops / req);
  L.Num("net.pool_slots", static_cast<double>(tb.network.packet_pool_slots()));

  // l4lb.
  L.Num("l4lb.host_ns_per_pkt", per(static_cast<double>(proxies.Ns(Kind::kFabric)),
                                    static_cast<double>(proxies.Calls(Kind::kFabric))));
  L.Num("l4lb.pkts_per_req",
        static_cast<double>(after.fabric.packets - before.fabric.packets) / req);
  L.Num("l4lb.dropped", static_cast<double>(after.fabric.dropped - before.fabric.dropped));

  // core data-plane pipeline.
  const auto inst_ns = static_cast<double>(proxies.Ns(Kind::kInstance));
  L.Num("core.host_ns_per_pkt",
        per(inst_ns, static_cast<double>(proxies.Calls(Kind::kInstance))));
  L.Num("core.host_ns_per_req", inst_ns / req);
  L.Num("core.rules_scanned_per_req", delta("yoda.rules_scanned_total") / req);
  L.Num("core.reswitches_per_req", delta("yoda.reswitches") / req);
  L.Num("core.stage.handshake_ms.p50", reg.Pct("yoda.stage.handshake_ms", 50));
  L.Num("core.stage.dispatch_ms.p50", reg.Pct("yoda.stage.dispatch_ms", 50));
  L.Num("core.stage.server_connect_ms.p50", reg.Pct("yoda.stage.server_connect_ms", 50));

  // core store session / TCPStore.
  L.Num("core.store.sets_per_req",
        static_cast<double>((after.store.ack_point_writes + after.store.sync_removes) -
                            (before.store.ack_point_writes + before.store.sync_removes)) /
            req);
  L.Num("core.store.ms.p50", reg.Pct("yoda.stage.store_ms", 50));
  L.Num("core.store.journal_flushes",
        static_cast<double>(after.store.journal_flushes - before.store.journal_flushes));
  L.Num("core.store.journal_coalesced",
        static_cast<double>(after.store.journal_coalesced - before.store.journal_coalesced));

  // core takeover.
  L.Num("core.takeovers_client", delta("yoda.takeovers_client_side"));
  L.Num("core.takeovers_server", delta("yoda.takeovers_server_side"));
  L.Num("core.takeovers_cookie", delta("yoda.takeovers_cookie"));
  L.Num("core.takeover_misses", delta("yoda.takeover_misses"));
  L.Num("core.cookie_rejects", delta("yoda.cookie_rejects"));
  L.Num("core.stage.takeover_ms.p99", reg.Pct("yoda.stage.takeover_ms", 99));

  // core control plane: instance crash -> first pool write after the
  // monitor declared it down; leader crash -> next lease acquisition.
  std::vector<obs::TraceEvent> sys;
  for (int l = 0; l < std::max(1, tb.lane_count()); ++l) {
    const auto& e = tb.flight_lane(l).system_events();
    sys.insert(sys.end(), e.begin(), e.end());
  }
  std::stable_sort(sys.begin(), sys.end(), [](const obs::TraceEvent& a,
                                              const obs::TraceEvent& b) { return a.at < b.at; });
  std::vector<double> repair_ms;
  for (const Crash& c : crashes) {
    bool down = false;
    for (const obs::TraceEvent& e : sys) {
      if (e.at < c.at) {
        continue;
      }
      if (e.type == obs::EventType::kInstanceDown && e.where == c.ip) {
        down = true;
      } else if (down && (e.type == obs::EventType::kPoolUpdate ||
                          (e.type == obs::EventType::kPoolMemberRemove &&
                           (e.detail & 0xffffffffULL) == c.ip))) {
        repair_ms.push_back(sim::ToMillis(e.at - c.at));
        break;
      }
    }
  }
  double failover_ms = 0;
  if (leader_crash.ip != 0) {
    for (const obs::TraceEvent& e : sys) {
      if (e.at >= leader_crash.at && e.type == obs::EventType::kLeaseAcquired) {
        failover_ms = sim::ToMillis(e.at - leader_crash.at);
        break;
      }
    }
  }
  L.Num("ctl.repair_ms", repair_ms.empty() ? 0.0 : Median(repair_ms));
  L.Num("ctl.repairs_seen", static_cast<double>(repair_ms.size()));
  L.Num("ctl.leader_failover_ms", failover_ms);
  L.Num("ctl.plans", delta("controller.reconcile.plans"));
  L.Num("ctl.steps", delta("controller.reconcile.steps"));
  L.Num("ctl.step_retries", delta("controller.reconcile.step_retries"));
  L.Num("ctl.monitor_ticks", delta("controller.monitor_ticks"));

  // kv.
  const auto kv_sets = static_cast<double>(after.kv.sets - before.kv.sets);
  const auto kv_gets = static_cast<double>(after.kv.gets - before.kv.gets);
  const auto kv_hits = static_cast<double>(after.kv.hits - before.kv.hits);
  const auto kv_misses = static_cast<double>(after.kv.misses - before.kv.misses);
  L.Num("kv.sets_per_req", kv_sets / req);
  L.Num("kv.gets_per_req", kv_gets / req);
  L.Num("kv.sets_per_host_s", per(kv_sets, r.wall_s));
  L.Num("kv.hit_ratio", per(kv_hits, kv_hits + kv_misses));
  L.Num("kv.items", static_cast<double>(max_kv_items));
  L.Num("kv.set_latency_us.p50", reg.Pct("kv.client.set_latency_us", 50));
  L.Num("kv.get_latency_us.p99", reg.Pct("kv.client.get_latency_us", 99));
  L.Num("kv.retries", delta("kv.client.retries"));
  L.Num("kv.replica_timeouts", delta("kv.client.replica_timeouts"));
  L.Num("kv.host_ns_per_set", KvNsPerOp(/*set=*/true, max_server_items));
  L.Num("kv.host_ns_per_get", KvNsPerOp(/*set=*/false, max_server_items));

  // workload endpoints and the load generator.
  L.Num("workload.client.host_ns_per_pkt",
        per(static_cast<double>(proxies.Ns(Kind::kClient)),
            static_cast<double>(proxies.Calls(Kind::kClient))));
  L.Num("workload.server.host_ns_per_pkt",
        per(static_cast<double>(proxies.Ns(Kind::kBackend)),
            static_cast<double>(proxies.Calls(Kind::kBackend))));
  L.Num("workload.loadgen.host_ns_per_req", static_cast<double>(gen_ns) / req);

  // obs.
  std::size_t flight_flows = 0;
  std::uint64_t overwritten = 0;
  for (int l = 0; l < std::max(1, tb.lane_count()); ++l) {
    flight_flows += tb.flight_lane(l).flow_count();
    overwritten += tb.flight_lane(l).overwritten_events();
  }
  L.Num("obs.flight.flows", static_cast<double>(flight_flows));
  L.Num("obs.flight.overwritten_events", static_cast<double>(overwritten));
  L.Num("obs.host_ns_per_record", RecordNs(flight_flows));

  // Share of load-phase CPU time per handler kind, and outside any handler.
  L.Num("split.instance_frac", per(inst_ns, cpu_ns));
  L.Num("split.fabric_frac", per(static_cast<double>(proxies.Ns(Kind::kFabric)), cpu_ns));
  L.Num("split.client_frac", per(static_cast<double>(proxies.Ns(Kind::kClient)), cpu_ns));
  L.Num("split.backend_frac", per(static_cast<double>(proxies.Ns(Kind::kBackend)), cpu_ns));
  L.Num("split.rest_frac", per(cpu_ns - proxy_ns, cpu_ns));
  return r;
}

// --- run --------------------------------------------------------------------------

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  int rounds = 1;
  bool trace = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        a.spec = v == s.name ? &s : a.spec;
      }
      if (a.spec == nullptr) {
        Die("unknown workload " + v);
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--rounds") {
      a.rounds = std::atoi(v.c_str());
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.spec == nullptr || !have_seed || a.rounds < 1) {
    Die("usage: yoda_perfbench --workload NAME --seed N [--rounds R] [--trace]");
  }
  return a;
}

int Run(const Args& args) {
  const Spec& spec = *args.spec;
  // Round k runs seed RoundSeed(seed, k) in a fresh testbed; round 0 is the
  // seed itself, so a one-round traced run repeats an untraced round 0.
  std::vector<Round> rounds;
  for (int k = 0; k < args.rounds; ++k) {
    rounds.push_back(RunRound(spec, RoundSeed(args.seed, k), args.trace));
  }

  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> latency;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> peak_rss_mb;
  std::vector<double> probe_ms;
  std::vector<JsonObject> round_json;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    ok += r.ok;
    failed += r.failed;
    retried += r.retried;
    mismatches += r.mismatches;
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    setup_s.push_back(r.setup_s);
    wall_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
    peak_rss_mb.push_back(r.peak_rss_mb);
    probe_ms.push_back(r.probe_ms);
    round_json.push_back(RoundJson(r));
  }

  JsonObject host;
  host.List("setup_s", setup_s);
  host.List("load_wall_s", wall_s);
  host.List("load_cpu_s", cpu_s);
  host.List("peak_rss_mb", peak_rss_mb);
  host.List("probe_ms", probe_ms);

  JsonObject build;
  build.Str("compiler", __VERSION__);
  build.Str("build_type", YB_BUILD_TYPE);
  build.Str("cxx_flags", YB_CXX_FLAGS);

  JsonObject out;
  out.Str("workload", spec.name);
  out.Num("seed", static_cast<double>(args.seed));
  out.Num("sim_ms", sim::ToMillis(spec.load));
  out.Num("trace", args.trace ? 1 : 0);
  out.Obj("sim", SimJson(attempted, ok, failed, retried, mismatches, latency));
  out.ObjList("rounds", round_json);
  out.Obj("host", host);
  if (args.trace) {
    out.Obj("layers", rounds.front().layers);
  }
  out.Obj("build", build);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(Parse(argc, argv)); }
