// Scenario runner: a small text DSL that assembles a testbed, drives load,
// injects failures and policy changes on a timeline, and reports results.
// This is what `tools/yodasim` executes, so experiments can be scripted
// without writing C++.
//
// One runner executes every scenario; `threads` / `intra-threads` only pick
// the layout (which testbeds exist and on which simulators, where the
// timeline is conducted, and whether load is generated per testbed or per
// client). ParseScenario checks every `at` line: unknown actions, bad or
// out-of-range indices (against the final instances / backends / kv-servers
// / controllers counts), undefined VIPs and malformed load, rule and
// store-mode arguments are parse errors carrying the line number.
//
//   # comments and blank lines are ignored
//   seed 42
//   threads 4                            # 8 independent cells on 4 workers
//   intra-threads 4                      # OR: one placed testbed, 4 workers
//   place instance 0 5                   # pin instance 0 to shard 5
//   place controller 0                   # pin the control plane to shard 0
//   instances 4
//   spares 2
//   backends 6
//   kv-servers 3
//   kv-replicas 2
//   clients 4
//   vip 10.200.0.1                       # define a VIP (port 80)
//   rule 10.200.0.1 name=r1 priority=1 url=* split=10.3.0.1,10.3.0.2
//   tls 10.200.0.1 cert MY-CERT key 4242 # enable SSL termination
//   store-mode stateless                 # all VIPs (or: store-mode <vip> <mode>)
//   at 0ms load 10.200.0.1 rate 200 duration 10s [tls]
//   at 4s store-mode 10.200.0.1 stateful # flip a VIP's store contract live
//   at 5s fail-instance 0
//   at 6s recover-instance 0
//   at 7s fail-backend 1
//   at 8s recover-backend 1
//   at 9s fail-kv 0
//   at 9s update-rules 10.200.0.1 name=r2 priority=2 url=* split=10.3.0.3
//   at 10s add-instance                  # activate one spare
//   at 11s assign                        # many-to-many assignment round
//   at 12s crash-controller 1            # also: crash-leader,
//   at 13s restart-controller 1          #       controllers N (HA replicas)
//   run-until 20s                        # default: run to completion
//
// Backend i is 10.3.0.(i+1); instance i is 10.1.0.(i+1) (the Testbed plan).

#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/workload/testbed.h"

namespace workload {

struct ScenarioEvent {
  sim::Time at = 0;
  std::string action;  // First token after the time.
  std::vector<std::string> args;
  std::string raw;  // Original tail for rule specs.
};

// Cell count of a `threads N` run. Fixed — the partitioning (and hence every
// trace) depends only on the scenario, never on how many worker threads
// execute it; N picks the worker count, which ranges over [1, kScenarioCells].
inline constexpr int kScenarioCells = 8;

struct Scenario {
  TestbedConfig testbed;
  // `threads N` directive: run the scenario cell-sharded on a sim::ShardedSim
  // with N worker threads — the experiment is replicated into kScenarioCells
  // independent cells (one full testbed per logical shard, distinct seeds),
  // with timeline events conducted from shard 0 over cross-shard mail. 0 (no
  // directive) runs one testbed on its own single Simulator.
  int threads = 0;
  // `intra-threads N` directive: run ONE testbed spread over kScenarioCells
  // shards of a sim::ShardedSim (intra-cell sharding: each instance, backend,
  // KV server and client on its own shard per `placement`), executed by N
  // worker threads. Components talk exclusively through the shard-aware
  // network / cross-shard calls, so the trace is byte-identical for any N.
  // Mutually exclusive with `threads`. `place <kind> <idx> <shard>` (kinds:
  // instance backend kv client proxy) and `place <controller|fabric> <shard>`
  // override the default round-robin placement.
  int intra_threads = 0;
  sim::IntraPlacement placement;
  struct VipDef {
    net::IpAddr vip = 0;
    std::vector<rules::Rule> vip_rules;
    std::optional<std::string> tls_cert;
    std::uint64_t tls_key = 0;
    // `store-mode` directive: the VIP's per-flow store contract, installed
    // through the controller right after DefineVip. Stateless demotes the
    // three ACK-point store writes to the write-behind takeover journal.
    yoda::StoreMode store_mode = yoda::StoreMode::kStateful;
  };
  std::vector<VipDef> vips;
  std::vector<ScenarioEvent> events;
  sim::Duration run_until = 0;  // 0 = run to completion.
};

// Parses the DSL. Returns nullopt and fills `error` (with a line number) on
// malformed input.
std::optional<Scenario> ParseScenario(const std::string& text, std::string* error = nullptr);

// Parses "250ms" / "5s" / "2m" into a Duration; nullopt on bad syntax.
std::optional<sim::Duration> ParseDuration(const std::string& token);

// Parses dotted-quad "10.0.0.1"; nullopt on bad syntax.
std::optional<net::IpAddr> ParseIp(const std::string& token);

struct ScenarioReport {
  // kScenarioCells for `threads N` runs, whose jsonl sections below are
  // per-cell exports concatenated in shard order (each preceded by a
  // {"cell":i} marker line); 1 otherwise (`intra-threads N` runs concatenate
  // per-shard lanes under {"shard":i} markers).
  int cells = 1;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t reswitches = 0;
  int failures_detected = 0;
  sim::Histogram latency_ms;
  std::vector<yoda::ControllerEvent> controller_events;
  // Uniform observability snapshot, taken after the run: the registry as an
  // aligned text table and as JSON lines, plus the flight recorder's flow
  // traces as JSON lines (see src/obs/).
  std::string metrics_table;
  std::string metrics_jsonl;
  std::string traces_jsonl;
};

// Builds the testbed(s) for the scenario's layout, schedules the events,
// runs the simulation and returns the aggregate report. Expects a scenario
// ParseScenario accepted. Timeline events scripted before the instant setup
// ends (HA leader election runs the clock) fire at that instant. `log`
// (optional) receives progress lines; only runs without an engine narrate
// per event. `after_run` (optional) is invoked on each testbed after the
// simulation finishes but before teardown — tools use it to inspect the
// flight recorder and metrics registry directly.
ScenarioReport RunScenario(const Scenario& scenario, std::ostream* log = nullptr,
                           const std::function<void(Testbed&)>& after_run = nullptr);

}  // namespace workload

#endif  // SRC_WORKLOAD_SCENARIO_H_
