// Determinism suite for the sharded scenario runners (ctest label
// "determinism").
//
// Three properties are pinned:
//
//   1. Worker-count invariance, cell-sharded: a `threads N` scenario produces
//      a trace digest that is byte-identical for any worker count N in
//      {1, 2, 4, 8}, across many seeds. The cell partitioning is fixed
//      (kScenarioCells); N only picks how many OS threads execute the epoch
//      loop, so the interleaving the workload observes never changes.
//
//   2. Worker-count invariance, intra-cell: an `intra-threads N` scenario —
//      ONE testbed whose components are placed across the engine's shards,
//      with every inter-component hop crossing shards through the fabric /
//      shard-aware network — is likewise byte-identical for any N. This is
//      the stronger property: here the concurrent shards actually talk to
//      each other mid-run, so it pins that cross-shard delivery times are a
//      function of the virtual clocks only, never of the worker schedule.
//
//   3. Golden reproduction: the unsharded layout reproduces the checked-in
//      trace digests for the repo's scenario files. These goldens were
//      captured from the pre-parallelism build, so they also pin that the
//      multi-core engine and intra-cell placement work did not perturb
//      single-threaded traces. The single-worker digests of the sharded and
//      placed texts are pinned the same way.

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/workload/scenario.h"

namespace {

using workload::ParseScenario;
using workload::RunScenario;
using workload::Scenario;
using workload::ScenarioReport;

// FNV-1a over the report's flow traces. Metrics are digested separately where
// a test wants them: trace bytes are the behavior contract, while the metrics
// registry also carries engine-internal gauges (e.g. events executed) that
// may legitimately move when engine internals change.
std::uint64_t TraceDigest(const ScenarioReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : r.traces_jsonl) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::uint64_t FullDigest(const ScenarioReport& r) {
  std::uint64_t h = TraceDigest(r);
  for (unsigned char c : r.metrics_jsonl) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// A small but non-trivial sharded scenario: open-loop load, an instance and a
// backend failure with recovery, and a spare activation, all conducted over
// cross-shard mail.
std::string ShardedScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "threads " << threads << "\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms fail-instance 0\n"
      << "at 700ms fail-backend 1\n"
      << "at 900ms recover-instance 0\n"
      << "at 1000ms recover-backend 1\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

// The intra-cell counterpart: ONE placed testbed over kScenarioCells shards.
// Same fleet and timeline as the sharded text, plus `place` overrides so the
// override path (not just round-robin defaults) is under test. Every fetch
// here crosses shards several times: client shard -> fabric -> instance
// shard -> backend shard and back, with the instance's KV ops hopping to the
// kv shards.
std::string IntraScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "intra-threads " << threads << "\n"
      << "place controller 0\n"
      << "place fabric 0\n"
      << "place instance 0 5\n"
      << "place backend 2 5\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms fail-instance 0\n"
      << "at 700ms fail-backend 1\n"
      << "at 900ms recover-instance 0\n"
      << "at 1000ms recover-backend 1\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

// The intra-cell timeline again, with the VIP on the stateless fast path and
// a mid-run store-mode flip: cookie minting, journal flush timers and the
// make-before-break rollout must all stay worker-count-invariant.
std::string IntraStatelessScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "intra-threads " << threads << "\n"
      << "place controller 0\n"
      << "place fabric 0\n"
      << "place instance 0 5\n"
      << "place backend 2 5\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "store-mode stateless\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms fail-instance 0\n"
      << "at 700ms fail-backend 1\n"
      << "at 900ms recover-instance 0\n"
      << "at 1000ms store-mode 10.200.0.1 stateful\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

ScenarioReport RunText(const std::string& text) {
  std::string error;
  auto scenario = ParseScenario(text, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return RunScenario(*scenario, nullptr);
}

// Single-worker trace digests of the texts above, per seed. Captured from the
// build that still had one run function per layout, so they pin that the
// single scenario runner reproduces the cell-sharded and placed traces too.
const std::map<std::uint64_t, std::uint64_t> kShardedGolden = {
    {1, 0x29572eae5fa38fd5ull},
    {7, 0x655561e781d0d88eull},
    {42, 0xf186c12800702724ull},
    {1337, 0x56ab6e64d5cd2f31ull},
    {4242, 0xab33a9c74dc77d47ull},
    {90210, 0xed7b86c581dbd0d6ull},
    {271828, 0x0135c29d9a0c5fcbull},
    {3141592, 0x7507f6ada5f3f5beull},
};
const std::map<std::uint64_t, std::uint64_t> kIntraGolden = {
    {1, 0x979c4099fd604c93ull},
    {7, 0x71e75eac5e837bf2ull},
    {42, 0x5a13b92b12ed8d91ull},
    {1337, 0x25c7cce260f1cc36ull},
    {4242, 0x2c88b998b622e47eull},
    {90210, 0x77f44139b38ade3bull},
    {271828, 0x3f26c8a7ea02fc83ull},
    {3141592, 0x383615f5d39f9720ull},
};
const std::map<std::uint64_t, std::uint64_t> kIntraStatelessGolden = {
    {7, 0xad5ccd3d93951edcull},
    {1337, 0x6459d6d9b05b1a16ull},
    {90210, 0x126b63e5b21516c7ull},
};

TEST(Determinism, ShardedDigestInvariantAcrossWorkerCounts) {
  for (const auto& [seed, golden] : kShardedGolden) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(ShardedScenarioText(seed, threads));
      EXPECT_EQ(r.cells, workload::kScenarioCells);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        EXPECT_EQ(TraceDigest(r), golden) << "seed " << seed;
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellDigestInvariantAcrossWorkerCounts) {
  for (const auto& [seed, golden] : kIntraGolden) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(IntraScenarioText(seed, threads));
      EXPECT_EQ(r.cells, 1);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        EXPECT_EQ(TraceDigest(r), golden) << "seed " << seed;
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": intra-cell digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellStatelessDigestInvariantAcrossWorkerCounts) {
  for (const auto& [seed, golden] : kIntraStatelessGolden) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(IntraStatelessScenarioText(seed, threads));
      EXPECT_EQ(r.cells, 1);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        EXPECT_EQ(TraceDigest(r), golden) << "seed " << seed;
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": placed stateless digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellRepeatRunIsStable) {
  const std::string text = IntraScenarioText(99, 4);
  EXPECT_EQ(FullDigest(RunText(text)), FullDigest(RunText(text)));
}

TEST(Determinism, ShardedRepeatRunIsStable) {
  // Same seed, same worker count, fresh engine: byte-identical output (no
  // leakage of host state — wall clock, thread ids, allocator layout — into
  // the simulation).
  const std::string text = ShardedScenarioText(99, 4);
  EXPECT_EQ(FullDigest(RunText(text)), FullDigest(RunText(text)));
}

TEST(Determinism, LegacyScenariosReproduceGoldenTraceDigests) {
  // Captured from the pre-parallelism build (traces were verified
  // byte-identical before hardcoding). A mismatch means single-threaded
  // behavior changed: deliberate behavior changes must re-capture these.
  const std::map<std::string, std::uint64_t> kGolden = {
      {"failover.yoda", 0x15ee93c5dac597ddull},
      {"ha-failover.yoda", 0xa775421462113401ull},
      {"https.yoda", 0x9b5a6f8f145fdeceull},
  };
  for (const auto& [name, want] : kGolden) {
    const std::string path = std::string(YODA_SOURCE_DIR) + "/scenarios/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const ScenarioReport r = RunText(buf.str());
    EXPECT_EQ(TraceDigest(r), want) << name;
  }
}

}  // namespace
