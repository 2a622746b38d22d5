#include "src/workload/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "src/kv/hash_ring.h"
#include "src/sim/sharded_sim.h"
#include "src/workload/open_loop.h"

namespace workload {
namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    out.push_back(tok);
  }
  return out;
}

bool ParseInt(const std::string& s, long long* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

void Fail(std::string* error, int line_no, const std::string& msg) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + msg;
  }
}

// Joins tokens [from..) back into one string (rule specs contain spaces).
std::string JoinFrom(const std::vector<std::string>& toks, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (i > from) {
      out += " ";
    }
    out += toks[i];
  }
  return out;
}

// Count directives and the testbed field each one sets.
const std::map<std::string, int TestbedConfig::*> kCountFields = {
    {"instances", &TestbedConfig::yoda_instances}, {"spares", &TestbedConfig::spare_instances},
    {"backends", &TestbedConfig::backends},        {"kv-servers", &TestbedConfig::kv_servers},
    {"kv-replicas", &TestbedConfig::kv_replicas},  {"clients", &TestbedConfig::clients},
    {"muxes", &TestbedConfig::muxes},              {"controllers", &TestbedConfig::controllers},
};

std::optional<yoda::StoreMode> ParseStoreMode(const std::string& tok) {
  if (tok == "stateful") {
    return yoda::StoreMode::kStateful;
  }
  if (tok == "stateless") {
    return yoda::StoreMode::kStateless;
  }
  return std::nullopt;
}

// A `load` event: <vip> rate <r> duration <d> [tls].
struct LoadSpec {
  net::IpAddr vip = 0;
  double rate = 0;
  sim::Duration duration = 0;
  bool tls = false;
};

std::optional<LoadSpec> ParseLoad(const ScenarioEvent& ev) {
  const std::vector<std::string>& a = ev.args;
  if (a.size() < 5 || a.size() > 6 || a[1] != "rate" || a[3] != "duration" ||
      (a.size() == 6 && a[5] != "tls")) {
    return std::nullopt;
  }
  auto vip = ParseIp(a[0]);
  auto duration = ParseDuration(a[4]);
  char* rate_end = nullptr;
  const double rate = std::strtod(a[2].c_str(), &rate_end);
  if (!vip || !duration || rate_end != a[2].c_str() + a[2].size() || !(rate > 0) ||
      !std::isfinite(rate)) {
    return std::nullopt;
  }
  return LoadSpec{*vip, rate, *duration, a.size() == 6};
}

// Timeline actions that take one fleet index ("at 5s fail-instance 0"): the
// narration prefix, the testbed helper they call and the size of the fleet
// they index.
struct IndexedAction {
  const char* narration;
  void (Testbed::*apply)(int);
  int (*fleet)(const TestbedConfig&);
};
const std::map<std::string, IndexedAction> kIndexedActions = {
    {"fail-instance", {"FAIL instance ", &Testbed::FailInstance,
                       [](const TestbedConfig& c) { return c.yoda_instances; }}},
    {"recover-instance", {"recover instance ", &Testbed::RecoverInstance,
                          [](const TestbedConfig& c) { return c.yoda_instances; }}},
    {"fail-backend", {"FAIL backend ", &Testbed::FailBackend,
                      [](const TestbedConfig& c) { return c.backends; }}},
    {"recover-backend", {"recover backend ", &Testbed::RecoverBackend,
                         [](const TestbedConfig& c) { return c.backends; }}},
    {"fail-kv", {"FAIL kv server ", &Testbed::FailKvServer,
                 [](const TestbedConfig& c) { return c.kv_servers; }}},
    {"crash-controller", {"CRASH controller ", &Testbed::CrashController,
                          [](const TestbedConfig& c) { return std::max(1, c.controllers); }}},
    {"restart-controller", {"restart controller ", &Testbed::RestartController,
                            [](const TestbedConfig& c) { return std::max(1, c.controllers); }}},
};

// Why `ev` cannot run on the scenario's testbed, or "" when it can.
std::string CheckEvent(const Scenario& sc, const ScenarioEvent& ev) {
  const std::string& a = ev.action;
  auto defined_vip = [&sc](const std::string& tok) {
    auto vip = ParseIp(tok);
    return vip && std::any_of(sc.vips.begin(), sc.vips.end(),
                              [&](const Scenario::VipDef& def) { return def.vip == *vip; });
  };
  if (auto it = kIndexedActions.find(a); it != kIndexedActions.end()) {
    const int fleet = it->second.fleet(sc.testbed);
    long long idx = 0;
    if (ev.args.size() != 1 || !ParseInt(ev.args[0], &idx)) {
      return a + " needs one integer index";
    }
    if (idx < 0 || idx >= fleet) {
      return a + " index " + ev.args[0] + " is out of range (" + std::to_string(fleet) +
             " configured)";
    }
    return "";
  }
  if (a == "crash-leader" || a == "add-instance" || a == "assign") {
    if (!ev.args.empty()) {
      return a + " takes no arguments";
    }
    // Assignment rollouts aggregate per-instance counters with direct
    // cross-shard reads; unsupported placed (see TestbedConfig::engine).
    if (a == "assign" && sc.intra_threads > 0) {
      return "assign is not supported with intra-threads";
    }
    return "";
  }
  if (a == "load") {
    if (!ParseLoad(ev) || !defined_vip(ev.args[0])) {
      return "usage: load <defined vip> rate <r> duration <d> [tls]";
    }
    return "";
  }
  if (a == "update-rules") {
    if (ev.args.size() < 2 || !defined_vip(ev.args[0])) {
      return "usage: update-rules <defined vip> <rule>";
    }
    std::string rule_err;
    if (!rules::ParseRule(JoinFrom(ev.args, 1), &rule_err)) {
      return "bad rule: " + rule_err;
    }
    return "";
  }
  if (a == "store-mode") {
    if (ev.args.size() != 2 || !defined_vip(ev.args[0]) || !ParseStoreMode(ev.args[1])) {
      return "usage: store-mode <defined vip> <stateful|stateless>";
    }
    return "";
  }
  return "unknown action: " + a;
}

// Applies one non-load timeline action to a testbed, through its active
// controller for control-plane writes.
void ApplyControlEvent(Testbed& tb, const Scenario& scenario, const ScenarioEvent& ev,
                       const std::function<void(const std::string&)>& say) {
  yoda::Controller* ctl = tb.ActiveController();
  const std::string& a = ev.action;
  if (auto it = kIndexedActions.find(a); it != kIndexedActions.end()) {
    long long idx = 0;
    ParseInt(ev.args[0], &idx);
    say(it->second.narration + ev.args[0]);
    (tb.*it->second.apply)(static_cast<int>(idx));
  } else if (a == "crash-leader") {
    const int leader = tb.LeaderIndex();
    if (leader >= 0) {
      say("CRASH leader controller " + std::to_string(leader));
      tb.CrashController(leader);
    }
  } else if (a == "add-instance") {
    if (!tb.spares.empty()) {
      say("activating spare instance");
      ctl->AddInstance(tb.spares.back().get());
      // Hand ownership bookkeeping stays in the testbed; pools follow.
      std::vector<net::IpAddr> pool;
      for (auto* inst : ctl->ActiveInstances()) {
        pool.push_back(inst->ip());
      }
      for (const auto& def : scenario.vips) {
        tb.fabric.SetVipPoolStaggered(def.vip, pool, sim::Msec(50));
      }
    }
  } else if (a == "assign") {
    say("running many-to-many assignment round");
    ctl->RunAssignmentRoundNow();
  } else if (a == "update-rules") {
    say("update rules for " + ev.args[0]);
    ctl->UpdateVipRules(*ParseIp(ev.args[0]), {*rules::ParseRule(JoinFrom(ev.args, 1))});
  } else if (a == "store-mode") {
    say("store mode " + ev.args[1] + " for " + ev.args[0]);
    ctl->SetStoreMode(*ParseIp(ev.args[0]), *ParseStoreMode(ev.args[1]));
  }
}

// One open-loop request source: a whole testbed, drawing a client per
// request, or one client of a placed testbed, on the client's shard. While
// the engine runs, only that shard touches it.
struct LoadSource {
  LoadSource(Testbed* testbed, BrowserClient* only_client, std::uint64_t seed)
      : tb(testbed),
        client(only_client),
        simulator(client != nullptr ? tb->SimFor(tb->OwnerShardOf(client->ip()))
                                    : tb->simulator),
        rng(seed) {}
  LoadSource(const LoadSource&) = delete;
  LoadSource& operator=(const LoadSource&) = delete;

  Testbed* tb;
  BrowserClient* client;  // nullptr: every request draws one of tb->clients.
  sim::Simulator* simulator;
  sim::Rng rng;
  FetchTally tally;
};

}  // namespace

std::optional<sim::Duration> ParseDuration(const std::string& token) {
  std::size_t i = 0;
  while (i < token.size() && (std::isdigit(static_cast<unsigned char>(token[i])) != 0)) {
    ++i;
  }
  if (i == 0) {
    return std::nullopt;
  }
  long long value = 0;
  if (!ParseInt(token.substr(0, i), &value)) {
    return std::nullopt;
  }
  const std::string unit = token.substr(i);
  if (unit == "ms") {
    return sim::Msec(value);
  }
  if (unit == "s" || unit.empty()) {
    return sim::Sec(value);
  }
  if (unit == "m") {
    return sim::Minutes(value);
  }
  if (unit == "us") {
    return sim::Usec(value);
  }
  return std::nullopt;
}

std::optional<net::IpAddr> ParseIp(const std::string& token) {
  std::uint32_t ip = 0;
  std::size_t start = 0;
  for (int quad = 0; quad < 4; ++quad) {
    const std::size_t dot = token.find('.', start);
    const bool last = quad == 3;
    if (last != (dot == std::string::npos)) {
      return std::nullopt;
    }
    const std::string part = token.substr(start, last ? std::string::npos : dot - start);
    long long v = 0;
    if (!ParseInt(part, &v) || v < 0 || v > 255) {
      return std::nullopt;
    }
    ip = (ip << 8) | static_cast<std::uint32_t>(v);
    start = dot + 1;
  }
  return ip;
}

std::optional<Scenario> ParseScenario(const std::string& text, std::string* error) {
  Scenario sc;
  sc.testbed.yoda_instances = 2;
  sc.testbed.backends = 3;

  // `store-mode <mode>` with no VIP retroactively covers every VIP already
  // defined and seeds the default for VIPs defined after it.
  yoda::StoreMode default_store_mode = yoda::StoreMode::kStateful;

  auto find_vip = [&sc](net::IpAddr vip) -> Scenario::VipDef* {
    for (auto& def : sc.vips) {
      if (def.vip == vip) {
        return &def;
      }
    }
    return nullptr;
  };

  std::stringstream ss(text);
  std::string line;
  int line_no = 0;
  std::vector<int> event_lines;  // Source line of each sc.events entry.
  while (std::getline(ss, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    auto toks = Tokens(line);
    if (toks.empty()) {
      continue;
    }
    const std::string& cmd = toks[0];

    auto need = [&](std::size_t n) {
      if (toks.size() < n + 1) {
        Fail(error, line_no, cmd + " needs " + std::to_string(n) + " argument(s)");
        return false;
      }
      return true;
    };

    long long n = 0;
    if (cmd == "threads" || cmd == "intra-threads") {
      if (!need(1) || !ParseInt(toks[1], &n) || n < 1) {
        Fail(error, line_no, cmd + " needs a count >= 1");
        return std::nullopt;
      }
      (cmd == "threads" ? sc.threads : sc.intra_threads) = static_cast<int>(n);
    } else if (cmd == "place") {
      // place <instance|backend|kv|client|proxy> <idx> <shard>
      // place <controller|fabric> <shard>
      if (!need(2)) {
        return std::nullopt;
      }
      const std::string& kind = toks[1];
      long long a = 0;
      long long b = 0;
      if (kind == "controller" || kind == "fabric") {
        if (!ParseInt(toks[2], &a) || a < 0) {
          Fail(error, line_no, "place " + kind + " needs a shard >= 0");
          return std::nullopt;
        }
        (kind == "controller" ? sc.placement.controller_shard
                              : sc.placement.fabric_shard) = static_cast<int>(a);
      } else {
        std::vector<int>* overrides = kind == "instance" ? &sc.placement.instance_shards
                                      : kind == "backend" ? &sc.placement.backend_shards
                                      : kind == "kv"      ? &sc.placement.kv_shards
                                      : kind == "client"  ? &sc.placement.client_shards
                                      : kind == "proxy"   ? &sc.placement.proxy_shards
                                                          : nullptr;
        if (overrides == nullptr) {
          Fail(error, line_no,
               "place kind must be instance|backend|kv|client|proxy|controller|fabric");
          return std::nullopt;
        }
        if (!need(3) || !ParseInt(toks[2], &a) || !ParseInt(toks[3], &b) || a < 0 || b < 0) {
          Fail(error, line_no, "usage: place " + kind + " <idx> <shard>");
          return std::nullopt;
        }
        if (static_cast<std::size_t>(a) >= overrides->size()) {
          overrides->resize(static_cast<std::size_t>(a) + 1, -1);
        }
        (*overrides)[static_cast<std::size_t>(a)] = static_cast<int>(b);
      }
    } else if (cmd == "seed" || kCountFields.count(cmd) > 0) {
      if (!need(1) || !ParseInt(toks[1], &n) || n < 0) {
        Fail(error, line_no, "bad count for " + cmd);
        return std::nullopt;
      }
      if (cmd == "kv-servers" && n > static_cast<long long>(kv::HashRing::kMaxServers)) {
        Fail(error, line_no, "kv-servers above " + std::to_string(kv::HashRing::kMaxServers));
        return std::nullopt;
      }
      if (cmd == "seed") {
        sc.testbed.seed = static_cast<std::uint64_t>(n);
      } else {
        sc.testbed.*kCountFields.at(cmd) = static_cast<int>(n);
      }
      // >1 controller replicas switches the control plane to HA mode
      // (store-backed leader lease, durable journal).
      sc.testbed.controller_ha = sc.testbed.controllers > 1;
    } else if (cmd == "vip") {
      if (!need(1)) {
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      if (!vip) {
        Fail(error, line_no, "bad vip address: " + toks[1]);
        return std::nullopt;
      }
      sc.vips.push_back(Scenario::VipDef{*vip, {}, std::nullopt, 0, default_store_mode});
    } else if (cmd == "rule") {
      if (!need(2)) {
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
      if (def == nullptr) {
        Fail(error, line_no, "rule for undefined vip: " + toks[1]);
        return std::nullopt;
      }
      std::string rule_err;
      auto rule = rules::ParseRule(JoinFrom(toks, 2), &rule_err);
      if (!rule) {
        Fail(error, line_no, "bad rule: " + rule_err);
        return std::nullopt;
      }
      def->vip_rules.push_back(*rule);
    } else if (cmd == "tls") {
      // tls <vip> cert <blob> key <n>
      if (!need(5) || toks[2] != "cert" || toks[4] != "key") {
        Fail(error, line_no, "usage: tls <vip> cert <blob> key <n>");
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
      if (def == nullptr || !ParseInt(toks[5], &n)) {
        Fail(error, line_no, "bad tls directive");
        return std::nullopt;
      }
      def->tls_cert = toks[3];
      def->tls_key = static_cast<std::uint64_t>(n);
    } else if (cmd == "store-mode") {
      // store-mode <stateful|stateless>          (every VIP, defined or future)
      // store-mode <vip> <stateful|stateless>    (one VIP)
      if (!need(1)) {
        return std::nullopt;
      }
      if (auto mode = ParseStoreMode(toks[1])) {
        default_store_mode = *mode;
        for (auto& def : sc.vips) {
          def.store_mode = *mode;
        }
      } else {
        auto vip = ParseIp(toks[1]);
        Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
        std::optional<yoda::StoreMode> vip_mode =
            toks.size() > 2 ? ParseStoreMode(toks[2]) : std::nullopt;
        if (def == nullptr || !vip_mode) {
          Fail(error, line_no, "usage: store-mode [<vip>] <stateful|stateless>");
          return std::nullopt;
        }
        def->store_mode = *vip_mode;
      }
    } else if (cmd == "at") {
      if (!need(2)) {
        return std::nullopt;
      }
      auto when = ParseDuration(toks[1]);
      if (!when) {
        Fail(error, line_no, "bad time: " + toks[1]);
        return std::nullopt;
      }
      ScenarioEvent ev;
      ev.at = *when;
      ev.action = toks[2];
      ev.args.assign(toks.begin() + 3, toks.end());
      ev.raw = JoinFrom(toks, 3);
      sc.events.push_back(std::move(ev));
      event_lines.push_back(line_no);
    } else if (cmd == "run-until") {
      if (!need(1)) {
        return std::nullopt;
      }
      auto until = ParseDuration(toks[1]);
      if (!until) {
        Fail(error, line_no, "bad time: " + toks[1]);
        return std::nullopt;
      }
      sc.run_until = *until;
    } else {
      Fail(error, line_no, "unknown directive: " + cmd);
      return std::nullopt;
    }
  }
  if (sc.vips.empty()) {
    Fail(error, 0, "scenario defines no vip");
    return std::nullopt;
  }
  if (sc.threads > 0 && sc.intra_threads > 0) {
    Fail(error, 0, "threads and intra-threads are mutually exclusive");
    return std::nullopt;
  }
  // Timeline actions are checked against the final scenario: a count or vip
  // directive may come after the `at` line that refers to it.
  for (std::size_t i = 0; i < sc.events.size(); ++i) {
    const std::string why = CheckEvent(sc, sc.events[i]);
    if (!why.empty()) {
      Fail(error, event_lines[i], why);
      return std::nullopt;
    }
  }
  return sc;
}

// One run path for every layout. The mode only picks the layout:
//
//   default          one testbed on its own simulator; the timeline and the
//                    load run on it, narrated to `log`.
//   threads N        kScenarioCells independent testbeds ("cells"), one per
//                    shard of a sim::ShardedSim, each with a derived seed and
//                    its own load source. The timeline is conducted from
//                    shard 0, which fans each control event out to every cell
//                    over cross-shard mail; cells apply it at the first epoch
//                    barrier after the scripted time.
//   intra-threads N  one testbed placed over the shards of a sim::ShardedSim;
//                    one load source per client, on the client's shard, and
//                    the timeline conducted from the controller's shard.
//
// Engine runs are byte-identical for any worker count N: every instant and
// merge order depends on the scenario only.
ScenarioReport RunScenario(const Scenario& scenario, std::ostream* log,
                           const std::function<void(Testbed&)>& after_run) {
  const bool cells = scenario.threads > 0;
  const bool placed = scenario.intra_threads > 0;

  std::unique_ptr<sim::ShardedSim> engine;
  if (cells || placed) {
    sim::ShardedSim::Config ecfg;
    ecfg.shards = kScenarioCells;
    ecfg.workers = cells ? scenario.threads : scenario.intra_threads;
    engine = std::make_unique<sim::ShardedSim>(ecfg);
    if (log != nullptr && cells) {
      *log << "  [cell-sharded] " << kScenarioCells << " cells on " << engine->workers()
           << " worker thread(s), window " << engine->window() << " ticks\n";
    } else if (log != nullptr) {
      *log << "  [intra-cell] 1 testbed over " << kScenarioCells << " shards on "
           << engine->workers() << " worker thread(s), window " << engine->window()
           << " ticks\n";
    }
  }

  TestbedConfig base = scenario.testbed;
  for (const auto& def : scenario.vips) {
    if (def.tls_cert) {
      base.server_template.tls_service_key = def.tls_key;
    }
  }
  std::vector<std::unique_ptr<Testbed>> testbeds;
  for (int c = 0; c < (cells ? kScenarioCells : 1); ++c) {
    TestbedConfig cfg = base;
    if (cells) {
      cfg.external_sim = &engine->shard(c);
      // Distinct trial per cell; a function of the scenario seed and the
      // cell index only, never of the worker count.
      cfg.seed = base.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(c);
    }
    if (placed) {
      cfg.engine = engine.get();
      cfg.placement = scenario.placement;
      cfg.placement.shards = kScenarioCells;
    }
    testbeds.push_back(std::make_unique<Testbed>(cfg));
  }

  // Setup runs on the coordinator while any engine is idle, so touching the
  // shard simulators and cross-shard components directly is race-free.
  for (auto& tbp : testbeds) {
    Testbed& tb = *tbp;
    if (tb.cfg.controller_ha) {
      tb.StartAllControllers();
      tb.AwaitLeader();
    }
    for (const auto& def : scenario.vips) {
      tb.ActiveController()->DefineVip(def.vip, 80, def.vip_rules);
      if (def.store_mode != yoda::StoreMode::kStateful) {
        tb.ActiveController()->SetStoreMode(def.vip, def.store_mode);
      }
      if (def.tls_cert) {
        for (auto& inst : tb.instances) {
          inst->InstallVipTls(def.vip, *def.tls_cert, def.tls_key);
        }
        for (auto& inst : tb.spares) {
          inst->InstallVipTls(def.vip, *def.tls_cert, def.tls_key);
        }
      }
    }
    if (!tb.cfg.controller_ha) {
      tb.controller->Start();
    }
  }
  if (cells) {
    // HA leader election advances cell clocks unevenly (AwaitLeader runs each
    // cell's simulator on its own); align them so every shard enters the
    // epoch loop at one common instant.
    sim::Time t0 = 0;
    for (auto& tbp : testbeds) {
      t0 = std::max(t0, tbp->simulator->now());
    }
    if (t0 > 0) {
      for (auto& tbp : testbeds) {
        tbp->simulator->RunUntil(t0);
      }
    }
  }

  Testbed& home = *testbeds.front();
  // Engine runs execute events on worker threads, which must not narrate
  // into the shared log stream; their report carries the results.
  std::ostream* narrate = engine == nullptr ? log : nullptr;
  const std::function<void(const std::string&)> say = [narrate, &home](const std::string& msg) {
    if (narrate != nullptr) {
      *narrate << "  [" << sim::FormatDouble(sim::ToMillis(home.simulator->now()), 0) << " ms] "
               << msg << "\n";
    }
  };

  // Load sources: one per testbed, or one per client when placed (each with
  // its own RNG, a function of the seed and the client index only).
  std::deque<LoadSource> sources;  // Stable addresses: loads point at them.
  for (auto& tbp : testbeds) {
    if (!tbp->placed()) {
      sources.emplace_back(tbp.get(), nullptr, tbp->cfg.seed ^ 0x5ce9a210ULL);
      continue;
    }
    for (std::size_t i = 0; i < tbp->clients.size(); ++i) {
      sources.emplace_back(tbp.get(), tbp->clients[i].get(),
                           tbp->cfg.seed ^ (0xC11E47ULL + 0x9e3779b97f4a7c15ULL * i));
    }
  }
  std::vector<std::unique_ptr<PoissonLoad>> loads;

  // Control events are conducted from the controller's shard (shard 0 for
  // cells): the controller, the fault plane and this timeline are
  // co-located, so every mutation is shard-local or routed by the testbed
  // and fabric hooks. Events scripted before the instant setup ended (HA
  // leader election runs the clock) fire at that instant.
  sim::Simulator& conductor = *home.SimFor(home.cfg.placement.controller_shard);
  for (const ScenarioEvent& ev : scenario.events) {
    if (ev.action != "load") {
      conductor.At(std::max(ev.at, conductor.now()), [&, ev]() {
        if (!cells) {
          ApplyControlEvent(home, scenario, ev, say);
          return;
        }
        for (int c = 0; c < kScenarioCells; ++c) {
          Testbed* tbp = testbeds[static_cast<std::size_t>(c)].get();
          engine->CallOn(c, [tbp, &scenario, &say, ev]() {
            ApplyControlEvent(*tbp, scenario, ev, say);
          });
        }
      });
      continue;
    }
    // The scripted rate is the aggregate of each testbed's sources.
    const LoadSpec spec = *ParseLoad(ev);
    const std::string narration =
        "load " + ev.args[0] + " @" + ev.args[2] + "/s for " + ev.args[4];
    for (LoadSource& src : sources) {
      const double rate =
          src.client != nullptr ? spec.rate / static_cast<double>(src.tb->clients.size())
                                : spec.rate;
      LoadSource* sp = &src;
      loads.push_back(std::make_unique<PoissonLoad>(
          src.simulator, &src.rng, rate, [sp, &say, spec, narration, first = true]() mutable {
            if (first) {
              say(narration);
              first = false;
            }
            FetchOptions opts;
            opts.use_tls = spec.tls;
            FetchRandomObject(*sp->tb, sp->rng, sp->client, spec.vip, opts, &sp->tally);
          }));
      const sim::Time start = std::max(ev.at, src.simulator->now());
      loads.back()->Start(start, start + spec.duration);
    }
  }

  if (engine != nullptr && scenario.run_until > 0) {
    engine->RunUntil(scenario.run_until);
  } else if (engine != nullptr) {
    engine->Run();
  } else if (scenario.run_until > 0) {
    home.simulator->RunUntil(scenario.run_until);
  } else {
    home.simulator->Run();
  }

  // Merge in fixed order (sources, then testbeds, then observability
  // sections), so the report never depends on the worker count.
  ScenarioReport report;
  report.cells = static_cast<int>(testbeds.size());
  for (const LoadSource& src : sources) {
    report.requests_ok += src.tally.ok;
    report.requests_failed += src.tally.failed;
    report.latency_ms.MergeFrom(src.tally.latency_ms);
  }
  // One observability section per testbed (cells) or shard lane (placed),
  // each under a {"cell":i} / {"shard":i} marker; unmarked when unsharded.
  auto add_section = [&report](const std::string& kind, std::size_t i, obs::Registry& metrics,
                               obs::FlightRecorder& flight) {
    std::string marker;
    if (!kind.empty()) {
      marker = "{\"" + kind + "\":" + std::to_string(i) + "}\n";
      report.metrics_table += "--- " + kind + " " + std::to_string(i) + " ---\n";
    }
    report.metrics_table += metrics.TextTable();
    report.metrics_jsonl += marker + metrics.JsonLines();
    std::ostringstream traces;
    flight.ExportJsonLines(traces);
    report.traces_jsonl += marker + traces.str();
  };
  for (std::size_t c = 0; c < testbeds.size(); ++c) {
    Testbed& tb = *testbeds[c];
    for (auto& inst : tb.instances) {
      report.takeovers +=
          inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
      report.reswitches += inst->stats().reswitches;
    }
    for (auto& inst : tb.spares) {
      report.takeovers +=
          inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
    }
    report.failures_detected += tb.controller->detected_failures();
    report.controller_events.insert(report.controller_events.end(),
                                    tb.controller->events().begin(),
                                    tb.controller->events().end());
    if (cells) {
      add_section("cell", c, tb.metrics, tb.flight);
    } else if (placed) {
      for (int s = 0; s < tb.lane_count(); ++s) {
        add_section("shard", static_cast<std::size_t>(s), tb.metrics_lane(s), tb.flight_lane(s));
      }
    } else {
      add_section("", 0, tb.metrics, tb.flight);
    }
  }
  if (after_run) {
    for (auto& tbp : testbeds) {
      after_run(*tbp);
    }
  }
  return report;
}

}  // namespace workload
