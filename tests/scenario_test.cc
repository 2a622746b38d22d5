// Scenario DSL tests: parsing, error reporting, and end-to-end runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/workload/scenario.h"

namespace workload {
namespace {

TEST(ParseDuration, Units) {
  EXPECT_EQ(ParseDuration("250ms"), sim::Msec(250));
  EXPECT_EQ(ParseDuration("5s"), sim::Sec(5));
  EXPECT_EQ(ParseDuration("2m"), sim::Minutes(2));
  EXPECT_EQ(ParseDuration("7us"), sim::Usec(7));
  EXPECT_EQ(ParseDuration("9"), sim::Sec(9));
  EXPECT_FALSE(ParseDuration("ms").has_value());
  EXPECT_FALSE(ParseDuration("5h").has_value());
  EXPECT_FALSE(ParseDuration("abc").has_value());
}

TEST(ParseIp, DottedQuads) {
  EXPECT_EQ(ParseIp("10.200.0.1"), net::MakeIp(10, 200, 0, 1));
  EXPECT_EQ(ParseIp("0.0.0.0"), 0u);
  EXPECT_EQ(ParseIp("255.255.255.255"), 0xffffffffu);
  EXPECT_FALSE(ParseIp("10.0.0").has_value());
  EXPECT_FALSE(ParseIp("10.0.0.0.1").has_value());
  EXPECT_FALSE(ParseIp("10.0.0.256").has_value());
  EXPECT_FALSE(ParseIp("ten.0.0.1").has_value());
}

TEST(ParseScenario, MinimalScenario) {
  std::string error;
  auto sc = ParseScenario(R"(
    # comment
    seed 9
    instances 3
    backends 4
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    at 0ms load 10.200.0.1 rate 50 duration 2s
    at 1s fail-instance 0
  )", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->testbed.seed, 9u);
  EXPECT_EQ(sc->testbed.yoda_instances, 3);
  EXPECT_EQ(sc->testbed.backends, 4);
  ASSERT_EQ(sc->vips.size(), 1u);
  EXPECT_EQ(sc->vips[0].vip_rules.size(), 1u);
  ASSERT_EQ(sc->events.size(), 2u);
  EXPECT_EQ(sc->events[1].action, "fail-instance");
  EXPECT_EQ(sc->events[1].at, sim::Sec(1));
}

TEST(ParseScenario, TlsDirective) {
  std::string error;
  auto sc = ParseScenario(R"(
    vip 10.200.0.1
    rule 10.200.0.1 name=r split=10.3.0.1
    tls 10.200.0.1 cert MY-CERT key 99
  )", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  ASSERT_TRUE(sc->vips[0].tls_cert.has_value());
  EXPECT_EQ(*sc->vips[0].tls_cert, "MY-CERT");
  EXPECT_EQ(sc->vips[0].tls_key, 99u);
}

TEST(ParseScenario, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(ParseScenario("vip 10.0.0.1\nbogus-directive 1\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseScenario("rule 10.0.0.1 name=r split=10.3.0.1\n", &error).has_value());
  EXPECT_NE(error.find("undefined vip"), std::string::npos);
  EXPECT_FALSE(ParseScenario("vip not-an-ip\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("vip 10.0.0.1\nrule 10.0.0.1 nonsense\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("instances abc\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("# only comments\n", &error).has_value());  // No vip.

  // Timeline events are checked at parse time, against the final fleet, and
  // a bad one names the `at` line it came from.
  const std::string head = "instances 2\nbackends 3\nkv-servers 3\nvip 10.200.0.1\n";  // Lines 1-4.
  const char* bad[] = {
      "at 100ms fail-instance 7",  // Index past the fleet (indexing it would crash).
      "at 1s fail-instance zero",  // Non-integer index.
      "at 1s fail-instance -1",
      "at 1s fail-instance",       // Missing index.
      "at 1s fail-instance 0 1",
      "at 1s fial-instance 0",     // Unknown action.
      "at 1s recover-instance 2",
      "at 1s fail-backend 3",
      "at 1s recover-backend x",
      "at 1s fail-kv 3",
      "at 1s crash-controller 1",  // One controller without a `controllers` directive.
      "at 1s restart-controller 1",
      "at 1s crash-leader 0",
      "at 1s add-instance now",
      "at 1s load 10.200.0.9 rate 10 duration 1s",  // Undefined vip.
      "at 1s load 10.200.0.1 rate 10",
      "at 1s load 10.200.0.1 rate ten duration 1s",
      "at 1s load 10.200.0.1 rate 0 duration 1s",
      "at 1s load 10.200.0.1 rate 10 duration forever",
      "at 1s load 10.200.0.1 speed 10 duration 1s",
      "at 1s load 10.200.0.1 rate 10 duration 1s ssl",
      "at 1s store-mode 10.200.0.1 turbo",
      "at 1s store-mode 10.200.0.9 stateless",
      "at 1s store-mode 10.200.0.1",
      "at 1s update-rules 10.200.0.1 nonsense",
      "at 1s update-rules 10.200.0.9 name=r split=10.3.0.1",
      "at 1s update-rules 10.200.0.1",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseScenario(head + line + "\n", &error).has_value()) << line;
    EXPECT_NE(error.find("line 5"), std::string::npos) << line << " -> " << error;
  }
  // Counts are the final ones: a directive after the event still sizes it.
  EXPECT_TRUE(ParseScenario(head + "at 1s fail-instance 3\ninstances 4\n", &error).has_value())
      << error;
  EXPECT_FALSE(ParseScenario(head + "instances 4\nat 1s fail-instance 3\ninstances 3\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 6"), std::string::npos) << error;
  EXPECT_TRUE(ParseScenario(head + "controllers 3\nat 1s crash-controller 2\n"
                                   "at 2s restart-controller 2\nat 2s crash-leader\n",
                            &error)
                  .has_value())
      << error;
  EXPECT_TRUE(ParseScenario(head + "at 0ms load 10.200.0.1 rate 12.5 duration 250ms tls\n",
                            &error)
                  .has_value())
      << error;
}

// Every scenario shipped in scenarios/ parses under the strict parser.
TEST(ParseScenario, CheckedInScenariosParse) {
  int parsed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(YODA_SOURCE_DIR) + "/scenarios")) {
    if (entry.path().extension() != ".yoda") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    EXPECT_TRUE(ParseScenario(text.str(), &error).has_value())
        << entry.path() << ": " << error;
    ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

TEST(RunScenario, PlainLoadCompletes) {
  auto sc = ParseScenario(R"(
    seed 5
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3
    at 0ms load 10.200.0.1 rate 40 duration 2s
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_GT(report.requests_ok, 50u);
  EXPECT_EQ(report.requests_failed, 0u);
  EXPECT_GT(report.latency_ms.Percentile(50), 50.0);
}

TEST(RunScenario, FailureEventIsTransparent) {
  auto sc = ParseScenario(R"(
    seed 6
    instances 4
    backends 4
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    at 0ms load 10.200.0.1 rate 60 duration 4s
    at 1s fail-instance 0
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_EQ(report.requests_failed, 0u);
  EXPECT_EQ(report.failures_detected, 1);
  EXPECT_FALSE(report.controller_events.empty());
}

TEST(RunScenario, TlsLoadWorks) {
  auto sc = ParseScenario(R"(
    seed 8
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    tls 10.200.0.1 cert TESTCERT key 77
    at 0ms load 10.200.0.1 rate 30 duration 2s tls
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_GT(report.requests_ok, 30u);
  EXPECT_EQ(report.requests_failed, 0u);
}

TEST(RunScenario, HaLeaderElectionDoesNotPushEventsIntoThePast) {
  // Electing the HA leader runs the clock past 0 before the timeline is
  // scheduled; an `at 0ms` event must land at the current instant instead
  // (a Debug build asserts on any event scheduled in the past).
  auto sc = ParseScenario(R"(
    seed 12
    instances 2
    backends 3
    controllers 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3
    at 0ms load 10.200.0.1 rate 40 duration 1s
    at 0ms fail-backend 2
    run-until 3s
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_GT(report.requests_ok, 20u);
  EXPECT_EQ(report.requests_failed, 0u);
}

TEST(RunScenario, UpdateRulesMidRun) {
  auto sc = ParseScenario(R"(
    seed 10
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1
    at 0ms load 10.200.0.1 rate 40 duration 3s
    at 1s update-rules 10.200.0.1 name=r2 priority=2 url=* split=10.3.0.2
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_EQ(report.requests_failed, 0u);
  bool updated = false;
  for (const auto& ev : report.controller_events) {
    updated = updated || ev.what.find("update rules") != std::string::npos;
  }
  EXPECT_TRUE(updated);
}

}  // namespace
}  // namespace workload
