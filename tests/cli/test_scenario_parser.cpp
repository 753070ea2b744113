// Unit tests for the scenario-file parser and runner.

#include "cli/scenario_parser.h"

#include <gtest/gtest.h>

namespace rtcac {
namespace {

constexpr const char* kGoodScenario = R"(
# a two-switch backbone
terminal tA
terminal tB
switch   sw0
switch   sw1
terminal tZ

link tA sw0
link tB sw0
link sw0 sw1 2
link sw1 tZ

priorities 2
queue 32
cdv hard
guarantee computed

connect c1 route=tA-sw0-sw1-tZ cbr=0.2 deadline=50
connect c2 route=tB-sw0-sw1-tZ vbr=0.5,0.1,8 deadline=60 prio=1
)";

TEST(ScenarioParser, ParsesTopologyAndConfig) {
  const ScenarioFile scenario = parse_scenario(std::string(kGoodScenario));
  EXPECT_EQ(scenario.topology.node_count(), 5u);
  EXPECT_EQ(scenario.topology.link_count(), 4u);
  EXPECT_EQ(scenario.params.priorities, 2u);
  EXPECT_DOUBLE_EQ(scenario.params.advertised_bound, 32);
  EXPECT_EQ(scenario.params.cdv_policy, CdvPolicy::kHard);
  EXPECT_EQ(scenario.params.guarantee, GuaranteeMode::kComputed);
  EXPECT_EQ(scenario.topology.link(2).propagation, 2);
}

TEST(ScenarioParser, ParsesConnections) {
  const ScenarioFile scenario = parse_scenario(std::string(kGoodScenario));
  ASSERT_EQ(scenario.connections.size(), 2u);
  const auto& c1 = scenario.connections[0];
  EXPECT_EQ(c1.name, "c1");
  EXPECT_TRUE(c1.request.traffic.is_cbr());
  EXPECT_DOUBLE_EQ(c1.request.traffic.pcr, 0.2);
  EXPECT_DOUBLE_EQ(c1.request.deadline, 50);
  EXPECT_EQ(c1.request.priority, 0u);
  EXPECT_EQ(c1.route.size(), 3u);
  const auto& c2 = scenario.connections[1];
  EXPECT_FALSE(c2.request.traffic.is_cbr());
  EXPECT_EQ(c2.request.traffic.mbs, 8u);
  EXPECT_EQ(c2.request.priority, 1u);
}

// inf is the QosRequest default: no deadline.  Only NaN and negative
// deadlines are refused (HostileNumbers below).
TEST(ScenarioParser, InfiniteDeadlineMeansNone) {
  const ScenarioFile scenario = parse_scenario(std::string(
      "switch a\nswitch b\nlink a b\n"
      "connect c route=a-b cbr=0.5 deadline=inf\n"
      "connect d route=a-b cbr=0.1 deadline=0\n"));
  ASSERT_EQ(scenario.connections.size(), 2u);
  EXPECT_EQ(scenario.connections[0].request.deadline, QosRequest{}.deadline);
  EXPECT_EQ(scenario.connections[1].request.deadline, 0.0);
}

TEST(ScenarioParser, RunScenarioAdmits) {
  const ScenarioFile scenario = parse_scenario(std::string(kGoodScenario));
  std::unique_ptr<ConnectionManager> manager;
  const auto outcomes = run_scenario(scenario, &manager);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].accepted) << outcomes[0].reason;
  EXPECT_TRUE(outcomes[1].accepted) << outcomes[1].reason;
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->connection_count(), 2u);
}

TEST(ScenarioParser, RunScenarioReportsRejection) {
  const ScenarioFile scenario = parse_scenario(std::string(kGoodScenario) +
                                               "connect hog route=tA-sw0-sw1-tZ cbr=0.9\n");
  const auto outcomes = run_scenario(scenario);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[2].accepted);
  EXPECT_FALSE(outcomes[2].reason.empty());
}

TEST(ScenarioParser, CommentsAndBlankLinesIgnored) {
  const auto scenario = parse_scenario(std::string(
      "# full-line comment\n\nswitch s0   # trailing comment\n"));
  EXPECT_EQ(scenario.topology.node_count(), 1u);
}

TEST(ScenarioParser, DefaultsWhenConfigOmitted) {
  const auto scenario =
      parse_scenario(std::string("switch s0\nswitch s1\nlink s0 s1\n"
                                 "connect c route=s0-s1 cbr=0.5\n"));
  EXPECT_EQ(scenario.params.priorities, 1u);
  // Omitted deadline means "no deadline".
  EXPECT_TRUE(std::isinf(scenario.connections[0].request.deadline));
}

struct BadCase {
  const char* label;
  const char* text;
  const char* needle;  // expected fragment of the error message
};

// gtest would print the struct as raw bytes, padding and pointer values
// included, and CMake appends that to the ctest name.  The label already
// names the test, so a fixed rendering keeps the name short and the same
// on every build.
void PrintTo(const BadCase& /*c*/, std::ostream* os) { *os << "BadCase"; }

class ScenarioParserErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioParserErrors, RejectsWithDiagnostic) {
  const BadCase& c = GetParam();
  try {
    (void)parse_scenario(std::string(c.text));
    FAIL() << c.label << ": expected ScenarioParseError";
  } catch (const ScenarioParseError& e) {
    EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
        << c.label << ": got '" << e.what() << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioParserErrors,
    ::testing::Values(
        BadCase{"unknown_keyword", "frobnicate x\n", "unknown keyword"},
        BadCase{"dup_node", "switch a\nswitch a\n", "duplicate node"},
        BadCase{"unknown_link_node", "switch a\nlink a b\n", "unknown node"},
        BadCase{"bad_number", "switch a\nswitch b\nlink a b\n"
                              "connect c route=a-b cbr=fast\n",
                "bad cbr rate"},
        BadCase{"missing_route", "switch a\nswitch b\nlink a b\n"
                                 "connect c cbr=0.5\n",
                "needs route"},
        BadCase{"missing_traffic", "switch a\nswitch b\nlink a b\n"
                                   "connect c route=a-b\n",
                "cbr= or vbr="},
        BadCase{"no_such_link", "switch a\nswitch b\n"
                                "connect c route=a-b cbr=0.5\n",
                "no link"},
        BadCase{"bad_vbr_arity", "switch a\nswitch b\nlink a b\n"
                                 "connect c route=a-b vbr=0.5,0.1\n",
                "pcr,scr,mbs"},
        BadCase{"bad_contract", "switch a\nswitch b\nlink a b\n"
                                "connect c route=a-b vbr=0.1,0.5,2\n",
                "SCR"},
        BadCase{"prio_range", "switch a\nswitch b\nlink a b\n"
                              "connect c route=a-b cbr=0.5 prio=3\n",
                "out of range"},
        BadCase{"dup_connection", "switch a\nswitch b\nlink a b\n"
                                  "connect c route=a-b cbr=0.1\n"
                                  "connect c route=a-b cbr=0.1\n",
                "duplicate connection"},
        BadCase{"config_after_connect",
                "switch a\nswitch b\nlink a b\n"
                "connect c route=a-b cbr=0.1\nqueue 64\n",
                "before the first connect"},
        BadCase{"bad_cdv", "cdv squishy\n", "hard or soft"},
        BadCase{"short_route", "switch a\nswitch b\nlink a b\n"
                               "connect c route=a cbr=0.5\n",
                ">= 2 nodes"},
        BadCase{"line_number", "switch a\n\nbogus\n", "line 3"}),
    [](const auto& info) { return std::string(info.param.label); });

INSTANTIATE_TEST_SUITE_P(
    MoreCases, ScenarioParserErrors,
    ::testing::Values(
        BadCase{"neg_queue", "queue -3\n", "positive"},
        BadCase{"bad_guarantee", "guarantee maybe\n",
                "computed or advertised"},
        BadCase{"frac_priorities", "priorities 1.5\n", "positive integer"},
        BadCase{"terminal_two_links",
                "terminal t\nswitch a\nswitch b\nlink t a\nlink t b\n",
                "access link"}),
    [](const auto& info) { return std::string(info.param.label); });

// Numbers that are finite doubles but no integer of the target type, or
// not finite at all: each used to be cast before any range check.
INSTANTIATE_TEST_SUITE_P(
    HostileNumbers, ScenarioParserErrors,
    ::testing::Values(
        BadCase{"huge_propagation", "switch a\nswitch b\nlink a b 1e30\n",
                "propagation must be a non-negative integer"},
        BadCase{"inf_priorities", "priorities inf\n", "positive integer"},
        BadCase{"inf_queue", "queue inf\n", "positive and finite"},
        BadCase{"nan_mbs", "switch a\nswitch b\nlink a b\n"
                           "connect c route=a-b vbr=0.5,0.1,nan\n",
                "mbs must be a positive integer"},
        BadCase{"huge_prio", "priorities 2\nswitch a\nswitch b\nlink a b\n"
                             "connect c route=a-b cbr=0.5 prio=1e30\n",
                "prio must be a non-negative integer"},
        BadCase{"nan_deadline", "switch a\nswitch b\nlink a b\n"
                                "connect c route=a-b cbr=0.5 deadline=nan\n",
                "deadline must be non-negative"},
        BadCase{"neg_deadline", "switch a\nswitch b\nlink a b\n"
                                "connect c route=a-b cbr=0.5 deadline=-5\n",
                "deadline must be non-negative"}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace rtcac
