// Unit tests for the scenario-file parser and runner, and a seeded
// mutation corpus that feeds it hostile variants of valid scenarios.

#include "cli/scenario_parser.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <typeinfo>

#include "util/xorshift.h"

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

constexpr const char* kDeadlineScenario =
    "switch a\nswitch b\nlink a b\n"
    "connect c route=a-b cbr=0.5 deadline=inf\n"
    "connect d route=a-b cbr=0.1 deadline=0\n";

constexpr const char* kCommentedScenario =
    "# full-line comment\n\nswitch s0   # trailing comment\n";

constexpr const char* kMinimalScenario =
    "switch s0\nswitch s1\nlink s0 s1\n"
    "connect c route=s0-s1 cbr=0.5\n";

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
  const ScenarioFile scenario =
      parse_scenario(std::string(kDeadlineScenario));
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
  const auto scenario = parse_scenario(std::string(kCommentedScenario));
  EXPECT_EQ(scenario.topology.node_count(), 1u);
}

TEST(ScenarioParser, DefaultsWhenConfigOmitted) {
  const auto scenario = parse_scenario(std::string(kMinimalScenario));
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
        BadCase{"line_number", "switch a\n\nbogus\n", "line 3"},
        BadCase{"dup_route", "switch a\nswitch b\nlink a b\n"
                             "connect c route=a-b route=a-b cbr=0.5\n",
                "duplicate connect option route"},
        BadCase{"cbr_and_vbr", "switch a\nswitch b\nlink a b\n"
                               "connect c route=a-b cbr=0.5 vbr=0.5,0.1,4\n",
                "duplicate connect option vbr"}),
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

// --- seeded mutation corpus -------------------------------------------------
//
// Each mutant of a valid scenario must either parse or throw a
// ScenarioParseError that names its line, and a mutant that parses must
// also run (rtcac_admit runs what it parsed); any other exception fails
// the test, and a crash or sanitizer report fails the run.  The
// generator is in-tree and seeded, so a failing mutant replays from its
// seed.

enum class Mutation {
  kHostileNumber,  ///< a numeric run becomes nan, inf, -1, 1e308, 2^64
  kDropToken,
  kDuplicateToken,
  kTruncateLine,
  kSwapKeyword,  ///< a line keyword or connect option key becomes another
  kCount,
};
constexpr auto kMutationKinds = static_cast<std::size_t>(Mutation::kCount);

constexpr std::array<const char*, 5> kHostileNumbers = {
    "nan", "inf", "-1", "1e308", "18446744073709551616"};
constexpr std::array<const char*, 8> kKeywords = {
    "switch", "terminal", "link", "priorities",
    "queue",  "cdv",      "guarantee", "connect"};
constexpr std::array<const char*, 5> kOptionKeys = {"route", "cbr", "vbr",
                                                    "deadline", "prio"};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream in(line);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

class ScenarioMutator {
 public:
  explicit ScenarioMutator(std::uint64_t seed) : rng_(seed) {}

  /// One to three mutations of `text`; counts each kind applied.
  std::string mutate(const std::string& text) {
    std::vector<std::string> lines = split_lines(text);
    for (std::size_t n = 1 + rng_.below(3); n > 0 && !lines.empty(); --n) {
      std::string& line = lines[rng_.below(lines.size())];
      const auto kind =
          static_cast<Mutation>(rng_.below(kMutationKinds));
      if (apply(kind, line)) ++applied_[static_cast<std::size_t>(kind)];
    }
    return join(lines, "\n") + "\n";
  }

  [[nodiscard]] std::size_t applied(Mutation kind) const {
    return applied_[static_cast<std::size_t>(kind)];
  }

 private:
  template <typename Pool>
  const char* pick(const Pool& pool) {
    return pool[rng_.below(pool.size())];
  }

  bool apply(Mutation kind, std::string& line) {
    std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) return false;
    const std::size_t t = rng_.below(tokens.size());
    switch (kind) {
      case Mutation::kHostileNumber: {
        static const std::regex number(R"([0-9]+(\.[0-9]+)?)");
        std::vector<std::smatch> runs(
            std::sregex_iterator(tokens[t].begin(), tokens[t].end(), number),
            std::sregex_iterator());
        if (runs.empty()) return false;
        const std::smatch& run = runs[rng_.below(runs.size())];
        tokens[t].replace(static_cast<std::size_t>(run.position()),
                          static_cast<std::size_t>(run.length()),
                          pick(kHostileNumbers));
        break;
      }
      case Mutation::kDropToken:
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
        break;
      case Mutation::kDuplicateToken:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                      tokens[t]);
        break;
      case Mutation::kTruncateLine:
        line.resize(rng_.below(line.size()));
        return true;
      case Mutation::kSwapKeyword: {
        const std::size_t eq = tokens[t].find('=');
        if (t == 0) {
          tokens[0] = pick(kKeywords);
        } else if (eq != std::string::npos) {
          tokens[t] = pick(kOptionKeys) + tokens[t].substr(eq);
        } else {
          return false;
        }
        break;
      }
      case Mutation::kCount:
        return false;
    }
    line = join(tokens, " ");
    return true;
  }

  Xorshift rng_;
  std::array<std::size_t, kMutationKinds> applied_{};
};

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ScenarioMutations, EveryMutantRunsOrNamesItsLine) {
  const std::string example = read_file(RTCAC_EXAMPLE_SCENARIO);
  ASSERT_FALSE(example.empty()) << "cannot read " << RTCAC_EXAMPLE_SCENARIO;
  const std::vector<std::string> bases = {
      example, kGoodScenario, kDeadlineScenario, kCommentedScenario,
      kMinimalScenario};
  const std::regex names_line(R"(^scenario line [0-9]+: )");
  constexpr std::size_t kMutantsPerSeed = 200;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
    ScenarioMutator mutator(seed);
    for (std::size_t b = 0; b < bases.size(); ++b) {
      for (std::size_t m = 0; m < kMutantsPerSeed; ++m) {
        const std::string mutant = mutator.mutate(bases[b]);
        try {
          const ScenarioFile scenario = parse_scenario(mutant);
          ++parsed;
          (void)run_scenario(scenario);
        } catch (const ScenarioParseError& e) {
          ++rejected;
          EXPECT_TRUE(std::regex_search(e.what(), names_line))
              << "seed " << seed << ", base " << b << ": '" << e.what()
              << "' names no line for\n"
              << mutant;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "seed " << seed << ", base " << b
                        << ": escaped as " << typeid(e).name() << " '"
                        << e.what() << "' for\n"
                        << mutant;
        }
      }
    }
    for (std::size_t k = 0; k < kMutationKinds; ++k) {
      EXPECT_GT(mutator.applied(static_cast<Mutation>(k)), 0u)
          << "seed " << seed << " never applied mutation " << k;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rtcac
