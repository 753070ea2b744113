#include "cli/scenario_parser.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace rtcac {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  std::ostringstream os;
  os << "scenario line " << line_no << ": " << message;
  throw ScenarioParseError(os.str());
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token.front() == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

double parse_number(std::size_t line_no, const std::string& text,
                    const std::string& what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) fail(line_no, "bad " + what + ": " + text);
    return value;
  } catch (const std::exception&) {
    fail(line_no, "bad " + what + ": " + text);
  }
}

// A whole number in [lo, hi], or a diagnostic.  The range is checked on
// the double, before the cast: casting a non-finite or out-of-range double
// to an integer type is undefined behaviour.
template <typename Int>
Int parse_whole(std::size_t line_no, const std::string& text,
                const std::string& what, Int lo, Int hi,
                const std::string& complaint) {
  const double value = parse_number(line_no, text, what);
  // double(hi) may round up to 2^bits; whole values below it still fit.
  const bool in_range = std::isfinite(value) &&
                        value >= static_cast<double>(lo) &&
                        value < static_cast<double>(hi) + 1.0;
  if (!in_range || value != std::floor(value)) fail(line_no, complaint);
  return static_cast<Int>(value);
}

// "key=value" -> {key, value}; whole-token key when no '='.
std::pair<std::string, std::string> key_value(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

ScenarioFile parse_scenario(std::istream& in) {
  ScenarioFile scenario;
  std::map<std::string, NodeId> nodes;
  std::map<std::string, bool> connection_names;
  bool saw_connect = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens.front();

    const auto need_args = [&](std::size_t n) {
      if (tokens.size() < n + 1) {
        fail(line_no, keyword + " needs " + std::to_string(n) + " argument(s)");
      }
    };
    const auto config_allowed = [&] {
      if (saw_connect) {
        fail(line_no, keyword + " must appear before the first connect");
      }
    };

    if (keyword == "switch" || keyword == "terminal") {
      need_args(1);
      config_allowed();
      if (nodes.contains(tokens[1])) {
        fail(line_no, "duplicate node name " + tokens[1]);
      }
      nodes[tokens[1]] = keyword == "switch"
                             ? scenario.topology.add_switch(tokens[1])
                             : scenario.topology.add_terminal(tokens[1]);
    } else if (keyword == "link") {
      need_args(2);
      config_allowed();
      const auto from = nodes.find(tokens[1]);
      const auto to = nodes.find(tokens[2]);
      if (from == nodes.end()) fail(line_no, "unknown node " + tokens[1]);
      if (to == nodes.end()) fail(line_no, "unknown node " + tokens[2]);
      Tick propagation = 0;
      if (tokens.size() > 3) {
        propagation = parse_whole<Tick>(
            line_no, tokens[3], "propagation", 0,
            std::numeric_limits<Tick>::max(),
            "propagation must be a non-negative integer");
      }
      try {
        scenario.topology.add_link(from->second, to->second, propagation);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (keyword == "priorities") {
      need_args(1);
      config_allowed();
      // Priorities are numbered 0 .. n-1 in a Priority.
      scenario.params.priorities = parse_whole<std::size_t>(
          line_no, tokens[1], "priority count", 1,
          std::numeric_limits<Priority>::max(),
          "priorities must be a positive integer");
    } else if (keyword == "queue") {
      need_args(1);
      config_allowed();
      scenario.params.advertised_bound =
          parse_number(line_no, tokens[1], "queue depth");
      if (!(scenario.params.advertised_bound > 0) ||
          !std::isfinite(scenario.params.advertised_bound)) {
        fail(line_no, "queue depth must be positive and finite");
      }
    } else if (keyword == "cdv") {
      need_args(1);
      config_allowed();
      if (tokens[1] == "hard") {
        scenario.params.cdv_policy = CdvPolicy::kHard;
      } else if (tokens[1] == "soft") {
        scenario.params.cdv_policy = CdvPolicy::kSoft;
      } else {
        fail(line_no, "cdv must be hard or soft");
      }
    } else if (keyword == "guarantee") {
      need_args(1);
      config_allowed();
      if (tokens[1] == "computed") {
        scenario.params.guarantee = GuaranteeMode::kComputed;
      } else if (tokens[1] == "advertised") {
        scenario.params.guarantee = GuaranteeMode::kAdvertised;
      } else {
        fail(line_no, "guarantee must be computed or advertised");
      }
    } else if (keyword == "connect") {
      need_args(2);
      saw_connect = true;
      ScenarioConnection conn;
      conn.name = tokens[1];
      if (connection_names[conn.name]) {
        fail(line_no, "duplicate connection name " + conn.name);
      }
      connection_names[conn.name] = true;

      bool have_route = false;
      bool have_traffic = false;
      std::set<std::string> seen_options;
      for (std::size_t k = 2; k < tokens.size(); ++k) {
        const auto [key, value] = key_value(tokens[k]);
        // A repeated option (or cbr= with vbr=) would silently overwrite
        // the first one, or for route= extend it.
        if (!seen_options.insert(key == "vbr" ? "cbr" : key).second) {
          fail(line_no, "duplicate connect option " + key);
        }
        if (key == "route") {
          const auto hops = split(value, '-');
          if (hops.size() < 2) fail(line_no, "route needs >= 2 nodes");
          for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
            const auto from = nodes.find(hops[h]);
            const auto to = nodes.find(hops[h + 1]);
            if (from == nodes.end()) fail(line_no, "unknown node " + hops[h]);
            if (to == nodes.end()) {
              fail(line_no, "unknown node " + hops[h + 1]);
            }
            const auto link =
                scenario.topology.find_link(from->second, to->second);
            if (!link.has_value()) {
              fail(line_no, "no link " + hops[h] + " -> " + hops[h + 1]);
            }
            conn.route.push_back(*link);
          }
          have_route = true;
        } else if (key == "cbr") {
          conn.request.traffic = TrafficDescriptor::cbr(
              parse_number(line_no, value, "cbr rate"));
          have_traffic = true;
        } else if (key == "vbr") {
          const auto parts = split(value, ',');
          if (parts.size() != 3) fail(line_no, "vbr needs pcr,scr,mbs");
          const auto mbs = parse_whole<std::uint32_t>(
              line_no, parts[2], "mbs", 1,
              std::numeric_limits<std::uint32_t>::max(),
              "mbs must be a positive integer");
          conn.request.traffic = TrafficDescriptor::vbr(
              parse_number(line_no, parts[0], "pcr"),
              parse_number(line_no, parts[1], "scr"), mbs);
          have_traffic = true;
        } else if (key == "deadline") {
          conn.request.deadline =
              parse_number(line_no, value, "deadline");
          // inf (the QosRequest default) means no deadline.  NaN would
          // pass every deadline test, so it must not parse.
          if (!(conn.request.deadline >= 0)) {
            fail(line_no, "deadline must be non-negative (inf for none)");
          }
        } else if (key == "prio") {
          conn.request.priority = parse_whole<Priority>(
              line_no, value, "priority", 0,
              std::numeric_limits<Priority>::max(),
              "prio must be a non-negative integer");
        } else {
          fail(line_no, "unknown connect option " + key);
        }
      }
      if (!have_route) fail(line_no, "connect needs route=");
      if (!have_traffic) fail(line_no, "connect needs cbr= or vbr=");
      try {
        conn.request.traffic.validate();
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      if (conn.request.priority >= scenario.params.priorities) {
        fail(line_no, "prio out of range (priorities = " +
                          std::to_string(scenario.params.priorities) + ")");
      }
      scenario.connections.push_back(std::move(conn));
    } else {
      fail(line_no, "unknown keyword " + keyword);
    }
  }
  return scenario;
}

ScenarioFile parse_scenario(const std::string& text) {
  std::istringstream is(text);
  return parse_scenario(is);
}

std::vector<ScenarioOutcome> run_scenario(
    const ScenarioFile& scenario,
    std::unique_ptr<ConnectionManager>* manager_out) {
  auto manager =
      std::make_unique<ConnectionManager>(scenario.topology, scenario.params);
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(scenario.connections.size());
  for (const ScenarioConnection& conn : scenario.connections) {
    ScenarioOutcome outcome;
    outcome.name = conn.name;
    const auto result = manager->setup(conn.request, conn.route);
    outcome.accepted = result.accepted;
    outcome.reason = result.reason;
    outcome.e2e_bound_at_setup = result.e2e_bound_at_setup;
    outcome.e2e_advertised = result.e2e_advertised;
    outcomes.push_back(std::move(outcome));
  }
  if (manager_out != nullptr) {
    *manager_out = std::move(manager);
  }
  return outcomes;
}

}  // namespace rtcac
