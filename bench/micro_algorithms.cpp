// Micro-benchmarks (M1) of the admission machinery itself, for the
// paper's Section 4.3 discussion 2: CAC cost grows with the number of
// priority levels and with the connection count, which bounds how fast
// switched VCs can be established.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/delay_bound.h"
#include "core/stream_ops.h"
#include "core/switch_cac.h"
#include "core/traffic.h"
#include "util/xorshift.h"

namespace {

using namespace rtcac;

BitStream random_stream(Xorshift& rng, double max_rate = 0.2) {
  const double pcr = max_rate * (0.1 + 0.9 * rng.uniform());
  const double scr = pcr * (0.2 + 0.8 * rng.uniform());
  const auto mbs = static_cast<std::uint32_t>(1 + rng.below(8));
  return delay(TrafficDescriptor::vbr(pcr, scr, mbs).to_bitstream(),
               32.0 * static_cast<double>(rng.below(8)));
}

void BM_Multiplex(benchmark::State& state) {
  Xorshift rng(1);
  BitStream aggregate;
  for (int i = 0; i < state.range(0); ++i) {
    aggregate = multiplex(aggregate, random_stream(rng));
  }
  const BitStream one = random_stream(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiplex(aggregate, one));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Multiplex)->Range(4, 256)->Complexity(benchmark::oN);

// One in-port's cell after its in-link: 10 to 23 VBR connections,
// multiplexed and filtered.
BitStream filtered_vbr_cell(Xorshift& rng) {
  BitStream cell;
  const std::uint64_t connections = 10 + rng.below(14);
  for (std::uint64_t c = 0; c < connections; ++c) {
    const double pcr = 0.02 + 0.08 * rng.uniform();
    const double scr = pcr * (0.1 + 0.5 * rng.uniform());
    const auto mbs = static_cast<std::uint32_t>(1 + rng.below(64));
    cell = multiplex(cell, TrafficDescriptor::vbr(pcr, scr, mbs).to_bitstream());
  }
  return filter(cell);
}

// The k-way merge as the per-point check runs it: the span kernel
// (detail::multiplex_all_segments) writing into a reused scratch buffer.
// Inputs are k = 2..8 filtered cells of 12 to 25 segments each, the long
// end of what the admission path merges: on cacbench's `churn` (seed 5)
// 40% of the merges take 2 non-zero inputs and the rest 4.1 on average,
// of 6 to 8 segments on average, and 19% of the inputs have 12 to 25.
// Successive iterations merge different sets of cells, as successive
// checks do: on one repeated set the branch predictor learns the merge
// order, which no real check sees.
void BM_MultiplexAll(benchmark::State& state) {
  constexpr std::size_t kSets = 64;
  Xorshift rng(6);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<BitStream>> cells(kSets);
  std::vector<std::vector<detail::SegmentSpan<double>>> sets(kSets);
  std::size_t segments = 0;
  for (std::size_t set = 0; set < kSets; ++set) {
    // About 60% of the cells drawn have 12 to 25 segments.
    for (int draw = 0; draw < 1000 && cells[set].size() < k; ++draw) {
      BitStream cell = filtered_vbr_cell(rng);
      if (cell.size() >= 12 && cell.size() <= 25) {
        segments += cell.size();
        cells[set].push_back(std::move(cell));
      }
    }
    if (cells[set].size() < k) {
      state.SkipWithError("no 12-to-25-segment input in 1000 draws");
      return;
    }
    for (const BitStream& cell : cells[set]) {
      sets[set].push_back(cell.segments());
    }
  }
  detail::StreamScratch<double>::Frame frame;
  std::vector<Segment>& out = frame.segments();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detail::multiplex_all_segments<double>(sets[next], out).data());
    benchmark::ClobberMemory();
    next = (next + 1) % kSets;
  }
  state.counters["in_segments"] =
      static_cast<double>(segments) / static_cast<double>(kSets);
}
BENCHMARK(BM_MultiplexAll)->DenseRange(2, 8);

void BM_Filter(benchmark::State& state) {
  Xorshift rng(2);
  BitStream aggregate;
  for (int i = 0; i < state.range(0); ++i) {
    aggregate = multiplex(aggregate, random_stream(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter(aggregate));
  }
}
BENCHMARK(BM_Filter)->Range(4, 256);

void BM_Delay(benchmark::State& state) {
  Xorshift rng(3);
  const BitStream stream =
      TrafficDescriptor::vbr(0.5, 0.05, 16).to_bitstream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(delay(stream, 480.0));
  }
}
BENCHMARK(BM_Delay);

void BM_DelayBound(benchmark::State& state) {
  Xorshift rng(4);
  BitStream offered;
  BitStream hp;
  // Keep the aggregate stable (sum of rates < 1) at every size so the
  // bound computation cannot take the cheap "unbounded" early exit.
  const double per_stream = 0.6 / static_cast<double>(state.range(0));
  for (int i = 0; i < state.range(0); ++i) {
    offered = multiplex(offered, random_stream(rng, per_stream));
    hp = multiplex(hp, random_stream(rng, per_stream / 2));
  }
  const BitStream hp_filtered = filter(hp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delay_bound(offered, hp_filtered));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DelayBound)->Range(4, 256)->Complexity(benchmark::oN);

// One in-port's cell as the workloads offer it: 1 to 6 VBR connections
// (SCR k/2048, PCR 2 to 7 times that, MBS 2 to 31) or 1 to 2 CBR ones
// (k/256 of the link), each distorted for an upstream CDV, multiplexed
// and filtered by the in-link.
BitStream workload_cell(Xorshift& rng, bool cbr) {
  BitStream cell;
  const std::uint64_t connections = cbr ? 1 + rng.below(2) : 1 + rng.below(6);
  for (std::uint64_t c = 0; c < connections; ++c) {
    TrafficDescriptor td;
    if (cbr) {
      td = TrafficDescriptor::cbr(static_cast<double>(1 + rng.below(8)) / 256);
    } else {
      const double scr = static_cast<double>(1 + rng.below(6)) / 2048;
      td = TrafficDescriptor::vbr(
          scr * static_cast<double>(2 + rng.below(6)), scr,
          static_cast<std::uint32_t>(2 + rng.below(30)));
    }
    cell = multiplex(cell, delay(td.to_bitstream(),
                                 32.0 * static_cast<double>(rng.below(8))));
  }
  return filter(cell);
}

// The Alg. 4.1 bound as the per-point check calls it: the span kernel on
// a queue's offered aggregate (2 to 4 in-port cells) against the
// filtered aggregate above it (1 to 4 cells).  Each row keeps 64 input
// sets of one shape with a finite bound and cycles through them, as
// BM_MultiplexAll does:
//   * vbr: offered aggregates of 8 to 12 segments against 13 to 17 service
//     points, the `churn` and `probe` shape;
//   * cbr: 3 segments against 2 points, the `signaling_lossy` shape.
struct BoundShape {
  bool cbr;
  std::size_t offered_min, offered_max, hp_min, hp_max;
};

void BM_DelayBoundCheck(benchmark::State& state, BoundShape shape) {
  constexpr std::size_t kSets = 64;
  Xorshift rng(7);
  std::vector<BitStream> offered;
  std::vector<BitStream> hp;
  for (int draw = 0; draw < 200000 && offered.size() < kSets; ++draw) {
    BitStream s;
    for (std::uint64_t i = 0, n = 2 + rng.below(3); i < n; ++i) {
      s = multiplex(s, workload_cell(rng, shape.cbr));
    }
    BitStream above;
    for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i) {
      above = multiplex(above, workload_cell(rng, shape.cbr));
    }
    above = filter(above);
    if (s.size() < shape.offered_min || s.size() > shape.offered_max ||
        above.size() < shape.hp_min || above.size() > shape.hp_max ||
        !delay_bound(s, above).has_value()) {
      continue;
    }
    offered.push_back(std::move(s));
    hp.push_back(std::move(above));
  }
  if (offered.size() < kSets) {
    state.SkipWithError("too few inputs of the shape in 200000 draws");
    return;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::delay_bound_segments<double>(
        offered[next].segments(), hp[next].segments()));
    next = (next + 1) % kSets;
  }
}
BENCHMARK_CAPTURE(BM_DelayBoundCheck, vbr, BoundShape{false, 8, 12, 13, 17});
BENCHMARK_CAPTURE(BM_DelayBoundCheck, cbr, BoundShape{true, 3, 3, 2, 2});

// The rebind that ends a MODIFY or reroute at one hop
// (PathEvaluator::rebind_hops): the provisional reservation moves onto the
// connection's stable id.
//   * remove_add: remove + add of the same stream, which re-merges the
//     leaf's root path twice and rebuilds the cell's root block;
//   * rekey: SwitchCac::rekey, which moves the record, lease and
//     membership and leaves the tree and the caches as they are.
// Each of 64 switches holds one cell shaped like `signaling_lossy`'s: 10
// CBR connections of 1/256 to 8/256 of the link, each delayed for an
// upstream CDV of 0 to 7 hops of 32 cells.  Successive iterations rebind
// on successive switches, so the trees are not all in cache, and each
// rebind moves the id back the next time round.
void BM_SwitchRebind(benchmark::State& state, bool rekey) {
  constexpr std::size_t kSets = 64;
  constexpr ConnectionId kLeaves = 10;
  SwitchCac::Config cfg;
  cfg.in_ports = 2;
  cfg.out_ports = 2;
  cfg.priorities = 2;
  std::vector<SwitchCac> switches;
  switches.reserve(kSets);
  std::vector<BitStream> moved(kSets);
  Xorshift rng(8);
  for (std::size_t set = 0; set < kSets; ++set) {
    SwitchCac& cac = switches.emplace_back(cfg);
    for (ConnectionId id = 1; id <= kLeaves; ++id) {
      moved[set] = delay(
          TrafficDescriptor::cbr(static_cast<double>(1 + rng.below(8)) / 256)
              .to_bitstream(),
          32.0 * static_cast<double>(rng.below(8)));
      cac.add(id, 0, 0, 0, moved[set]);
    }
  }
  std::vector<ConnectionId> from(kSets, kLeaves);
  std::vector<ConnectionId> to(kSets, kLeaves + 1);
  std::size_t next = 0;
  for (auto _ : state) {
    SwitchCac& cac = switches[next];
    if (rekey) {
      cac.rekey(from[next], to[next], 0, 0, 0);
    } else {
      cac.remove(from[next]);
      cac.add(to[next], 0, 0, 0, moved[next]);
    }
    benchmark::DoNotOptimize(cac.arrival_aggregate(0, 0, 0).segments().data());
    benchmark::ClobberMemory();
    std::swap(from[next], to[next]);
    next = (next + 1) % kSets;
  }
}
BENCHMARK_CAPTURE(BM_SwitchRebind, remove_add, false);
BENCHMARK_CAPTURE(BM_SwitchRebind, rekey, true);

// Full per-switch admission check as a function of priority levels,
// connection count and in-ports — the quantity that gates on-line VC
// setup.  Out-port 0 carries every connection, from 4 in-ports spread
// over the range: with 4 in-ports that is every in-port (the dense rows),
// with 19 (an RTnet switch, paper §5) or 64 it is a few of many (the
// sparse rows, where the check merges only the live in-ports).  Each row
// cycles 64 candidates (in-port, priority, stream), half from an in-port
// with traffic and half from any in-port, so the branch predictor cannot
// learn one input.
void BM_SwitchAdmission(benchmark::State& state) {
  constexpr std::size_t kSets = 64;
  const auto priorities = static_cast<std::size_t>(state.range(0));
  const auto connections = static_cast<std::size_t>(state.range(1));
  const auto in_ports = static_cast<std::size_t>(state.range(2));
  SwitchCac::Config cfg;
  cfg.in_ports = in_ports;
  cfg.out_ports = 4;
  cfg.priorities = priorities;
  cfg.advertised_bound = 1e9;  // admit everything; measure cost only
  SwitchCac cac(cfg);
  Xorshift rng(5);
  std::vector<std::size_t> busy;
  for (std::size_t k = 0; k < 4; ++k) busy.push_back(k * (in_ports - 1) / 3);
  for (std::size_t i = 0; i < connections; ++i) {
    cac.add(i, busy[rng.below(busy.size())], 0,
            static_cast<Priority>(rng.below(priorities)),
            random_stream(rng, 0.9 / static_cast<double>(connections)));
  }
  struct Candidate {
    std::size_t in_port;
    Priority priority;
    BitStream arrival;
  };
  std::vector<Candidate> candidates;
  for (std::size_t set = 0; set < kSets; ++set) {
    const std::size_t in =
        rng.below(2) == 0 ? busy[rng.below(busy.size())] : rng.below(in_ports);
    candidates.push_back(
        Candidate{in, static_cast<Priority>(rng.below(priorities)),
                  random_stream(rng, 0.5 / static_cast<double>(connections))});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Candidate& c = candidates[next];
    benchmark::DoNotOptimize(cac.check(c.in_port, 0, c.priority, c.arrival));
    next = (next + 1) % kSets;
  }
}
BENCHMARK(BM_SwitchAdmission)
    ->ArgNames({"prio", "conns", "in"})
    ->ArgsProduct({{1, 2, 4, 8}, {16, 64, 256}, {4, 19, 64}});

// What exactness costs: the same admission check in Rational arithmetic.
void BM_ExactSwitchAdmission(benchmark::State& state) {
  const auto connections = static_cast<std::size_t>(state.range(0));
  ExactSwitchCac::Config cfg;
  cfg.in_ports = 4;
  cfg.out_ports = 1;
  cfg.priorities = 1;
  cfg.advertised_bound = Rational(1000000);
  ExactSwitchCac cac(cfg);
  Xorshift rng(6);
  for (std::size_t i = 0; i < connections; ++i) {
    // Dyadic rates keep the rationals small, as a realistic config would.
    const auto denom = static_cast<std::int64_t>(
        8 * connections * (1 + rng.below(4)));
    const ExactBitStream stream{
        {Rational(1), Rational(0)},
        {Rational(1, denom), Rational(1 + static_cast<std::int64_t>(i % 3))}};
    cac.add(i, rng.below(4), 0, 0, stream);
  }
  const ExactBitStream candidate{{Rational(1), Rational(0)},
                                 {Rational(1, 64), Rational(1)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cac.check(0, 0, 0, candidate));
  }
}
BENCHMARK(BM_ExactSwitchAdmission)->Arg(16)->Arg(64)->Arg(256);

// Point queries on a segment-rich aggregate.  rate_at / bits_before now
// binary-search the (strictly increasing) segment starts with prefix
// areas precomputed at construction; the *Linear variants measure the
// replaced left-to-right scan for comparison.  The gap is what the
// delay-bound candidate sweep — many point queries per admission check —
// gains on large aggregates.
BitStream wide_aggregate(std::size_t segments) {
  std::vector<Segment> segs;
  segs.reserve(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    // Strictly decreasing arithmetic rate ladder, far apart enough that
    // coalescing never merges adjacent steps.
    segs.push_back(Segment{static_cast<double>(segments - k) / 1024.0,
                           8.0 * static_cast<double>(k)});
  }
  return BitStream(std::move(segs));
}

double rate_at_linear(const BitStream& s, double t) {
  double rate = s.segments().front().rate;
  for (const Segment& seg : s.segments()) {
    if (!(seg.start <= t)) break;
    rate = seg.rate;
  }
  return rate;
}

double bits_before_linear(const BitStream& s, double t) {
  if (t <= 0) return 0;
  double area = 0;
  const auto segs = s.segments();
  for (std::size_t k = 0; k < segs.size(); ++k) {
    const bool last = (k + 1 == segs.size());
    const double end = last ? t : std::min(t, segs[k + 1].start);
    if (end <= segs[k].start) break;
    area += segs[k].rate * (end - segs[k].start);
    if (!last && t <= segs[k + 1].start) break;
  }
  return area;
}

void BM_PointQuery(benchmark::State& state) {
  const auto segments = static_cast<std::size_t>(state.range(0));
  const BitStream stream = wide_aggregate(segments);
  const double horizon = 8.0 * static_cast<double>(segments);
  Xorshift rng(7);
  std::vector<double> times;
  for (std::size_t i = 0; i < 64; ++i) {
    times.push_back(horizon * rng.uniform());
  }
  for (auto _ : state) {
    double acc = 0;
    for (const double t : times) {
      acc += stream.rate_at(t) + stream.bits_before(t);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PointQuery)->Range(8, 4096)->Complexity(benchmark::oLogN);

void BM_PointQueryLinear(benchmark::State& state) {
  const auto segments = static_cast<std::size_t>(state.range(0));
  const BitStream stream = wide_aggregate(segments);
  const double horizon = 8.0 * static_cast<double>(segments);
  Xorshift rng(7);
  std::vector<double> times;
  for (std::size_t i = 0; i < 64; ++i) {
    times.push_back(horizon * rng.uniform());
  }
  // Equivalence gate before timing: the linear references must agree
  // with the binary-search implementations everywhere we sample.
  for (const double t : times) {
    if (stream.rate_at(t) != rate_at_linear(stream, t) ||
        std::abs(stream.bits_before(t) - bits_before_linear(stream, t)) >
            1e-9 * (1.0 + bits_before_linear(stream, t))) {
      state.SkipWithError("binary-search/linear point-query mismatch");
      return;
    }
  }
  for (auto _ : state) {
    double acc = 0;
    for (const double t : times) {
      acc += rate_at_linear(stream, t) + bits_before_linear(stream, t);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PointQueryLinear)->Range(8, 4096)->Complexity(benchmark::oN);

}  // namespace

BENCHMARK_MAIN();
