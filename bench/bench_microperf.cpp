// Microbenchmarks (google-benchmark): the simulator kernels whose speed
// determines how large an experiment sweep the harness can afford.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "bench/bench_gbench.hpp"
#include "cdma/channel.hpp"
#include "cdma/code_assignment.hpp"
#include "ring/frame.hpp"
#include "ring/virtual_ring.hpp"
#include "sim/scheduler.hpp"
#include "tpt/engine.hpp"
#include "util/rng.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

void BM_EngineStepIdle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepIdle)->Arg(8)->Arg(32)->Arg(128);

void BM_EngineStepSaturated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 8);
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepSaturated)->Arg(8)->Arg(32)->Arg(128);

void BM_EngineStepCdmaFidelity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Config config;
  config.cdma_fidelity = true;
  wrtring::Engine engine(&topology, config, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + 1) % n);
    spec.cls = TrafficClass::kBestEffort;
    engine.add_saturated_source(spec, 8);
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepCdmaFidelity)->Arg(8)->Arg(32);

void BM_TptStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::dense_room(n);
  tpt::TptEngine engine(&topology, tpt::TptConfig{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TptStep)->Arg(8)->Arg(32)->Arg(128);

void BM_BuildRing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  for (auto _ : state) {
    auto result = ring::build_ring(topology);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BuildRing)->Arg(8)->Arg(32)->Arg(128);

void BM_CodeAssignmentGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  for (auto _ : state) {
    auto codes = cdma::assign_greedy_two_hop(topology);
    benchmark::DoNotOptimize(codes);
  }
}
BENCHMARK(BM_CodeAssignmentGreedy)->Arg(16)->Arg(64)->Arg(256);

// The same assignment on a topology mutated before every pass, so each
// pass also pays the adjacency rebuild: the cost on a fresh topology.
void BM_CodeAssignmentGreedyCold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  const phy::Vec2 anchor = topology.position(0);
  for (auto _ : state) {
    topology.set_position(0, anchor);  // bumps version()
    auto codes = cdma::assign_greedy_two_hop(topology);
    benchmark::DoNotOptimize(codes);
  }
}
BENCHMARK(BM_CodeAssignmentGreedyCold)->Arg(16)->Arg(64)->Arg(256);

void BM_ChannelSlotResolution(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  const auto codes = cdma::assign_greedy_two_hop(topology);
  cdma::Channel<int> channel(&topology);
  for (NodeId node = 0; node < n; ++node) {
    channel.set_listen_codes(node, {codes[node], kBroadcastCode});
  }
  Tick now = 0;
  for (auto _ : state) {
    channel.begin_slot(now);
    for (NodeId node = 0; node < n; ++node) {
      channel.transmit(node, codes[(node + 1) % n], 0);
    }
    benchmark::DoNotOptimize(channel.end_slot());
    now += kTicksPerSlot;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChannelSlotResolution)->Arg(8)->Arg(32)->Arg(128);

// One hop of the fidelity mode's wire check: a packet's slot header is
// serialised (CRC appended) and re-parsed (CRC checked).
void BM_FrameHeaderCodec(benchmark::State& state) {
  traffic::Packet packet;
  packet.flow = 9;
  packet.cls = TrafficClass::kRealTime;
  packet.src = 3;
  packet.dst = 7;
  for (auto _ : state) {
    ++packet.sequence;
    const auto decoded =
        ring::decode_header(ring::encode_packet_header(packet));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_FrameHeaderCodec);

void BM_SchedulerChurn(benchmark::State& state) {
  sim::Scheduler scheduler;
  util::RngStream rng(1);
  Tick horizon = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      scheduler.schedule_after(
          static_cast<Tick>(rng.uniform_int(std::uint64_t{256}) + 1), [] {});
    }
    horizon += 128;
    scheduler.run_until(horizon);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerChurn);

void BM_RngStream(benchmark::State& state) {
  util::RngStream rng(7);
  double sink = 0.0;
  for (auto _ : state) {
    sink += rng.exponential(10.0);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngStream);

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  wrt::bench::Reporter reporter("microperf", argc, argv);
  reporter.seed(1);
  reporter.seed(7);
  return wrt::bench::run_gbench(reporter, argc, argv);
}
