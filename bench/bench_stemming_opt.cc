// The arena-stemmer benchmark trajectory: the pre-arena implementation
// (frozen in pre_arena_stemmer.h) against the flat-arena, incremental
// Stem, on the Table I Berkeley stemming workloads (12k / 57k / 330k
// events).  SpikeEvents gives the 330k window the 57k window's 32,268
// classes: the 330k figures time per-event dedup over repeats of the
// same sequences, not a larger window's correlation work.
//
// tools/run_bench.py runs this binary and distils the stemming_opt row
// of BENCH_stemming.json (ns/op per size, legacy vs arena, speedup).
//
// Before benchmarking, main() asserts that the pre-arena and arena Stem
// agree on the 12k workload — the timing comparison is only meaningful
// if both sides compute the same answer.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <unordered_map>

#include "pre_arena_stemmer.h"
#include "table1_common.h"
#include "stemming/stemming.h"

namespace ranomaly::bench {
namespace {

const collector::EventStream& Workload(std::size_t count) {
  // Shared across benchmark repetitions; generation is not measured.
  static std::unordered_map<std::size_t, collector::EventStream> cache;
  auto it = cache.find(count);
  if (it == cache.end()) {
    const workload::SyntheticInternet internet = BerkeleyScale(23'000);
    it = cache.emplace(count, SpikeEvents(internet, count, 9)).first;
  }
  return it->second;
}

void BM_StemmingLegacy(benchmark::State& state) {
  const auto& events = Workload(static_cast<std::size_t>(state.range(0)));
  std::size_t components = 0;
  for (auto _ : state) {
    const auto result = pre_arena::Stem(events.events());
    components = result.components.size();
    benchmark::DoNotOptimize(components);
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["components"] = static_cast<double>(components);
}
BENCHMARK(BM_StemmingLegacy)
    ->Unit(benchmark::kMillisecond)
    ->Arg(12'000)
    ->Arg(57'000)
    ->Arg(330'000);

void BM_StemmingArena(benchmark::State& state) {
  const auto& events = Workload(static_cast<std::size_t>(state.range(0)));
  std::size_t components = 0;
  for (auto _ : state) {
    const auto result = stemming::Stem(events.events());
    components = result.components.size();
    benchmark::DoNotOptimize(components);
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["components"] = static_cast<double>(components);
}
BENCHMARK(BM_StemmingArena)
    ->Unit(benchmark::kMillisecond)
    ->Arg(12'000)
    ->Arg(57'000)
    ->Arg(330'000);

// Both implementations must agree before their times are compared.
bool AgreementCheck() {
  const auto& events = Workload(12'000);
  const auto a = pre_arena::Stem(events.events());
  const auto b = stemming::Stem(events.events());
  if (a.components.size() != b.components.size() ||
      a.residual_events != b.residual_events) {
    return false;
  }
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    if (a.components[i].top_sequence != b.components[i].top_sequence ||
        a.components[i].count != b.components[i].count ||
        a.components[i].event_indices != b.components[i].event_indices) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace ranomaly::bench

int main(int argc, char** argv) {
  if (!ranomaly::bench::AgreementCheck()) {
    std::fprintf(stderr,
                 "FATAL: legacy and arena stemming disagree; benchmark "
                 "comparison would be meaningless\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
