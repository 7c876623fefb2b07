// The arena-stemmer benchmark trajectory: the pre-arena implementation
// (kept verbatim below as `legacy`) against the flat-arena, incremental,
// optionally sharded Stem, on the Table I Berkeley stemming workloads
// (12k / 57k / 330k events), plus the thread-count curve at 330k.
//
// tools/run_bench.py runs this binary and distils the stemming_opt row
// of BENCH_stemming.json (ns/op per size, serial vs parallel, speedup).
//
// Before benchmarking, main() asserts that legacy and optimized agree on
// the 12k workload — the timing comparison is only meaningful if both
// sides compute the same answer.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "table1_common.h"
#include "stemming/stemming.h"
#include "util/thread_pool.h"

namespace ranomaly::bench {
namespace legacy {

// ---- verbatim copy of the pre-arena Stem (the baseline under test) ----
//
// Includes its own unordered_map-backed symbol table mirroring the
// pre-change InternPool, so the baseline measures the full before-state
// (the current InternPool is open-addressed and would flatter it).

using stemming::Component;
using stemming::StemmingOptions;
using stemming::SymbolId;
using stemming::SymbolKind;

class SymbolTable {
 public:
  SymbolId InternPeer(bgp::Ipv4Addr addr) {
    return Intern(Tag(SymbolKind::kPeer, addr.value()));
  }
  SymbolId InternNexthop(bgp::Ipv4Addr addr) {
    return Intern(Tag(SymbolKind::kNexthop, addr.value()));
  }
  SymbolId InternAs(bgp::AsNumber asn) {
    return Intern(Tag(SymbolKind::kAs, asn));
  }
  SymbolId InternPrefix(const bgp::Prefix& prefix) {
    const std::uint64_t payload =
        (static_cast<std::uint64_t>(prefix.addr().value()) << 8) |
        prefix.length();
    return Intern(Tag(SymbolKind::kPrefix, payload));
  }
  bgp::Prefix PrefixOf(SymbolId id) const {
    const std::uint64_t payload = values_[id] & 0xffffffffffULL;
    return bgp::Prefix(bgp::Ipv4Addr(static_cast<std::uint32_t>(payload >> 8)),
                       static_cast<std::uint8_t>(payload & 0xff));
  }

 private:
  static constexpr std::uint64_t Tag(SymbolKind kind, std::uint64_t payload) {
    return (static_cast<std::uint64_t>(kind) << 56) | payload;
  }
  SymbolId Intern(std::uint64_t value) {
    auto [it, inserted] =
        index_.try_emplace(value, static_cast<SymbolId>(values_.size()));
    if (inserted) values_.push_back(value);
    return it->second;
  }
  std::unordered_map<std::uint64_t, SymbolId> index_;
  std::vector<std::uint64_t> values_;
};

struct StemmingResult {
  SymbolTable symbols;
  std::vector<Component> components;
  std::size_t total_events = 0;
  double total_weight = 0.0;
  std::size_t residual_events = 0;
};

struct EncodedEvent {
  std::vector<SymbolId> seq;
  SymbolId prefix_symbol = 0;
  double weight = 1.0;
};

struct PairHash {
  std::size_t operator()(const std::pair<SymbolId, SymbolId>& p) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(p.first) << 32) | p.second);
  }
};

struct VecHash {
  std::size_t operator()(const std::vector<SymbolId>& v) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const SymbolId s : v) {
      h ^= s;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

constexpr double kCountEpsilon = 1e-9;

bool CountsEqual(double a, double b) {
  return std::fabs(a - b) <= kCountEpsilon * std::max(1.0, std::max(a, b));
}

std::optional<std::pair<std::vector<SymbolId>, double>> TopSubsequence(
    const std::vector<EncodedEvent>& events, const std::vector<bool>& active,
    double min_count) {
  std::unordered_map<std::pair<SymbolId, SymbolId>, double, PairHash> bigrams;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!active[i]) continue;
    const auto& seq = events[i].seq;
    for (std::size_t j = 0; j + 1 < seq.size(); ++j) {
      bigrams[{seq[j], seq[j + 1]}] += events[i].weight;
    }
  }
  if (bigrams.empty()) return std::nullopt;

  double best_count = 0.0;
  for (const auto& [pair, count] : bigrams) {
    best_count = std::max(best_count, count);
  }
  if (best_count < min_count) return std::nullopt;

  std::unordered_set<std::vector<SymbolId>, VecHash> survivors;
  for (const auto& [pair, count] : bigrams) {
    if (CountsEqual(count, best_count)) {
      survivors.insert({pair.first, pair.second});
    }
  }

  std::unordered_set<std::vector<SymbolId>, VecHash> last_survivors =
      survivors;
  std::size_t k = 2;
  while (!survivors.empty()) {
    last_survivors = survivors;
    std::unordered_map<std::vector<SymbolId>, double, VecHash> extended;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!active[i]) continue;
      const auto& seq = events[i].seq;
      if (seq.size() < k + 1) continue;
      std::vector<SymbolId> window;
      for (std::size_t j = 0; j + k < seq.size(); ++j) {
        window.assign(seq.begin() + static_cast<std::ptrdiff_t>(j),
                      seq.begin() + static_cast<std::ptrdiff_t>(j + k));
        if (!survivors.contains(window)) continue;
        window.push_back(seq[j + k]);
        extended[window] += events[i].weight;
      }
    }
    survivors.clear();
    for (const auto& [vec, count] : extended) {
      if (CountsEqual(count, best_count)) survivors.insert(vec);
    }
    ++k;
  }

  std::vector<SymbolId> best = *std::min_element(
      last_survivors.begin(), last_survivors.end());
  return std::make_pair(std::move(best), best_count);
}

bool ContainsSubsequence(const std::vector<SymbolId>& seq,
                         const std::vector<SymbolId>& sub) {
  if (sub.size() > seq.size()) return false;
  for (std::size_t j = 0; j + sub.size() <= seq.size(); ++j) {
    if (std::equal(sub.begin(), sub.end(),
                   seq.begin() + static_cast<std::ptrdiff_t>(j))) {
      return true;
    }
  }
  return false;
}

StemmingResult Stem(std::span<const bgp::Event> events,
                    const StemmingOptions& options = {}) {
  StemmingResult result;
  result.total_events = events.size();

  std::vector<EncodedEvent> encoded;
  encoded.reserve(events.size());
  for (const bgp::Event& e : events) {
    EncodedEvent ee;
    ee.seq.reserve(e.attrs.as_path.Length() + 3);
    ee.seq.push_back(result.symbols.InternPeer(e.peer));
    ee.seq.push_back(result.symbols.InternNexthop(e.attrs.nexthop));
    bgp::AsNumber last_as = 0;
    bool have_last = false;
    for (const bgp::AsNumber asn : e.attrs.as_path.asns()) {
      if (have_last && asn == last_as) continue;
      ee.seq.push_back(result.symbols.InternAs(asn));
      last_as = asn;
      have_last = true;
    }
    ee.prefix_symbol = result.symbols.InternPrefix(e.prefix);
    ee.seq.push_back(ee.prefix_symbol);
    ee.weight = options.weight_fn ? options.weight_fn(e.prefix) : 1.0;
    result.total_weight += ee.weight;
    encoded.push_back(std::move(ee));
  }

  std::vector<bool> active(encoded.size(), true);
  std::size_t active_count = encoded.size();

  while (result.components.size() < options.max_components &&
         active_count > 0) {
    const double min_count =
        std::max(options.min_count,
                 options.min_count_fraction * result.total_weight);
    auto top = TopSubsequence(encoded, active, min_count);
    if (!top) break;
    auto& [sequence, count] = *top;
    if (sequence.size() < options.min_subsequence_length) break;

    Component component;
    component.top_sequence = sequence;
    component.stem = {sequence[sequence.size() - 2], sequence.back()};
    component.count = count;

    std::unordered_set<SymbolId> prefix_symbols;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (!active[i]) continue;
      if (ContainsSubsequence(encoded[i].seq, sequence)) {
        prefix_symbols.insert(encoded[i].prefix_symbol);
      }
    }
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (!active[i]) continue;
      if (prefix_symbols.contains(encoded[i].prefix_symbol)) {
        component.event_indices.push_back(i);
        component.event_weight += encoded[i].weight;
        active[i] = false;
        --active_count;
      }
    }
    component.prefixes.reserve(prefix_symbols.size());
    for (const SymbolId s : prefix_symbols) {
      component.prefixes.push_back(result.symbols.PrefixOf(s));
    }
    std::sort(component.prefixes.begin(), component.prefixes.end());

    result.components.push_back(std::move(component));
  }

  result.residual_events = active_count;
  return result;
}

}  // namespace legacy

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
    const auto result = legacy::Stem(events.events());
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

// Thread curve on the largest row.  The shard split is fixed by input
// size, so every point computes identical bytes; only wall time moves.
void BM_StemmingArenaThreads(benchmark::State& state) {
  const auto& events = Workload(330'000);
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(threads);
  stemming::StemmingOptions options;
  options.pool = threads > 1 ? &pool : nullptr;
  std::size_t components = 0;
  for (auto _ : state) {
    const auto result = stemming::Stem(events.events(), options);
    components = result.components.size();
    benchmark::DoNotOptimize(components);
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["components"] = static_cast<double>(components);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_StemmingArenaThreads)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// Both implementations must agree before their times are compared.
bool AgreementCheck() {
  const auto& events = Workload(12'000);
  const auto a = legacy::Stem(events.events());
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
