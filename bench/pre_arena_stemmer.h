// The pre-arena Stem, frozen: per-event SymbolId vectors, node-based
// maps keyed by whole sub-sequences, and a full recount per iteration.
// tests/stemming_test.cc compares stemming::Stem against it (it is the
// oracle for any behavioural drift of the arena, incremental and
// parallel paths), and bench_stemming_opt times it as the baseline.
//
// Its symbol table is the unordered_map interner the pre-arena code
// used, so the bench measures the whole before-state (the current
// InternPool is open-addressed and would flatter it).  Ids are assigned
// in first-intern order, like stemming::SymbolTable, and Raw exposes the
// same tagged values, so results compare symbol for symbol.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stemming/stemming.h"

namespace ranomaly::pre_arena {

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
  std::uint64_t Raw(SymbolId id) const { return values_[id]; }
  std::size_t size() const { return values_.size(); }

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

inline bool CountsEqual(double a, double b) {
  return std::fabs(a - b) <= kCountEpsilon * std::max(1.0, std::max(a, b));
}

inline std::optional<std::pair<std::vector<SymbolId>, double>>
TopSubsequence(const std::vector<EncodedEvent>& events,
               const std::vector<bool>& active, double min_count) {
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

inline bool ContainsSubsequence(const std::vector<SymbolId>& seq,
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

inline StemmingResult Stem(std::span<const bgp::Event> events,
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

}  // namespace ranomaly::pre_arena
