// Stemming — the paper's anomaly-detection algorithm (Section III-B).
//
// Each BGP event e (announce/withdraw from peer x, nexthop h, AS path
// a1..an, prefix p) becomes the sequence c = x h a1 ... an p.  The
// algorithm counts how many times every contiguous sub-sequence appears
// across the stream, ranks them by (count desc, length desc), and picks
// the top sequence s'.  The last pair of adjacent elements of s' is the
// *stem* — the problem location (Fig 4: 8 of 10 withdrawals share
// 11423-209, so the failure is on the 11423-209 edge).  The affected
// prefix set P is the prefixes of sequences containing s'; the component
// E is every event touching P.  Removing E and recursing decomposes the
// stream into its strongest correlated components.
//
// Implementation note: counts are antitone in sequence extension
// (count(s) <= count(any substring of s)), so the maximum count over
// length >= 2 sub-sequences is always attained by some bigram.  We count
// bigrams in one pass.  With unit weights, the max-count bigrams taken as
// edges between symbols usually form disjoint chains, and the top
// sequence is then the longest chain that keeps the maximum count
// (DESIGN.md "Top sequence from chains").  Only when they branch or
// cycle, when no longest chain keeps the count, or with weights, do we
// iteratively lengthen the sequences that retain the maximum count —
// exact either way, and linear-ish in the stream size instead of
// quadratic in path length.
//
// Counting backend (DESIGN.md "Arena counting backend"): each distinct
// event sequence is one class, a (offset, length) view into one flat
// SymbolId arena, weighted by its events; longer sub-sequence counts use
// open-addressed tables keyed by arena spans; bigram posting lists map
// each adjacent pair to the classes containing it, so component
// extraction visits candidates instead of the whole window; and the
// bigram count table is persistent across the recursion — removing a
// component *subtracts* its classes' contributions instead of
// recounting, making each iteration proportional to the removed
// component.  There is one encoding of a window, SlidingStemmer's: Stem
// builds it from empty for one call.  Encoding and the counts are
// serial; an optional ThreadPool runs the recursion's scans in chunks
// whose partials merge in chunk order, so results are bit-identical for
// any thread count.
//
// Temporal independence: the algorithm never looks at event ordering or
// inter-arrival times, so it works unchanged on a 10-minute spike window
// or a multi-day window where a single flapping prefix dominates.
//
// Weighted stemming (Section III-D.2 extension): an optional per-prefix
// weight (e.g. traffic volume) replaces the implicit weight of 1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/prefix.h"
#include "util/intern.h"

namespace ranomaly::util {
class ThreadPool;
}

namespace ranomaly::stemming {

enum class SymbolKind : std::uint8_t {
  kPeer = 1,
  kNexthop = 2,
  kAs = 3,
  kPrefix = 4,
};

using SymbolId = std::uint32_t;

// Interns the tagged elements of event sequences.
class SymbolTable {
 public:
  SymbolId InternPeer(bgp::Ipv4Addr addr);
  SymbolId InternNexthop(bgp::Ipv4Addr addr);
  SymbolId InternAs(bgp::AsNumber asn);
  SymbolId InternPrefix(const bgp::Prefix& prefix);

  SymbolKind KindOf(SymbolId id) const;
  // Decoders (throw std::out_of_range on bad id, logic_error on kind
  // mismatch).
  bgp::Ipv4Addr AddrOf(SymbolId id) const;
  bgp::AsNumber AsOf(SymbolId id) const;
  bgp::Prefix PrefixOf(SymbolId id) const;

  // Display name: "peer 128.32.1.3", "nexthop 128.32.0.66", "AS209",
  // "192.96.10.0/24".
  std::string Name(SymbolId id) const;

  // Raw tagged encoding (kind in the top byte, payload below).  Stable
  // across SymbolTables: two windows interning the same element yield
  // the same raw value, which makes it the cross-window identity of a
  // symbol (incident dedup keys on it).
  std::uint64_t Raw(SymbolId id) const { return pool_.Lookup(id); }

  // Interns an already-tagged raw value (the inverse of Raw).  The arena
  // encoder dedups sequences on raw values first and only interns the
  // symbols of novel sequences; callers must pass values produced by the
  // tagged encoding above.
  SymbolId InternRaw(std::uint64_t raw) { return pool_.Intern(raw); }

  // The id of an already-interned raw value, or kNotFound.
  static constexpr SymbolId kNotFound =
      util::InternPool<std::uint64_t>::kNotFound;
  SymbolId FindRaw(std::uint64_t raw) const { return pool_.Find(raw); }

  std::size_t size() const { return pool_.size(); }

 private:
  util::InternPool<std::uint64_t> pool_;
};

// State-export validation (live checkpointing, core/live_checkpoint.cc):
// true iff `raw` is a well-formed tagged symbol value — known kind byte
// and an in-range payload for that kind.  A persisted raw value must
// pass this before it may re-enter a dedup set or be re-interned;
// anything else means the checkpoint section is corrupt.
bool IsValidRawSymbol(std::uint64_t raw);

// The raw tagged sequence c = x h a1 .. an p of `e`: the Raw values of its
// symbols, in sequence order, with consecutive AS-path prepends collapsed
// (they carry no location information).  Events with equal encodings are
// one sequence class to the stemmer.
void EncodeSequence(const bgp::Event& e, std::vector<std::uint64_t>& out);

struct StemmingOptions {
  // Sub-sequences shorter than this are not rankable (a single element
  // has no "last adjacent pair").
  std::size_t min_subsequence_length = 2;
  // Stop after extracting this many components.
  std::size_t max_components = 8;
  // Stop when the top count falls below both of these.
  double min_count = 2.0;
  double min_count_fraction = 0.0;  // of the (weighted) event total
  // Optional per-prefix weight (traffic volume); default: every prefix
  // weighs 1 (the paper's base algorithm).
  std::function<double(const bgp::Prefix&)> weight_fn;
  // Optional pool for the extract stage's chunked passes (non-owning).
  // Every chunk split is fixed by the input size, never by the thread
  // count, so the result is bit-identical with any pool — or none.
  util::ThreadPool* pool = nullptr;
  // Parallel decomposition tuning (DESIGN.md "Parallel analysis
  // architecture").  Each grain is a pure function of the input and
  // these values — never the thread count — so chunk splits, and with
  // them every merged result, are unchanged by RANOMALY_THREADS.
  // Defaults suit Table-I-scale windows; tests shrink them to force
  // multi-chunk execution on small inputs.
  std::size_t scan_grain = 8192;       // entries/posting slots per scan chunk
  std::size_t candidate_grain = 2048;  // classes per re-scoring chunk
  std::size_t removal_grain = 2048;    // removed classes per subtract chunk
};

// Analysis-stage counters for one Stem call.  Stem also records them on
// the process metrics registry (stemming_* metrics, see
// docs/OBSERVABILITY.md), which is what `ranomaly stats --analyze` and
// `ranomaly metrics` report.
struct StemmingStats {
  std::size_t events_encoded = 0;
  std::size_t distinct_sequences = 0;  // weighted classes after dedup
  std::size_t symbols_interned = 0;
  std::size_t arena_symbols = 0;      // total SymbolIds in the arena
  std::size_t bigram_table_size = 0;  // distinct bigrams after encoding
  std::size_t components = 0;
  double encode_seconds = 0.0;   // arena encoding + posting lists
  double count_seconds = 0.0;    // initial bigram count
  double extract_seconds = 0.0;  // recursion: top-seq + component removal
  // Wall time spent inside pool-dispatched regions of the extract stage;
  // with extract_seconds it yields the stemming_extract_parallel_fraction
  // gauge that tells an operator how much of the recursion was
  // Amdahl-serial.
  double parallel_seconds = 0.0;
  // Top-sequence picks of the recursion: read off the max-count bigram
  // chains, or found by iterative lengthening (see the note above).
  std::size_t chain_picks = 0;
  std::size_t lengthened_picks = 0;
};

struct Component {
  std::vector<SymbolId> top_sequence;        // s'
  std::pair<SymbolId, SymbolId> stem{0, 0};  // last adjacent pair of s'
  double count = 0.0;                        // (weighted) occurrences of s'
  std::vector<bgp::Prefix> prefixes;         // P: affected prefixes
  std::vector<std::size_t> event_indices;    // E: indices into the input
  double event_weight = 0.0;                 // weighted size of E
};

struct StemmingResult {
  SymbolTable symbols;
  std::vector<Component> components;
  std::size_t total_events = 0;
  double total_weight = 0.0;
  std::size_t residual_events = 0;  // events not claimed by any component
  StemmingStats stats;

  // "11423-209" style label of a component's stem.
  std::string StemLabel(const Component& component) const;
  std::string SequenceLabel(const Component& component) const;
};

// Stems one window on its own: one SlidingStemmer call on an empty state
// that is discarded afterwards.  The result's SymbolTable holds every
// symbol of the window, numbered in order of first occurrence (classes
// in order of their first event, positions in sequence order).
StemmingResult Stem(std::span<const bgp::Event> events,
                    const StemmingOptions& options = {});

// Stems the successive windows of a sliding analysis window (DESIGN.md
// "Sliding-window stemming").  The stemmer keeps the previous window's
// per-position sequence classes and a persistent encoding of the
// window: classes with their multiplicities, symbols, bigram entries
// and counts, postings.  Each call verifies the events it shares with
// the previous window against the cached classes, drops the events that
// left, encodes only the events that entered, and runs the recursion on
// that state.  A window sharing no event with the previous one is
// encoded into an emptied state, as Stem encodes every window.
//
// The result equals Stem(events, options) in everything Pipeline reads:
// components in order with their stems and top sequences (as raw
// symbols), counts, prefixes, event indices and weights, and the
// residual.  Its SymbolTable holds only the components' symbols, so
// component SymbolIds index that table, not first-occurrence ids.
// Weighted options run as Stem does, on an emptied state, and leave it
// empty: the next call starts afresh.  In the stats (and the stemming_*
// metrics), events_encoded, symbols_interned and arena_symbols count the
// call's work — the events that entered, the symbols and positions
// added — while distinct_sequences and bigram_table_size describe the
// window as Stem's do.  Not thread-safe.
class SlidingStemmer {
 public:
  SlidingStemmer();
  ~SlidingStemmer();
  SlidingStemmer(const SlidingStemmer&) = delete;
  SlidingStemmer& operator=(const SlidingStemmer&) = delete;

  StemmingResult Stem(std::span<const bgp::Event> events,
                      const StemmingOptions& options = {});

  // Size of the persistent state after the last call.
  struct Footprint {
    std::size_t window_events = 0;  // cached positions
    std::size_t classes = 0;        // live and dead
    std::size_t live_classes = 0;   // multiplicity > 0
    std::size_t bigram_entries = 0;  // live and dead
    std::size_t dead_entries = 0;    // count 0: in no live class
    std::size_t compactions = 0;     // since construction
  };
  Footprint footprint() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ranomaly::stemming
