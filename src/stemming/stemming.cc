#include "stemming/stemming.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ranomaly::stemming {
namespace {

// Tagged 64-bit encoding: kind in the top byte, payload below.  Prefixes
// pack (address << 8) | length into 40 bits.
constexpr std::uint64_t Tag(SymbolKind kind, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

inline std::uint64_t PrefixRaw(const bgp::Prefix& prefix) {
  return Tag(SymbolKind::kPrefix,
             (static_cast<std::uint64_t>(prefix.addr().value()) << 8) |
                 prefix.length());
}

}  // namespace

SymbolId SymbolTable::InternPeer(bgp::Ipv4Addr addr) {
  return pool_.Intern(Tag(SymbolKind::kPeer, addr.value()));
}
SymbolId SymbolTable::InternNexthop(bgp::Ipv4Addr addr) {
  return pool_.Intern(Tag(SymbolKind::kNexthop, addr.value()));
}
SymbolId SymbolTable::InternAs(bgp::AsNumber asn) {
  return pool_.Intern(Tag(SymbolKind::kAs, asn));
}
SymbolId SymbolTable::InternPrefix(const bgp::Prefix& prefix) {
  return pool_.Intern(PrefixRaw(prefix));
}

SymbolKind SymbolTable::KindOf(SymbolId id) const {
  return static_cast<SymbolKind>(pool_.Lookup(id) >> 56);
}

bgp::Ipv4Addr SymbolTable::AddrOf(SymbolId id) const {
  const SymbolKind kind = KindOf(id);
  if (kind != SymbolKind::kPeer && kind != SymbolKind::kNexthop) {
    throw std::logic_error("SymbolTable::AddrOf: not an address symbol");
  }
  return bgp::Ipv4Addr(
      static_cast<std::uint32_t>(pool_.Lookup(id) & 0xffffffffULL));
}

bgp::AsNumber SymbolTable::AsOf(SymbolId id) const {
  if (KindOf(id) != SymbolKind::kAs) {
    throw std::logic_error("SymbolTable::AsOf: not an AS symbol");
  }
  return static_cast<bgp::AsNumber>(pool_.Lookup(id) & 0xffffffffULL);
}

bgp::Prefix SymbolTable::PrefixOf(SymbolId id) const {
  if (KindOf(id) != SymbolKind::kPrefix) {
    throw std::logic_error("SymbolTable::PrefixOf: not a prefix symbol");
  }
  const std::uint64_t payload = pool_.Lookup(id) & 0xffffffffffULL;
  return bgp::Prefix(
      bgp::Ipv4Addr(static_cast<std::uint32_t>(payload >> 8)),
      static_cast<std::uint8_t>(payload & 0xff));
}

std::string SymbolTable::Name(SymbolId id) const {
  switch (KindOf(id)) {
    case SymbolKind::kPeer: return "peer " + AddrOf(id).ToString();
    case SymbolKind::kNexthop: return "nexthop " + AddrOf(id).ToString();
    case SymbolKind::kAs: return "AS" + std::to_string(AsOf(id));
    case SymbolKind::kPrefix: return PrefixOf(id).ToString();
  }
  return "?";
}

bool IsValidRawSymbol(std::uint64_t raw) {
  const std::uint64_t payload = raw & ((1ull << 56) - 1);
  switch (static_cast<SymbolKind>(raw >> 56)) {
    case SymbolKind::kPeer:
    case SymbolKind::kNexthop:
    case SymbolKind::kAs:
      return payload <= 0xffffffffULL;
    case SymbolKind::kPrefix:
      // (address << 8) | length in 40 bits, mask length <= 32.
      return payload <= 0xffffffffffULL && (payload & 0xff) <= 32;
  }
  return false;
}

void EncodeSequence(const bgp::Event& e, std::vector<std::uint64_t>& out) {
  out.clear();
  out.push_back(Tag(SymbolKind::kPeer, e.peer.value()));
  out.push_back(Tag(SymbolKind::kNexthop, e.attrs.nexthop.value()));
  bgp::AsNumber last_as = 0;
  bool have_last = false;
  for (const bgp::AsNumber asn : e.attrs.as_path.asns()) {
    if (have_last && asn == last_as) continue;
    out.push_back(Tag(SymbolKind::kAs, asn));
    last_as = asn;
    have_last = true;
  }
  out.push_back(PrefixRaw(e.prefix));
}

std::string StemmingResult::StemLabel(const Component& component) const {
  return symbols.Name(component.stem.first) + " - " +
         symbols.Name(component.stem.second);
}

std::string StemmingResult::SequenceLabel(const Component& component) const {
  std::string out;
  for (std::size_t i = 0; i < component.top_sequence.size(); ++i) {
    if (i != 0) out += " ";
    out += symbols.Name(component.top_sequence[i]);
  }
  return out;
}


namespace {

constexpr double kCountEpsilon = 1e-9;

bool CountsEqual(double a, double b) {
  return std::fabs(a - b) <= kCountEpsilon * std::max(1.0, std::max(a, b));
}

inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t PackPair(SymbolId a, SymbolId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// ---------------------------------------------------------------------------
// Flat sequence arena over *distinct* sequences.  BGP spike traffic is
// massively repetitive — the same (peer, nexthop, path, prefix) sequence
// recurs ~10x in Table-1-scale windows — and the algorithm never needs to
// tell duplicates apart: removal is prefix-granular, so events with
// identical sequences always share fate.  Each distinct sequence becomes
// one weighted "class" view; counting, posting lists, and component
// extraction all run over classes, and original event ids are recovered
// in a single ordered pass at the end.

struct EventView {
  std::uint32_t begin = 0;
  std::uint32_t length = 0;
  SymbolId prefix_symbol = 0;
  std::uint32_t hash = 0;     // SequenceHash of the class's raw sequence
  double weight = 0.0;        // summed over all events of the class
};

struct Arena {
  std::vector<SymbolId> symbols;
  std::vector<EventView> views;  // one per distinct sequence class
  // weight_fn value per class (the same for every event of a class);
  // empty when unweighted, where every event weighs 1.
  std::vector<double> unit_weights;
  // Bigram entry id of the adjacent pair starting at each arena position
  // (meaningful for the first length-1 positions of every class).  Kept
  // so counting and incremental subtraction are plain array arithmetic —
  // no hash lookups at all.
  std::vector<std::uint32_t> pair_entries;

  const SymbolId* Seq(std::size_t cls) const {
    return symbols.data() + views[cls].begin;
  }
  std::size_t Len(std::size_t cls) const { return views[cls].length; }
  double UnitWeight(std::size_t cls) const {
    return unit_weights.empty() ? 1.0 : unit_weights[cls];
  }
};

// Dispatches `chunks` chunks on the pool — or serially, in the same
// chunk order and with the same per-chunk partial association, when
// there is none — and returns the wall seconds spent.  Callers
// accumulate the return value into StemmingStats::parallel_seconds so
// the extract stage's parallel fraction can be reported.
double ParallelRegion(util::ThreadPool* pool, std::size_t chunks,
                      const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return 0.0;
  const util::StageTimer timer;
  if (pool != nullptr) {
    pool->ParallelFor(chunks, fn);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
  }
  return timer.Seconds();
}

constexpr std::uint32_t kNoIndex = 0xffffffffu;

// Sentinel of class_component: the class is in no component (yet).
constexpr std::uint32_t kNoComponent = 0xffffffffu;

// A 32-bit hash of the raw sequence [raw, raw + len).  The class lookup
// compares a class's symbols only when its hash matches: most classes
// sharing a prefix have the same length, and a compare reads each of
// them through the symbol table.
inline std::uint32_t SequenceHash(const std::uint64_t* raw, std::uint32_t len) {
  std::uint64_t h = len;
  for (std::uint32_t j = 0; j < len; ++j) {
    h = (h ^ raw[j]) * 0x9e3779b97f4a7c15ULL;
  }
  return static_cast<std::uint32_t>(h >> 32);
}

// True iff EncodeSequence(e) is the `len` raw values raw(0) .. raw(len-1),
// checked without building it.
template <typename RawAt>
bool SequenceMatches(const bgp::Event& e, std::uint32_t len,
                     const RawAt& raw) {
  if (len < 3 || raw(0) != Tag(SymbolKind::kPeer, e.peer.value()) ||
      raw(1) != Tag(SymbolKind::kNexthop, e.attrs.nexthop.value()) ||
      raw(len - 1) != PrefixRaw(e.prefix)) {
    return false;
  }
  std::uint32_t i = 2;
  bgp::AsNumber last_as = 0;
  bool have_last = false;
  for (const bgp::AsNumber asn : e.attrs.as_path.asns()) {
    if (have_last && asn == last_as) continue;
    if (i + 1 >= len || raw(i) != Tag(SymbolKind::kAs, asn)) return false;
    ++i;
    last_as = asn;
    have_last = true;
  }
  return i + 1 == len;
}

// ---------------------------------------------------------------------------
// Open-addressed hash map from packed 64-bit keys (bigrams) to a value.
// Linear probing, power-of-two capacity.  The empty sentinel is the pair
// (0xffffffff, 0xffffffff), unreachable while symbol ids stay dense.

template <typename Value>
class U64Map {
 public:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  Value& At(std::uint64_t key) {
    if (keys_.empty() || (size_ + 1) * 10 > keys_.size() * 7) {
      Rehash(keys_.empty() ? 16 : keys_.size() * 2);
    }
    std::size_t i = Mix64(key) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = Value{};
    ++size_;
    return values_[i];
  }

  Value* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = Mix64(key) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* Find(std::uint64_t key) const {
    return const_cast<U64Map*>(this)->Find(key);
  }

 private:
  void Rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(cap, kEmpty);
    values_.assign(cap, Value{});
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = Mix64(old_keys[i]) & mask_;
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Open-addressed k-gram table: maps length-k symbol spans to a count.
// Distinct keys are appended to a flat backing store (k symbols each), so
// lookups compare against contiguous memory and iteration is allocation-
// free.  Doubles as the survivor set during iterative lengthening.

class NgramTable {
 public:
  void Reset(std::size_t k) {
    k_ = k;
    keys_.clear();
    counts_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

  double& Count(const SymbolId* gram) {
    if (slots_.empty() || (counts_.size() + 1) * 10 > slots_.size() * 7) {
      Grow(slots_.empty() ? 32 : slots_.size() * 2);
    }
    std::size_t i = Hash(gram) & mask_;
    while (slots_[i] != 0) {
      const std::uint32_t e = slots_[i] - 1;
      if (std::equal(gram, gram + k_, keys_.data() + e * k_)) {
        return counts_[e];
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = static_cast<std::uint32_t>(counts_.size()) + 1;
    keys_.insert(keys_.end(), gram, gram + k_);
    counts_.push_back(0.0);
    return counts_.back();
  }

  const double* Find(const SymbolId* gram) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = Hash(gram) & mask_;
    while (slots_[i] != 0) {
      const std::uint32_t e = slots_[i] - 1;
      if (std::equal(gram, gram + k_, keys_.data() + e * k_)) {
        return &counts_[e];
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  // f(const SymbolId* gram, double count), in first-insertion order.
  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      f(keys_.data() + e * k_, counts_[e]);
    }
  }

  bool empty() const { return counts_.empty(); }

 private:
  std::uint64_t Hash(const SymbolId* gram) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ k_;
    for (std::size_t i = 0; i < k_; ++i) h = Mix64(h ^ gram[i]);
    return h;
  }

  void Grow(std::size_t cap) {
    slots_.assign(cap, 0u);
    mask_ = cap - 1;
    for (std::uint32_t e = 0; e < counts_.size(); ++e) {
      std::size_t i = Hash(keys_.data() + e * k_) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = e + 1;
    }
  }

  std::size_t k_ = 2;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<SymbolId> keys_;        // flat, k_ symbols per entry
  std::vector<double> counts_;
  std::size_t mask_ = 0;
};

// Adds `weight` to the count of every bigram position of class `cls`.
inline void AddClassCounts(const Arena& arena, std::uint32_t cls,
                           double weight, std::vector<double>& counts) {
  const EventView& view = arena.views[cls];
  for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
    counts[arena.pair_entries[view.begin + j]] += weight;
  }
}

// ---------------------------------------------------------------------------
// The window encoding (DESIGN.md "Sliding-window stemming").  Stem builds
// it from empty for one call; SlidingStemmer keeps it between calls.

// Posting lists: bigram -> classes containing it, and prefix symbol ->
// classes carrying it.  This is what lets component extraction touch
// candidates instead of scanning every active class.  A class joins the
// lists of its bigrams and the chain of its prefix when it is created
// and stays there while it is out of the window: dead classes are
// filtered through `active` at query time, like claimed ones, and
// compaction drops them.  Classes are appended in id order, so every
// list is ascending with a class's repeated bigram positions adjacent —
// the order TopSubsequence and ExtractComponents rely on.
//
// The bigram lists share one flat pool as chains of chunks, each chunk
// [next chunk, capacity, used, classes...]; a list's first chunk holds
// exactly the classes appended with it, and a full list grows by a chunk
// twice the size of its last (at most kMaxChunk), so nothing moves and
// no per-list allocation exists.  Compaction rewrites the pool with one
// exact chunk per list.
struct Postings {
  static constexpr std::uint32_t kMaxChunk = 1024;

  U64Map<std::uint32_t> bigram_index;  // packed pair -> entry id + 1
  std::vector<std::uint64_t> bigram_keys;
  std::vector<std::uint32_t> pool = {0};  // offset 0 is "no chunk"
  std::vector<std::uint32_t> head;        // per entry: first chunk
  std::vector<std::uint32_t> tail;        // per entry: last chunk
  // Prefix chains: the first and last class per prefix symbol, and per
  // class the next class with the same prefix.
  std::vector<std::uint32_t> prefix_head;
  std::vector<std::uint32_t> prefix_tail;
  std::vector<std::uint32_t> next_same_prefix;

  std::uint32_t EntryOf(SymbolId a, SymbolId b) const {
    const std::uint32_t* entry = bigram_index.Find(PackPair(a, b));
    return entry ? *entry - 1 : kNoIndex;
  }
  std::uint64_t Key(std::uint32_t entry) const { return bigram_keys[entry]; }
  // f(classes, count) for each chunk of the entry's list, in order.
  template <typename F>
  void ForEachRange(std::uint32_t entry, const F& f) const {
    for (std::uint32_t chunk = head[entry]; chunk != 0; chunk = pool[chunk]) {
      f(pool.data() + chunk + 3, pool[chunk + 2]);
    }
  }
  // f(class) for every class carrying `prefix`, ascending.
  template <typename F>
  void ForEachPrefixClass(SymbolId prefix, const F& f) const {
    for (std::uint32_t cls = prefix_head[prefix]; cls != kNoIndex;
         cls = next_same_prefix[cls]) {
      f(cls);
    }
  }

  std::uint32_t AddEntry(std::uint64_t key) {
    const auto entry = static_cast<std::uint32_t>(bigram_keys.size());
    bigram_keys.push_back(key);
    bigram_index.At(key) = entry + 1;
    head.push_back(0);
    tail.push_back(0);
    return entry;
  }

  // Appends `count` classes to the list of `entry`.
  void Append(std::uint32_t entry, const std::uint32_t* classes,
              std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t chunk = tail[entry];
      if (chunk == 0 || pool[chunk + 2] == pool[chunk + 1]) {
        const std::uint32_t capacity =
            chunk == 0 ? std::max<std::uint32_t>(2, count - i)
                       : std::min(kMaxChunk, 2 * pool[chunk + 1]);
        const auto fresh = static_cast<std::uint32_t>(pool.size());
        pool.resize(pool.size() + 3 + capacity);
        pool[fresh + 1] = capacity;
        (chunk == 0 ? head[entry] : pool[chunk]) = fresh;
        tail[entry] = chunk = fresh;
      }
      pool[chunk + 3 + pool[chunk + 2]++] = classes[i];
    }
  }

  // Appends class `cls` (the next class id) to the chain of `prefix`.
  void Chain(SymbolId prefix, std::uint32_t cls) {
    if (prefix_head.size() <= prefix) {
      prefix_head.resize(prefix + 1, kNoIndex);
      prefix_tail.resize(prefix + 1, kNoIndex);
    }
    next_same_prefix.push_back(kNoIndex);
    if (prefix_tail[prefix] == kNoIndex) {
      prefix_head[prefix] = cls;
    } else {
      next_same_prefix[prefix_tail[prefix]] = cls;
    }
    prefix_tail[prefix] = cls;
  }
};

// Everything keyed by class, symbol or bigram entry id: the part of the
// window state that compaction renumbers.  Between calls, a class's
// weight, `active` flag and bigram contributions reflect its
// multiplicity in the cached window.  The arena keeps no raw values:
// symbols.Raw recovers them.
struct WindowTables {
  SymbolTable symbols;
  Arena arena;                      // unweighted: views[c].weight == mult[c]
  std::vector<std::uint32_t> mult;  // events of the class in the window
  Postings postings;
  std::vector<double> counts;  // per entry: occurrences in the window
  std::vector<char> active;
  std::vector<std::uint32_t> class_component;
  std::size_t live_classes = 0;
  std::size_t dead_entries = 0;  // entries whose count is 0
  // A call's net change of multiplicity per class, and the classes it
  // changed (first change first); applied once per class by
  // ApplyChanges, so delta is all zero between calls.
  std::vector<std::int32_t> delta;
  std::vector<std::uint32_t> changed;
  // Per entry, AppendNew's list sizes, then offsets; zero between calls.
  std::vector<std::uint32_t> entry_fill;

  std::size_t classes() const { return arena.views.size(); }

  std::uint64_t RawAt(std::uint32_t cls, std::uint32_t j) const {
    return symbols.Raw(arena.symbols[arena.views[cls].begin + j]);
  }

  // True iff class `cls` is the sequence of `e`.
  bool Matches(const bgp::Event& e, std::uint32_t cls) const {
    return SequenceMatches(e, arena.views[cls].length,
                           [&](std::uint32_t j) { return RawAt(cls, j); });
  }

  // The class of raw sequence [raw, raw + len), or a new class with no
  // events.  Lookup walks the classes sharing the sequence's prefix; a
  // prefix never interned means a new class, whose symbols are then
  // interned in sequence order and whose bigrams get entry ids in that
  // order.  From an empty state, symbols, classes and entries are
  // therefore numbered in order of first occurrence.  The new class
  // joins its prefix chain here and its bigram lists in AppendNew.
  std::uint32_t FindOrAdd(const std::uint64_t* raw, std::uint32_t len) {
    const std::uint32_t hash = SequenceHash(raw, len);
    const SymbolId prefix = symbols.FindRaw(raw[len - 1]);
    if (prefix != SymbolTable::kNotFound &&
        prefix < postings.prefix_head.size()) {
      for (std::uint32_t cls = postings.prefix_head[prefix]; cls != kNoIndex;
           cls = postings.next_same_prefix[cls]) {
        const EventView& view = arena.views[cls];
        if (view.length != len || view.hash != hash) continue;
        std::uint32_t j = 0;
        while (j < len && raw[j] == RawAt(cls, j)) ++j;
        if (j == len) return cls;
      }
    }
    const auto cls = static_cast<std::uint32_t>(classes());
    EventView view;
    view.begin = static_cast<std::uint32_t>(arena.symbols.size());
    view.length = len;
    view.hash = hash;
    for (std::uint32_t j = 0; j < len; ++j) {
      arena.symbols.push_back(symbols.InternRaw(raw[j]));
    }
    const SymbolId* seq = arena.symbols.data() + view.begin;
    view.prefix_symbol = seq[len - 1];
    for (std::uint32_t j = 0; j + 1 < len; ++j) {
      const std::uint64_t key = PackPair(seq[j], seq[j + 1]);
      const std::uint32_t* found = postings.bigram_index.Find(key);
      std::uint32_t entry = found ? *found - 1 : kNoIndex;
      if (entry == kNoIndex) {
        entry = postings.AddEntry(key);
        counts.push_back(0.0);
        ++dead_entries;
      }
      arena.pair_entries.push_back(entry);
    }
    arena.pair_entries.push_back(0);  // class-final position: no pair
    postings.Chain(view.prefix_symbol, cls);
    arena.views.push_back(view);
    mult.push_back(0);
    active.push_back(0);
    class_component.push_back(kNoComponent);
    delta.push_back(0);
    return cls;
  }

  // Appends classes [first, classes()) — the call's new ones — to their
  // bigram lists, one Append per list, in class order.  A counting sort
  // over the entries they touch, so the cost follows their positions,
  // not the entry count; from an empty state every list gets one exact
  // chunk.
  void AppendNew(std::uint32_t first) {
    entry_fill.resize(counts.size(), 0);
    std::vector<std::uint32_t> touched;
    const auto for_each_pair = [&](const auto& f) {
      for (std::uint32_t cls = first; cls < classes(); ++cls) {
        const EventView& view = arena.views[cls];
        for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
          f(arena.pair_entries[view.begin + j], cls);
        }
      }
    };
    for_each_pair([&](std::uint32_t entry, std::uint32_t) {
      if (entry_fill[entry]++ == 0) touched.push_back(entry);
    });
    std::uint32_t total = 0;
    for (const std::uint32_t entry : touched) {
      const std::uint32_t size = entry_fill[entry];
      entry_fill[entry] = total;
      total += size;
    }
    std::vector<std::uint32_t> lists(total);
    for_each_pair([&](std::uint32_t entry, std::uint32_t cls) {
      lists[entry_fill[entry]++] = cls;
    });
    std::uint32_t begin = 0;
    for (const std::uint32_t entry : touched) {
      const std::uint32_t end = entry_fill[entry];
      postings.Append(entry, lists.data() + begin, end - begin);
      entry_fill[entry] = 0;
      begin = end;
    }
  }

  // Records `d` more events (negative: fewer) of class `cls`.
  void Change(std::uint32_t cls, std::int32_t d) {
    if (delta[cls] == 0) changed.push_back(cls);
    delta[cls] += d;
  }

  // Applies each changed class's net delta once: its multiplicity, its
  // bigram counts and the live/dead tallies compaction keys on.
  void ApplyChanges() {
    for (const std::uint32_t cls : changed) {
      if (delta[cls] != 0) AddEvents(cls, delta[cls]);
      delta[cls] = 0;
    }
    changed.clear();
  }

  // ApplyChanges for a call that started from an empty state: every class
  // is new, with a positive delta, so each becomes live and adds its
  // counts in one pass with no per-bigram test, and every entry is live.
  void ApplyFromEmpty() {
    for (std::uint32_t cls = 0; cls < classes(); ++cls) {
      mult[cls] = static_cast<std::uint32_t>(delta[cls]);
      delta[cls] = 0;
      active[cls] = 1;
      arena.views[cls].weight = static_cast<double>(mult[cls]);
      AddClassCounts(arena, cls, arena.views[cls].weight, counts);
    }
    changed.clear();
    live_classes = classes();
    dead_entries = 0;
  }

  void AddEvents(std::uint32_t cls, std::int64_t d) {
    const std::uint32_t before = mult[cls];
    const auto after = static_cast<std::uint32_t>(before + d);
    mult[cls] = after;
    EventView& view = arena.views[cls];
    view.weight = static_cast<double>(after);
    for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
      double& count = counts[arena.pair_entries[view.begin + j]];
      const bool was_dead = count == 0.0;
      count += static_cast<double>(d);
      if (was_dead != (count == 0.0)) {
        dead_entries = was_dead ? dead_entries - 1 : dead_entries + 1;
      }
    }
    if (before == 0 && after > 0) {
      ++live_classes;
      active[cls] = 1;
    } else if (before > 0 && after == 0) {
      --live_classes;
      active[cls] = 0;
    }
  }

  // ApplyChanges for weighted calls, which run on an emptied state (every
  // class new, changed in class order).  Every accumulation order is
  // fixed by the input alone: weight_fn — user code — is called once per
  // class, in class order; a class's weight is its unit weight added
  // once per event; the window total sums `window` in event order; and
  // counts sum classes in fixed partials of kCountPartial, added in
  // order.  Returns the window total.
  double ApplyWeighted(
      const std::function<double(const bgp::Prefix&)>& weight_fn,
      std::span<const std::uint32_t> window) {
    const std::size_t n_classes = classes();
    arena.unit_weights.resize(n_classes);
    for (std::size_t cls = 0; cls < n_classes; ++cls) {
      arena.unit_weights[cls] =
          weight_fn(symbols.PrefixOf(arena.views[cls].prefix_symbol));
    }
    for (std::size_t cls = 0; cls < n_classes; ++cls) {
      mult[cls] = static_cast<std::uint32_t>(delta[cls]);
      delta[cls] = 0;
      active[cls] = 1;
      double w = 0.0;
      for (std::uint32_t m = 0; m < mult[cls]; ++m) {
        w += arena.unit_weights[cls];
      }
      arena.views[cls].weight = w;
    }
    changed.clear();
    live_classes = n_classes;
    dead_entries = 0;
    double total = 0.0;
    for (const std::uint32_t cls : window) total += arena.unit_weights[cls];
    constexpr std::size_t kCountPartial = 16384;
    std::vector<double> partial;
    for (std::size_t begin = 0; begin < n_classes; begin += kCountPartial) {
      partial.assign(counts.size(), 0.0);
      const std::size_t end = std::min(n_classes, begin + kCountPartial);
      for (std::size_t cls = begin; cls < end; ++cls) {
        AddClassCounts(arena, static_cast<std::uint32_t>(cls),
                       arena.views[cls].weight, partial);
      }
      for (std::size_t e = 0; e < counts.size(); ++e) counts[e] += partial[e];
    }
    return total;
  }

  // Drops dead classes, entries and symbols.  Survivors keep their
  // relative order, so every posting list stays ascending.  Returns the
  // new id of every old class (kNoIndex for dropped ones).
  std::vector<std::uint32_t> Compact() {
    SymbolTable kept_symbols;
    std::vector<SymbolId> symbol_remap(symbols.size(), kNoIndex);
    std::vector<std::uint32_t> class_remap(classes(), kNoIndex);
    std::uint32_t live = 0;
    std::uint32_t pos = 0;
    for (std::uint32_t cls = 0; cls < classes(); ++cls) {
      if (mult[cls] == 0) continue;
      EventView view = arena.views[cls];
      for (std::uint32_t j = 0; j < view.length; ++j) {
        const SymbolId old_symbol = arena.symbols[view.begin + j];
        SymbolId& symbol = symbol_remap[old_symbol];
        if (symbol == kNoIndex) {
          symbol = kept_symbols.InternRaw(symbols.Raw(old_symbol));
        }
        arena.symbols[pos + j] = symbol;
        arena.pair_entries[pos + j] = arena.pair_entries[view.begin + j];
      }
      view.begin = pos;
      view.prefix_symbol = arena.symbols[pos + view.length - 1];
      pos += view.length;
      arena.views[live] = view;
      mult[live] = mult[cls];
      class_remap[cls] = live++;
    }
    arena.symbols.resize(pos);
    arena.pair_entries.resize(pos);
    arena.views.resize(live);
    mult.resize(live);
    active.assign(live, 1);
    class_component.assign(live, kNoComponent);
    delta.assign(live, 0);
    live_classes = live;
    symbols = std::move(kept_symbols);

    // An entry is live iff some live class holds it, i.e. its count is
    // nonzero.  Its key is re-packed from the new symbol ids and its
    // list rewritten as one chunk of its live classes.
    Postings kept;
    std::vector<std::uint32_t> entry_remap(counts.size(), kNoIndex);
    std::vector<std::uint32_t> list;
    std::uint32_t entries = 0;
    for (std::uint32_t e = 0; e < counts.size(); ++e) {
      if (counts[e] == 0.0) continue;
      const std::uint64_t key = postings.bigram_keys[e];
      entry_remap[e] = kept.AddEntry(
          PackPair(symbol_remap[key >> 32], symbol_remap[key & 0xffffffffu]));
      list.clear();
      postings.ForEachRange(e, [&](const std::uint32_t* data,
                                   std::uint32_t count) {
        for (std::uint32_t i = 0; i < count; ++i) {
          if (class_remap[data[i]] != kNoIndex) {
            list.push_back(class_remap[data[i]]);
          }
        }
      });
      kept.Append(entries, list.data(), static_cast<std::uint32_t>(list.size()));
      counts[entries++] = counts[e];
    }
    counts.resize(entries);
    entry_fill.resize(entries);
    dead_entries = 0;
    for (std::uint32_t cls = 0; cls < live; ++cls) {
      const EventView& view = arena.views[cls];
      for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
        std::uint32_t& entry = arena.pair_entries[view.begin + j];
        entry = entry_remap[entry];
      }
      kept.Chain(view.prefix_symbol, cls);
    }
    postings = std::move(kept);
    // Hand the memory of the dropped part back: the state then tracks
    // the live window instead of keeping its largest size.
    arena.symbols.shrink_to_fit();
    arena.pair_entries.shrink_to_fit();
    arena.views.shrink_to_fit();
    mult.shrink_to_fit();
    active.shrink_to_fit();
    class_component.shrink_to_fit();
    delta.shrink_to_fit();
    counts.shrink_to_fit();
    entry_fill.shrink_to_fit();
    return class_remap;
  }
};

constexpr std::uint64_t kUnranked = ~0ULL;

// The encoded window and the positions it was encoded from.
struct WindowState {
  WindowTables tables;
  // The window, by position: sequence class and event time.
  std::vector<std::uint32_t> pos_class;
  std::vector<util::SimTime> pos_time;
  std::size_t compactions = 0;

  // Per-symbol scratch of Pick and ChainPick: a generation stamp per
  // symbol marks the symbols in use without clearing per call.
  std::vector<std::uint32_t> symbol_stamp;
  std::uint32_t stamp = 0;
  std::vector<std::uint64_t> symbol_rank;  // Pick
  // ChainPick: the max-count bigram entry leaving and entering a symbol.
  std::vector<std::uint32_t> chain_out;
  std::vector<std::uint32_t> chain_in;

  // Starts a generation: a symbol's scratch is valid only while its
  // stamp is the current one.
  void NewStamp() {
    if (++stamp == 0) {
      std::fill(symbol_stamp.begin(), symbol_stamp.end(), 0u);
      stamp = 1;
    }
    symbol_stamp.resize(tables.symbols.size(), 0);
  }

  // The tie-break among equally long top sequences: the smallest under
  // the rank (first window position whose sequence holds the symbol,
  // offset of the symbol in that sequence), compared symbol by symbol.
  // That is the order of first occurrence over the window — the id
  // order of a state encoded from empty, and the order the pick must
  // keep once sliding has numbered symbols by arrival instead.  Ranks
  // are looked up only for the survivors' symbols, scanning the window
  // until all are found.
  std::vector<SymbolId> Pick(std::vector<std::vector<SymbolId>>& survivors) {
    if (survivors.size() == 1) return std::move(survivors.front());
    const Arena& arena = tables.arena;
    NewStamp();
    symbol_rank.resize(tables.symbols.size());
    std::size_t unranked = 0;
    for (const std::vector<SymbolId>& seq : survivors) {
      for (const SymbolId s : seq) {
        if (symbol_stamp[s] == stamp) continue;
        symbol_stamp[s] = stamp;
        symbol_rank[s] = kUnranked;
        ++unranked;
      }
    }
    for (std::size_t p = 0; unranked > 0 && p < pos_class.size(); ++p) {
      const SymbolId* seq = arena.Seq(pos_class[p]);
      for (std::uint32_t j = 0; j < arena.Len(pos_class[p]); ++j) {
        const SymbolId s = seq[j];
        if (symbol_stamp[s] == stamp && symbol_rank[s] == kUnranked) {
          symbol_rank[s] = (static_cast<std::uint64_t>(p) << 32) | j;
          --unranked;
        }
      }
    }
    const auto rank_less = [this](SymbolId a, SymbolId b) {
      return symbol_rank[a] < symbol_rank[b];
    };
    return *std::min_element(
        survivors.begin(), survivors.end(),
        [&](const std::vector<SymbolId>& a, const std::vector<SymbolId>& b) {
          return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                              b.end(), rank_less);
        });
  }
};

// The number of positions of `seq` where `sub` starts.
std::size_t Occurrences(const SymbolId* seq, std::size_t len,
                        const SymbolId* sub, std::size_t sub_len) {
  std::size_t n = 0;
  for (std::size_t j = 0; j + sub_len <= len; ++j) {
    n += std::equal(sub, sub + sub_len, seq + j);
  }
  return n;
}

// Posting lists concatenated into one virtual index space, so a scan
// shards evenly however many lists (or list pieces) there are.  Within a
// range, a class holding the bigram at several positions appears once
// per position, adjacently; Scan skips those repeats.
struct PostingRanges {
  std::vector<const std::uint32_t*> starts;  // one per range
  std::vector<std::uint32_t> bases;          // cumulative; back() = total

  void Clear() { starts.clear(); bases.assign(1, 0); }
  void Add(const std::uint32_t* data, std::uint32_t count) {
    starts.push_back(data);
    bases.push_back(bases.back() + count);
  }
  std::uint32_t size() const { return bases.back(); }

  // f(class) for the virtual indices [vb, ve).
  template <typename F>
  void Scan(std::size_t vb, std::size_t ve, const F& f) const {
    std::size_t r = static_cast<std::size_t>(
                        std::upper_bound(bases.begin(), bases.end(),
                                         static_cast<std::uint32_t>(vb)) -
                        bases.begin()) -
                    1;
    std::uint32_t last = kNoIndex;
    for (std::size_t v = vb; v < ve; ++v) {
      while (v >= bases[r + 1]) {
        ++r;
        last = kNoIndex;
      }
      const std::uint32_t id =
          starts[r][static_cast<std::uint32_t>(v) - bases[r]];
      if (id == last) continue;
      last = id;
      f(id);
    }
  }
};

// Reused allocations for the per-component search.  The chunk_* members
// hold per-chunk partials for the pool-dispatched extract passes:
// indexed by chunk, merged in chunk order, and reused across lengthening
// levels and components to avoid allocator churn.  (Per-chunk — never
// per-slot — because slot assignment is the one thing the pool does not
// keep deterministic.)
struct Scratch {
  std::vector<std::uint32_t> top_entries;  // max-count bigram entries
  NgramTable survivors;
  NgramTable extended;
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint64_t> candidate_bits;  // per class id; zeroed after use
  std::vector<char> entry_mark;  // bigram entries surviving at length 2
  std::vector<NgramTable> chunk_tables;
  std::vector<std::vector<std::uint32_t>> chunk_ids;
  std::vector<std::vector<SymbolId>> chunk_prefixes;
  std::vector<std::vector<double>> chunk_deltas;
  std::vector<double> chunk_max;
  PostingRanges ranges;
  std::vector<std::uint32_t> removed;       // classes of the current component
};

// The weighted occurrences of `chain` in the active classes, read off
// the posting list of its last bigram `last_entry`, each class once.
double ChainCount(const WindowTables& t, const std::vector<SymbolId>& chain,
                  std::uint32_t last_entry) {
  double count = 0.0;
  std::uint32_t previous = kNoIndex;
  t.postings.ForEachRange(last_entry, [&](const std::uint32_t* data,
                                          std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t id = data[i];
      if (id == previous) continue;  // a class's repeats are adjacent
      previous = id;
      if (!t.active[id]) continue;
      count += t.arena.views[id].weight *
               static_cast<double>(Occurrences(t.arena.Seq(id),
                                               t.arena.Len(id), chain.data(),
                                               chain.size()));
    }
  });
  return count;
}

// The top sequence read off the max-count bigrams B
// (scratch.top_entries) taken as edges between symbols, or nullopt when
// they leave it to lengthening (DESIGN.md "Top sequence from chains").
// A sequence at the maximum count has every bigram at it, so it is a
// walk over B.  When no symbol has two B edges out or two in and B has
// no cycle, B is a set of disjoint chains and every such walk lies
// inside one; then, if some longest chain is at the maximum count, the
// longest chains that are make up lengthening's last survivors, and
// Pick chooses among them as it would there.  Unit weights only: a
// chain's count is an integer sum, exact in any order.
std::optional<std::vector<SymbolId>> ChainPick(WindowState& st,
                                               double best_count,
                                               const Scratch& scratch) {
  const Postings& postings = st.tables.postings;
  const std::vector<std::uint32_t>& top = scratch.top_entries;
  const auto from = [&](std::uint32_t e) {
    return static_cast<SymbolId>(postings.Key(e) >> 32);
  };
  const auto to = [&](std::uint32_t e) {
    return static_cast<SymbolId>(postings.Key(e));
  };
  st.NewStamp();
  st.chain_out.resize(st.symbol_stamp.size());
  st.chain_in.resize(st.symbol_stamp.size());
  for (const std::uint32_t e : top) {
    for (const SymbolId s : {from(e), to(e)}) {
      if (st.symbol_stamp[s] == st.stamp) continue;
      st.symbol_stamp[s] = st.stamp;
      st.chain_out[s] = kNoIndex;
      st.chain_in[s] = kNoIndex;
    }
    if (st.chain_out[from(e)] != kNoIndex || st.chain_in[to(e)] != kNoIndex) {
      return std::nullopt;  // a branch
    }
    st.chain_out[from(e)] = e;
    st.chain_in[to(e)] = e;
  }

  // Every chain starts at a head: a symbol with an edge out and none in.
  // The edges of a cycle are reached from no head.
  const auto is_head = [&](std::uint32_t e) {
    return st.chain_in[from(e)] == kNoIndex;
  };
  // The number of edges of the chain starting with edge `e`, and its last.
  const auto walk = [&](std::uint32_t e) {
    std::size_t edges = 1;
    for (; st.chain_out[to(e)] != kNoIndex; ++edges) e = st.chain_out[to(e)];
    return std::make_pair(edges, e);
  };
  std::size_t walked = 0;
  std::size_t longest = 0;
  for (const std::uint32_t e : top) {
    if (!is_head(e)) continue;
    const std::size_t edges = walk(e).first;
    walked += edges;
    longest = std::max(longest, edges);
  }
  if (walked != top.size()) return std::nullopt;  // a cycle

  std::vector<std::vector<SymbolId>> passing;
  for (const std::uint32_t e : top) {
    if (!is_head(e)) continue;
    const auto [edges, last] = walk(e);
    if (edges != longest) continue;
    std::vector<SymbolId> chain = {from(e)};
    for (std::uint32_t f = e; f != kNoIndex; f = st.chain_out[to(f)]) {
      chain.push_back(to(f));
    }
    // A one-edge chain is a B entry, at the maximum count by definition.
    if (edges == 1 ||
        CountsEqual(ChainCount(st.tables, chain, last), best_count)) {
      passing.push_back(std::move(chain));
    }
  }
  if (passing.empty()) return std::nullopt;
  return st.Pick(passing);
}

// Finds the top-ranked sub-sequence (count desc, length desc, then the
// first in order of first occurrence, WindowState::Pick) over active
// classes, reading bigram counts from the persistent (incrementally
// maintained) table.  Returns nullopt if no bigram reaches min_count.
// With unit weights the max-count bigrams' chains usually decide the
// pick (ChainPick); iterative lengthening runs only when they do not,
// and for weighted options.  The scan and re-scoring passes are sharded
// on the pool with input-derived grains (options.scan_grain /
// candidate_grain); per-chunk partials merge in chunk order, so the
// pick — including the last bits of every weighted count — is unchanged
// by the thread count.  Candidate collection is one serial bitmap pass.
std::optional<std::pair<std::vector<SymbolId>, double>> TopSubsequence(
    WindowState& st, double min_count, Scratch& scratch,
    const StemmingOptions& options, StemmingStats& stats) {
  const Arena& arena = st.tables.arena;
  const std::vector<char>& active = st.tables.active;
  const Postings& postings = st.tables.postings;
  const std::vector<double>& bigram_counts = st.tables.counts;
  util::ThreadPool* pool = options.pool;
  const std::size_t scan_grain = std::max<std::size_t>(1, options.scan_grain);
  const std::size_t n_entries = bigram_counts.size();

  // The maximum over all length>=2 sub-sequences is attained by a bigram
  // (counts are antitone in extension); the persistent dense count array
  // already holds every active bigram count.  Max is order-independent,
  // so the per-chunk maxima merge exactly.
  const std::size_t scan_chunks =
      util::ThreadPool::ChunksFor(n_entries, scan_grain);
  scratch.chunk_max.assign(scan_chunks, 0.0);
  stats.parallel_seconds += ParallelRegion(
      pool, scan_chunks, [&](std::size_t c) {
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_entries, scan_grain, c);
        double m = 0.0;
        for (std::size_t e = begin; e < end; ++e) {
          m = std::max(m, bigram_counts[e]);
        }
        scratch.chunk_max[c] = m;
      });
  double best_count = 0.0;
  for (const double m : scratch.chunk_max) best_count = std::max(best_count, m);
  if (best_count < min_count || best_count <= kCountEpsilon) {
    return std::nullopt;
  }

  // Survivors at length 2, collected per chunk and merged in chunk (=
  // entry) order.
  if (scratch.chunk_ids.size() < scan_chunks) {
    scratch.chunk_ids.resize(scan_chunks);
  }
  stats.parallel_seconds += ParallelRegion(
      pool, scan_chunks, [&](std::size_t c) {
        std::vector<std::uint32_t>& ids = scratch.chunk_ids[c];
        ids.clear();
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_entries, scan_grain, c);
        for (std::size_t e = begin; e < end; ++e) {
          if (CountsEqual(bigram_counts[e], best_count)) {
            ids.push_back(static_cast<std::uint32_t>(e));
          }
        }
      });
  scratch.top_entries.clear();
  for (std::size_t c = 0; c < scan_chunks; ++c) {
    scratch.top_entries.insert(scratch.top_entries.end(),
                               scratch.chunk_ids[c].begin(),
                               scratch.chunk_ids[c].end());
  }
  if (!options.weight_fn) {
    if (auto chain = ChainPick(st, best_count, scratch)) {
      ++stats.chain_picks;
      return std::make_pair(std::move(*chain), best_count);
    }
  }
  ++stats.lengthened_picks;

  // `entry_mark` mirrors the survivor set by entry id so the first
  // lengthening level can test membership with an array load instead of
  // a hash probe per position.
  scratch.survivors.Reset(2);
  scratch.entry_mark.assign(n_entries, 0);
  for (const std::uint32_t e : scratch.top_entries) {
    const std::uint64_t key = postings.Key(e);
    const SymbolId pair[2] = {static_cast<SymbolId>(key >> 32),
                              static_cast<SymbolId>(key)};
    scratch.survivors.Count(pair) = bigram_counts[e];
    scratch.entry_mark[e] = 1;
  }

  // Iterative lengthening: a (k+1)-gram can keep the max count only if
  // its k-prefix does.  Count extensions of current survivors — over the
  // posting-list candidates only — until no survivor remains.
  std::vector<std::vector<SymbolId>> last_survivors;
  std::size_t k = 2;
  while (!scratch.survivors.empty()) {
    last_survivors.clear();
    scratch.survivors.ForEach([&](const SymbolId* gram, double) {
      last_survivors.emplace_back(gram, gram + k);
    });

    // Candidate classes: the active classes on the survivors' leading-
    // bigram postings.  Each sets one bit in a bitmap over class ids;
    // reading the touched words in order yields them ascending and once
    // each, whatever order the lists hold them in, and clears the bitmap
    // for the next level.  One serial pass: a hit is a load and an OR,
    // cheaper than the per-chunk lists and the sort that merging them
    // would need.
    const std::size_t words = (active.size() + 63) / 64;
    if (scratch.candidate_bits.size() < words) {
      scratch.candidate_bits.resize(words, 0);
    }
    std::size_t lo_word = words;
    std::size_t hi_word = 0;
    scratch.survivors.ForEach([&](const SymbolId* gram, double) {
      const std::uint32_t e = postings.EntryOf(gram[0], gram[1]);
      if (e == kNoIndex) return;
      postings.ForEachRange(e, [&](const std::uint32_t* data,
                                   std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint32_t id = data[i];
          if (!active[id]) continue;
          const std::size_t w = id >> 6;
          scratch.candidate_bits[w] |= std::uint64_t{1} << (id & 63);
          lo_word = std::min(lo_word, w);
          hi_word = std::max(hi_word, w + 1);
        }
      });
    });
    scratch.candidates.clear();
    for (std::size_t w = lo_word; w < hi_word; ++w) {
      std::uint64_t bits = scratch.candidate_bits[w];
      scratch.candidate_bits[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        scratch.candidates.push_back(
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }

    // Re-scoring: each chunk counts its candidate range into its own
    // k+1-gram table; tables merge in chunk order, so weighted counts
    // accumulate in the same association at any thread count.
    const std::size_t candidate_grain =
        std::max<std::size_t>(1, options.candidate_grain);
    const std::size_t score_chunks =
        util::ThreadPool::ChunksFor(scratch.candidates.size(),
                                    candidate_grain);
    if (scratch.chunk_tables.size() < score_chunks) {
      scratch.chunk_tables.resize(score_chunks);
    }
    stats.parallel_seconds += ParallelRegion(
        pool, score_chunks, [&](std::size_t c) {
          NgramTable& table = scratch.chunk_tables[c];
          table.Reset(k + 1);
          const auto [cb, ce] = util::ThreadPool::ChunkRange(
              scratch.candidates.size(), candidate_grain, c);
          if (k == 2) {
            // First level runs over every candidate position; membership
            // in the survivor set is a lookup on the recorded entry ids,
            // not a hash.
            for (std::size_t ci = cb; ci < ce; ++ci) {
              const std::uint32_t id = scratch.candidates[ci];
              const EventView& view = arena.views[id];
              if (view.length < 3) continue;
              const SymbolId* seq = arena.Seq(id);
              const double weight = view.weight;
              for (std::uint32_t j = 0; j + 2 < view.length; ++j) {
                if (scratch.entry_mark[arena.pair_entries[view.begin + j]]) {
                  table.Count(seq + j) += weight;
                }
              }
            }
          } else {
            for (std::size_t ci = cb; ci < ce; ++ci) {
              const std::uint32_t id = scratch.candidates[ci];
              const SymbolId* seq = arena.Seq(id);
              const std::size_t len = arena.Len(id);
              if (len < k + 1) continue;
              const double weight = arena.views[id].weight;
              for (std::size_t j = 0; j + k < len; ++j) {
                if (scratch.survivors.Find(seq + j) != nullptr) {
                  table.Count(seq + j) += weight;
                }
              }
            }
          }
        });
    scratch.extended.Reset(k + 1);
    for (std::size_t c = 0; c < score_chunks; ++c) {
      scratch.chunk_tables[c].ForEach([&](const SymbolId* gram, double count) {
        scratch.extended.Count(gram) += count;
      });
    }

    scratch.survivors.Reset(k + 1);
    scratch.extended.ForEach([&](const SymbolId* gram, double count) {
      if (CountsEqual(count, best_count)) {
        scratch.survivors.Count(gram) = count;
      }
    });
    ++k;
  }

  return std::make_pair(st.Pick(last_survivors), best_count);
}

// The recursion of Section III-B over an encoded window: pick the top
// sequence, collect P from the stem's postings and E from the prefix
// postings, deactivate E and subtract its bigram contributions, repeat.
// Each removed class is marked in `class_component` and, when
// `removed_log` is set, appended to it so the caller can undo the
// removals.  Returns the events left active, in original-event units;
// adds the parallel seconds and the picks to `stats`.
std::size_t ExtractComponents(WindowState& st, std::size_t active_count,
                              double total_weight,
                              const StemmingOptions& options,
                              Scratch& scratch,
                              std::vector<std::uint32_t>* removed_log,
                              std::vector<Component>& components,
                              StemmingStats& stats) {
  WindowTables& t = st.tables;
  const Arena& arena = t.arena;
  std::vector<double>& bigram_counts = t.counts;
  std::vector<char>& active = t.active;
  util::ThreadPool* pool = options.pool;
  const std::size_t scan_grain = std::max<std::size_t>(1, options.scan_grain);
  const std::size_t n_bigrams = bigram_counts.size();
  while (components.size() < options.max_components && active_count > 0) {
    const double min_count =
        std::max(options.min_count, options.min_count_fraction * total_weight);
    auto top = TopSubsequence(st, min_count, scratch, options, stats);
    if (!top) break;
    auto& [sequence, count] = *top;
    if (sequence.size() < options.min_subsequence_length) break;

    Component component;
    component.top_sequence = sequence;
    component.stem = {sequence[sequence.size() - 2], sequence.back()};
    component.count = count;

    // P: prefixes of active sequences containing s'.  Candidates come
    // from the stem pair's posting list (every sequence containing s'
    // contains its last bigram); only they are checked for containment.
    // The containment scan shards over the posting range; per-chunk hits
    // concatenate in chunk order and are then sorted and deduplicated —
    // the same set the serial scan collected.
    std::vector<SymbolId> prefix_symbols;
    const std::uint32_t stem_entry =
        t.postings.EntryOf(component.stem.first, component.stem.second);
    if (stem_entry != kNoIndex) {
      scratch.ranges.Clear();
      t.postings.ForEachRange(stem_entry, [&](const std::uint32_t* data,
                                              std::uint32_t n) {
        scratch.ranges.Add(data, n);
      });
      const std::size_t plen = scratch.ranges.size();
      const std::size_t pchunks =
          util::ThreadPool::ChunksFor(plen, scan_grain);
      if (scratch.chunk_prefixes.size() < pchunks) {
        scratch.chunk_prefixes.resize(pchunks);
      }
      stats.parallel_seconds += ParallelRegion(
          pool, pchunks, [&](std::size_t c) {
            std::vector<SymbolId>& out = scratch.chunk_prefixes[c];
            out.clear();
            const auto [begin, end] =
                util::ThreadPool::ChunkRange(plen, scan_grain, c);
            scratch.ranges.Scan(begin, end, [&](std::uint32_t cls) {
              if (!active[cls]) return;
              if (sequence.size() == 2 ||
                  Occurrences(arena.Seq(cls), arena.Len(cls),
                              sequence.data(), sequence.size()) != 0) {
                out.push_back(arena.views[cls].prefix_symbol);
              }
            });
          });
      for (std::size_t c = 0; c < pchunks; ++c) {
        prefix_symbols.insert(prefix_symbols.end(),
                              scratch.chunk_prefixes[c].begin(),
                              scratch.chunk_prefixes[c].end());
      }
    }
    std::sort(prefix_symbols.begin(), prefix_symbols.end());
    prefix_symbols.erase(
        std::unique(prefix_symbols.begin(), prefix_symbols.end()),
        prefix_symbols.end());

    // E: every active class whose prefix is in P, via the prefix posting
    // lists — proportional to the component, not the window.  The
    // deactivation sweep stays serial (it mutates shared flags).  Unit
    // weights make every count an integer, exact in any order, so the
    // removal subtracts in place: O(removed positions).  Weighted counts
    // shard the removed classes into input-derived chunks, each
    // accumulating a dense per-chunk delta that merges in chunk order —
    // so the persistent counts stay bit-identical at any thread count.
    const std::uint32_t comp_id =
        static_cast<std::uint32_t>(components.size());
    scratch.removed.clear();
    for (const SymbolId prefix_symbol : prefix_symbols) {
      t.postings.ForEachPrefixClass(prefix_symbol, [&](std::uint32_t cls) {
        if (!active[cls]) return;
        active[cls] = 0;
        t.class_component[cls] = comp_id;
        active_count -= t.mult[cls];
        scratch.removed.push_back(cls);
      });
    }
    if (removed_log != nullptr) {
      removed_log->insert(removed_log->end(), scratch.removed.begin(),
                          scratch.removed.end());
    }
    if (!options.weight_fn) {
      for (const std::uint32_t cls : scratch.removed) {
        AddClassCounts(arena, cls, -arena.views[cls].weight, bigram_counts);
      }
    } else {
      const std::size_t removal_grain =
          std::max<std::size_t>(1, options.removal_grain);
      const std::size_t rchunks =
          util::ThreadPool::ChunksFor(scratch.removed.size(), removal_grain);
      if (scratch.chunk_deltas.size() < rchunks) {
        scratch.chunk_deltas.resize(rchunks);
      }
      stats.parallel_seconds += ParallelRegion(
          pool, rchunks, [&](std::size_t c) {
            std::vector<double>& delta = scratch.chunk_deltas[c];
            delta.assign(n_bigrams, 0.0);
            const auto [begin, end] = util::ThreadPool::ChunkRange(
                scratch.removed.size(), removal_grain, c);
            for (std::size_t i = begin; i < end; ++i) {
              AddClassCounts(arena, scratch.removed[i],
                             arena.views[scratch.removed[i]].weight, delta);
            }
          });
      for (std::size_t c = 0; c < rchunks; ++c) {
        const std::vector<double>& delta = scratch.chunk_deltas[c];
        for (std::size_t e = 0; e < n_bigrams; ++e) {
          bigram_counts[e] -= delta[e];
        }
      }
    }

    component.prefixes.reserve(prefix_symbols.size());
    for (const SymbolId s : prefix_symbols) {
      component.prefixes.push_back(t.symbols.PrefixOf(s));
    }
    std::sort(component.prefixes.begin(), component.prefixes.end());

    components.push_back(std::move(component));
  }
  return active_count;
}

// Expands classes back to original events, in ascending event order —
// the same order (and the same floating-point accumulation sequence)
// in which a per-event recursion would have collected them.
void CollectEvents(const Arena& arena,
                   std::span<const std::uint32_t> event_class,
                   const std::vector<std::uint32_t>& class_component,
                   std::vector<Component>& components) {
  for (std::size_t ei = 0; ei < event_class.size(); ++ei) {
    const std::uint32_t comp_id = class_component[event_class[ei]];
    if (comp_id == kNoComponent) continue;
    Component& component = components[comp_id];
    component.event_indices.push_back(ei);
    component.event_weight += arena.UnitWeight(event_class[ei]);
  }
}

// Stems `events` on `st`: aligns them with the window `st` encodes,
// encodes what entered, and runs the recursion.  With `keep`, the state
// is left encoding `events` for the next call, and the result's symbol
// table holds only the components' symbols.  Without it the state is
// discarded after the call: the removals stay, and the whole symbol
// table moves into the result.  Weighted options need an empty state
// and no `keep`.
StemmingResult StemWindow(WindowState& st, std::span<const bgp::Event> events,
                          const StemmingOptions& options, bool keep) {
  StemmingResult result;
  const std::size_t n = events.size();
  result.total_events = n;
  result.total_weight = static_cast<double>(n);

  // ---- Encode: align with the cached window, then update the classes.
  //
  // The shared run starts at the first cached position holding events[0]
  // (same time, same sequence) and lasts while positions keep matching.
  // Matching compares each event's (peer, nexthop, collapsed AS path,
  // prefix) with the cached class, so a changed event is never served a
  // stale encoding; every cached position outside the run leaves the
  // window and every event after it is encoded.
  const util::StageTimer encode_timer;
  obs::TraceSpan encode_span("stemming.encode");
  encode_span.Annotate("events", static_cast<std::uint64_t>(n));
  const std::size_t m = st.pos_class.size();
  std::size_t shift = m;
  for (std::size_t p = 0; n > 0 && p < m; ++p) {
    if (st.pos_time[p] == events[0].time &&
        st.tables.Matches(events[0], st.pos_class[p])) {
      shift = p;
      break;
    }
  }
  std::size_t overlap = shift < m ? 1 : 0;
  while (shift + overlap < m && overlap < n &&
         st.pos_time[shift + overlap] == events[overlap].time &&
         st.tables.Matches(events[overlap], st.pos_class[shift + overlap])) {
    ++overlap;
  }
  if (overlap == 0) {
    st.tables = WindowTables{};
    st.pos_class.clear();
    st.pos_time.clear();
  } else {
    for (std::size_t p = 0; p < m; ++p) {
      if (p < shift || p >= shift + overlap) {
        st.tables.Change(st.pos_class[p], -1);
      }
    }
    st.pos_class.erase(st.pos_class.begin(), st.pos_class.begin() + shift);
    st.pos_class.resize(overlap);
    st.pos_time.erase(st.pos_time.begin(), st.pos_time.begin() + shift);
    st.pos_time.resize(overlap);
  }
  WindowTables& t = st.tables;
  const auto first_new = static_cast<std::uint32_t>(t.classes());
  const std::size_t symbols_before = t.symbols.size();
  const std::size_t arena_before = t.arena.symbols.size();
  std::vector<std::uint64_t> raw;
  for (std::size_t i = overlap; i < n; ++i) {
    if (i + 1 < n) {
      // The AS path lives behind a pointer per event; pull the next one
      // into cache while this one is being encoded.
      __builtin_prefetch(events[i + 1].attrs.as_path.asns().data());
    }
    EncodeSequence(events[i], raw);
    const std::uint32_t cls =
        t.FindOrAdd(raw.data(), static_cast<std::uint32_t>(raw.size()));
    t.Change(cls, 1);
    st.pos_class.push_back(cls);
    st.pos_time.push_back(events[i].time);
  }
  t.AppendNew(first_new);
  result.stats.events_encoded = n - overlap;
  result.stats.symbols_interned = t.symbols.size() - symbols_before;
  result.stats.arena_symbols = t.arena.symbols.size() - arena_before;
  result.stats.encode_seconds = encode_timer.Seconds();
  encode_span.Annotate("encoded",
                       static_cast<std::uint64_t>(result.stats.events_encoded));
  encode_span.End();

  // ---- Count: apply each changed class's net multiplicity change once
  // (from an empty state, the initial count); then reclaim dead classes
  // and entries once they are as many as the live ones.
  const util::StageTimer count_timer;
  obs::TraceSpan count_span("stemming.count");
  if (options.weight_fn) {
    result.total_weight = t.ApplyWeighted(options.weight_fn, st.pos_class);
  } else if (first_new == 0) {
    t.ApplyFromEmpty();
  } else {
    t.ApplyChanges();
  }
  const std::size_t dead_classes = t.classes() - t.live_classes;
  const std::size_t live_entries = t.counts.size() - t.dead_entries;
  if (keep && ((dead_classes > 0 && dead_classes >= t.live_classes) ||
               (t.dead_entries > 0 && t.dead_entries >= live_entries))) {
    const std::vector<std::uint32_t> remap = t.Compact();
    for (std::uint32_t& cls : st.pos_class) cls = remap[cls];
    st.pos_class.shrink_to_fit();
    st.pos_time.shrink_to_fit();
    ++st.compactions;
#ifdef __GLIBC__
    // Compaction has just freed up to half the state at once; hand it
    // to the OS so the resident size follows the live window, not the
    // largest one seen.
    malloc_trim(0);
#endif
  }
  result.stats.distinct_sequences = t.live_classes;
  result.stats.bigram_table_size = t.counts.size() - t.dead_entries;
  result.stats.count_seconds = count_timer.Seconds();
  count_span.Annotate("bigrams", static_cast<std::uint64_t>(t.counts.size()));
  count_span.End();

  // ---- Extract: the recursion, then (with `keep`) undo its removals —
  // O(removed positions), exact on integer counts.
  const util::StageTimer extract_timer;
  obs::TraceSpan extract_span("stemming.extract");
  Scratch scratch;
  std::vector<std::uint32_t> removed;
  result.residual_events =
      ExtractComponents(st, n, result.total_weight, options, scratch,
                        keep ? &removed : nullptr, result.components,
                        result.stats);
  CollectEvents(t.arena, st.pos_class, t.class_component, result.components);
  if (keep) {
    for (const std::uint32_t cls : removed) {
      t.active[cls] = 1;
      t.class_component[cls] = kNoComponent;
      AddClassCounts(t.arena, cls, t.arena.views[cls].weight, t.counts);
    }
    // The result names its components' symbols in a table of its own.
    for (Component& component : result.components) {
      for (SymbolId& s : component.top_sequence) {
        s = result.symbols.InternRaw(t.symbols.Raw(s));
      }
      const std::size_t len = component.top_sequence.size();
      component.stem = {component.top_sequence[len - 2],
                        component.top_sequence[len - 1]};
    }
  } else {
    result.symbols = std::move(t.symbols);
  }
  result.stats.components = result.components.size();
  result.stats.extract_seconds = extract_timer.Seconds();
  extract_span.Annotate("components",
                        static_cast<std::uint64_t>(result.components.size()));
  extract_span.Annotate("chain_picks",
                        static_cast<std::uint64_t>(result.stats.chain_picks));
  extract_span.Annotate(
      "lengthened_picks",
      static_cast<std::uint64_t>(result.stats.lengthened_picks));
  extract_span.End();

  RANOMALY_METRIC_COUNT("stemming_events_encoded_total",
                        result.stats.events_encoded);
  RANOMALY_METRIC_COUNT("stemming_distinct_sequences_total",
                        result.stats.distinct_sequences);
  RANOMALY_METRIC_COUNT("stemming_symbols_interned_total",
                        result.stats.symbols_interned);
  RANOMALY_METRIC_COUNT("stemming_arena_symbols_total",
                        result.stats.arena_symbols);
  RANOMALY_METRIC_COUNT("stemming_bigram_entries_total",
                        result.stats.bigram_table_size);
  RANOMALY_METRIC_COUNT("stemming_components_total", result.components.size());
  RANOMALY_METRIC_OBSERVE("stemming_components_per_window",
                          (std::vector<double>{0, 1, 2, 4, 8, 16}),
                          static_cast<double>(result.components.size()));
  RANOMALY_METRIC_OBSERVE("stemming_encode_seconds", obs::TimeBounds(),
                          result.stats.encode_seconds);
  RANOMALY_METRIC_OBSERVE("stemming_count_seconds", obs::TimeBounds(),
                          result.stats.count_seconds);
  RANOMALY_METRIC_OBSERVE("stemming_extract_seconds", obs::TimeBounds(),
                          result.stats.extract_seconds);
  if (result.stats.extract_seconds > 0.0) {
    RANOMALY_METRIC_SET(
        "stemming_extract_parallel_fraction",
        std::min(1.0, result.stats.parallel_seconds /
                     result.stats.extract_seconds));
  }
  return result;
}

}  // namespace

StemmingResult Stem(std::span<const bgp::Event> events,
                    const StemmingOptions& options) {
  WindowState state;
  return StemWindow(state, events, options, /*keep=*/false);
}

// ---------------------------------------------------------------------------
// Sliding-window stemming (DESIGN.md "Sliding-window stemming").

struct SlidingStemmer::State : WindowState {};

SlidingStemmer::SlidingStemmer() : state_(std::make_unique<State>()) {}
SlidingStemmer::~SlidingStemmer() = default;

SlidingStemmer::Footprint SlidingStemmer::footprint() const {
  const WindowTables& t = state_->tables;
  Footprint f;
  f.window_events = state_->pos_class.size();
  f.classes = t.classes();
  f.live_classes = t.live_classes;
  f.bigram_entries = t.counts.size();
  f.dead_entries = t.dead_entries;
  f.compactions = state_->compactions;
  return f;
}

StemmingResult SlidingStemmer::Stem(std::span<const bgp::Event> events,
                                    const StemmingOptions& options) {
  if (options.weight_fn) {
    // Weighted sums depend on accumulation order, which only an encoding
    // from empty fixes: the call is one-shot, and the next call starts
    // afresh.
    *state_ = State{};
    return stemming::Stem(events, options);
  }
  return StemWindow(*state_, events, options, /*keep=*/true);
}

}  // namespace ranomaly::stemming
