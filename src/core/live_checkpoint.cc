#include "core/live_checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>

#include "collector/binary_io.h"
#include "stemming/stemming.h"
#include "util/strings.h"

namespace ranomaly::core {
namespace {

namespace io = collector::io;

constexpr std::uint8_t kSectionLayoutVersion = 1;
// Operator strings (stem labels, summaries) are short; anything past
// this bound in a CRC-clean file is a crafted or corrupt section.
constexpr std::uint32_t kMaxString = 1 << 16;
constexpr std::uint64_t kMaxEntries = 1u << 24;

// ---------------------------------------------------------------------------
// The section codec.  Each section's layout is one function template
// below, run by a Writer to encode and by a Reader to decode, so the
// two directions cannot disagree.  Verbs name the wire type: U8 / U32 /
// U64 / I64 / F64 (IEEE-754 bits), Bool (u8 0|1), Addr (u32), Str (u32
// length + bytes).  Count32/Count64 carry a container's element count
// and Each runs the element layout once per element; Points is Each for
// time-series ring buckets.  Check states a decode-time validation; the
// Writer ignores it.

// A Writer sink that only counts, so a section can be sized before it
// is written.
struct ByteCounter {
  std::size_t size = 0;
  void write(const char*, std::streamsize n) {
    size += static_cast<std::size_t>(n);
  }
};

// A SERS point is {i64 t, f64 value, f64 min, f64 max}, little-endian:
// on a little-endian host, exactly a SeriesPoint's memory.
static_assert(sizeof(obs::SeriesPoint) == 32 &&
              offsetof(obs::SeriesPoint, t) == 0 &&
              offsetof(obs::SeriesPoint, value) == 8 &&
              offsetof(obs::SeriesPoint, min) == 16 &&
              offsetof(obs::SeriesPoint, max) == 24);
static_assert(std::is_trivially_copyable_v<obs::SeriesPoint> &&
              std::numeric_limits<double>::is_iec559);

// A ring's points oldest first, as contiguous runs: a decoded ring is
// one run, a live ring two once it has wrapped.
std::array<std::span<const obs::SeriesPoint>, 2> Segments(
    const std::vector<obs::SeriesPoint>& points) {
  return {std::span<const obs::SeriesPoint>(points), {}};
}
std::array<std::span<const obs::SeriesPoint>, 2> Segments(
    const obs::SeriesRing& ring) {
  return ring.segments();
}

// Sink is io::StringSink (encode) or ByteCounter (size the encode).
template <typename Sink>
class Writer {
 public:
  static constexpr bool kDecode = false;

  explicit Writer(Sink& sink) : sink_(sink) {}

  void Layout() { Put<std::uint8_t>(kSectionLayoutVersion); }
  template <typename T>
  void U8(const T& v) { Put<std::uint8_t>(v); }
  template <typename T>
  void U32(const T& v) { Put<std::uint32_t>(v); }
  template <typename T>
  void U64(const T& v) { Put<std::uint64_t>(v); }
  template <typename T>
  void I64(const T& v) { Put<std::int64_t>(v); }
  void F64(double v) { Put<std::uint64_t>(std::bit_cast<std::uint64_t>(v)); }
  void Bool(bool v) { Put<std::uint8_t>(v); }
  void Addr(bgp::Ipv4Addr a) { Put<std::uint32_t>(a.value()); }
  void Str(const std::string& s) {
    Put<std::uint32_t>(s.size());
    sink_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  template <typename V>
  std::size_t Count32(const V& v) {
    Put<std::uint32_t>(v.size());
    return v.size();
  }
  template <typename V>
  std::size_t Count64(const V& v) {
    Put<std::uint64_t>(v.size());
    return v.size();
  }
  template <typename V, typename Fn>
  void Each(const V& v, std::size_t, const char*, Fn&& fn) {
    for (std::size_t i = 0; i < v.size(); ++i) fn(v[i], i);
  }
  // Where a run's memory already is its wire bytes it goes out in one
  // write (and a ByteCounter sizes it arithmetically); elsewhere `fn`
  // writes each point's fields.
  template <typename Ring, typename Fn>
  void Points(const Ring& ring, std::size_t, Fn&& fn) {
    for (const std::span<const obs::SeriesPoint> run : Segments(ring)) {
      if constexpr (std::endian::native == std::endian::little) {
        sink_.write(reinterpret_cast<const char*>(run.data()),
                    static_cast<std::streamsize>(run.size_bytes()));
      } else {
        for (const obs::SeriesPoint& p : run) fn(p);
      }
    }
  }
  template <typename... Args>
  void Check(bool, const char*, Args...) {}

 private:
  template <typename W, typename T>
  void Put(T v) {
    io::Put<W>(sink_, static_cast<W>(v));
  }

  Sink& sink_;
};

// Decodes one section body.  The first failure wins: afterwards every
// read yields zero, every check passes and every Each stops, so a
// layout runs to its end without testing for errors.  Containers grow
// one element per element actually read, so a crafted count fails as
// truncated once the bytes run out instead of sizing an allocation.
class Reader {
 public:
  static constexpr bool kDecode = true;

  explicit Reader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  void Layout() {
    if (p_ == end_) return Fail("truncated layout version");
    const unsigned layout = Get<std::uint8_t>();
    Check(layout == kSectionLayoutVersion, "unsupported layout version %u",
          layout);
  }
  void End() { Check(p_ == end_, "trailing bytes"); }

  template <typename T>
  void U8(T& v) { v = static_cast<T>(Get<std::uint8_t>()); }
  template <typename T>
  void U32(T& v) { v = static_cast<T>(Get<std::uint32_t>()); }
  template <typename T>
  void U64(T& v) { v = static_cast<T>(Get<std::uint64_t>()); }
  template <typename T>
  void I64(T& v) { v = static_cast<T>(Get<std::int64_t>()); }
  void F64(double& v) { v = std::bit_cast<double>(Get<std::uint64_t>()); }
  void Bool(bool& v) {
    const std::uint8_t b = Get<std::uint8_t>();
    Check(b <= 1, "bad boolean");
    v = b != 0;
  }
  void Addr(bgp::Ipv4Addr& a) { a = bgp::Ipv4Addr(Get<std::uint32_t>()); }
  void Str(std::string& s) {
    const std::uint32_t size = Get<std::uint32_t>();
    if (size > kMaxString || size > Remaining()) return Truncated();
    s.assign(p_, size);
    p_ += size;
  }
  template <typename V>
  std::size_t Count32(V&) { return Get<std::uint32_t>(); }
  template <typename V>
  std::size_t Count64(V&) {
    return static_cast<std::size_t>(Get<std::uint64_t>());
  }
  // `label` (null: none) names the element in truncation errors:
  // "truncated at series 2 tier 0 point 7".
  template <typename V, typename Fn>
  void Each(V& v, std::size_t n, const char* label, Fn&& fn) {
    for (std::size_t i = 0; i < n && ok(); ++i) {
      at_.emplace_back(label, i);
      fn(v.emplace_back(), i);
      at_.pop_back();
    }
  }
  template <typename Fn>
  void Points(std::vector<obs::SeriesPoint>& ring, std::size_t n, Fn&& fn) {
    Each(ring, n, "point", [&](obs::SeriesPoint& p, std::size_t) { fn(p); });
  }
  template <typename... Args>
  void Check(bool cond, const char* fmt, Args... args) {
    if (cond || !ok()) return;
    if constexpr (sizeof...(Args) == 0) {
      Fail(fmt);
    } else {
      Fail(util::StrPrintf(fmt, args...));
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  std::size_t Remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

  template <typename T>
  T Get() {
    if (!ok()) return T{};
    if (Remaining() < sizeof(T)) {
      Truncated();
      return T{};
    }
    std::uint64_t u = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      u = (u << 8) | static_cast<unsigned char>(p_[i]);
    }
    p_ += sizeof(T);
    return static_cast<T>(u);
  }

  void Truncated() {
    std::string why = "truncated";
    const char* sep = " at ";
    for (const auto& [label, i] : at_) {
      if (label == nullptr) continue;
      why += util::StrPrintf("%s%s %zu", sep, label, i);
      sep = " ";
    }
    Fail(std::move(why));
  }

  void Fail(std::string why) {
    if (ok()) error_ = std::move(why);
  }

  const char* p_;
  const char* end_;
  std::vector<std::pair<const char*, std::size_t>> at_;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Section layouts.  S is LiveCheckpointState (decode) or its const
// (encode); the field order here is the file format (docs/FORMATS.md).

template <typename Io, typename S>
void Live(Io& io, S& s) {
  io.I64(s.t0);
  io.U64(s.next_event);
  io.U64(s.stats.ticks);
  io.U64(s.stats.events_ingested);
  io.U64(s.stats.incidents);
  io.U64(s.stats.incidents_within_slo);
  io.I64(s.stats.clock);
  io.U64(s.stats.events_shed);
  io.U64(s.stats.shed_transitions);
  io.U64(s.stats.checkpoint_writes);
  io.U64(s.stats.checkpoint_failures);
  io.Check(s.stats.clock >= s.t0, "clock precedes t0");
  io.Check(s.stats.incidents_within_slo <= s.stats.incidents,
           "incidents_within_slo exceeds incidents");
}

template <typename Io, typename S>
void Shed(Io& io, S& s) {
  io.U8(s.shed_level);
  io.Check(s.shed_level <= 3, "shed level %d out of range", s.shed_level);
  io.U64(s.calm_ticks);
  io.U64(s.arrival_index);
  io.Bool(s.tracer_suspended);
  io.Bool(s.tracer_was_enabled);
  const std::size_t n = io.Count32(s.shed_windows);
  io.Check(n <= kMaxEntries, "implausible shed window count");
  io.Each(s.shed_windows, n, "window", [&](auto& w, std::size_t i) {
    io.I64(w.begin);
    io.I64(w.end);
    io.Bool(w.closed);
    io.Check(w.end >= w.begin, "window %zu ends before begin", i);
  });
}

template <typename Io, typename S>
void Stem(Io& io, S& s) {
  const std::size_t n = io.Count64(s.seen_stems);
  io.Check(n <= kMaxEntries, "implausible stem count");
  io.Each(s.seen_stems, n, "stem", [&](auto& key, std::size_t i) {
    io.U64(key.first);
    io.U64(key.second);
    io.Check(stemming::IsValidRawSymbol(key.first) &&
                 stemming::IsValidRawSymbol(key.second),
             "invalid raw symbol at stem %zu", i);
    io.Check(i == 0 || s.seen_stems[i - 1] < key,
             "stems not strictly increasing at %zu", i);
  });
}

template <typename Io, typename S>
void Gaps(Io& io, S& s) {
  const std::size_t n = io.Count32(s.gaps);
  io.Check(n <= kMaxEntries, "implausible gap count");
  io.Each(s.gaps, n, "gap", [&](auto& g, std::size_t i) {
    io.Addr(g.peer);
    io.I64(g.begin);
    io.I64(g.end);
    io.Bool(g.closed);
    io.Check(g.end >= g.begin, "gap %zu ends before begin", i);
  });
}

template <typename Io, typename S>
void Peers(Io& io, S& s) {
  const std::size_t n = io.Count32(s.peers);
  io.Check(n <= kMaxEntries, "implausible peer count");
  io.Each(s.peers, n, "peer", [&](auto& p, std::size_t i) {
    io.Addr(p.row.peer);
    io.Bool(p.row.degraded);
    io.U64(p.row.announces);
    io.U64(p.row.withdraws);
    io.U64(p.row.reconnects);
    io.U64(p.row.gaps);
    io.U64(p.row.quarantined);
    io.I64(p.row.first_seen);
    io.I64(p.row.last_seen);
    io.I64(p.row.last_gap);
    io.I64(p.gap_open);
    io.F64(p.gap_sec);
    io.Check(std::isfinite(p.gap_sec) && p.gap_sec >= 0,
             "peer %zu gap_sec not finite", i);
    // A degraded row must carry its open-gap begin and vice versa.
    io.Check(p.row.degraded == (p.gap_open >= 0),
             "peer %zu degraded/gap_open mismatch", i);
  });
}

// Admission classes pack four to a byte, entry i in bits (i%4)*2..+1 of
// byte i/4; padding bits of a partial final byte are zero.
template <typename Io, typename S>
void Flow(Io& io, S& s) {
  io.U64(s.flow_start);
  const std::size_t n = io.Count64(s.flow);
  io.Check(n <= kMaxEntries, "implausible in-flight count");
  // The range must butt up against the LIVE cursor: every event before
  // flow_start is settled, every event from next_event on is unread.
  io.Check(s.flow_start <= s.next_event && s.next_event - s.flow_start == n,
           "range disagrees with the LIVE cursor");
  std::uint8_t packed = 0;
  if constexpr (Io::kDecode) {
    bool queue_seen = false;
    for (std::size_t i = 0; i < n && io.ok(); ++i) {
      if ((i & 3) == 0) io.U8(packed);
      const std::uint8_t cls = (packed >> ((i & 3) * 2)) & 3;
      io.Check(cls <= 2, "bad admission class at entry %zu", i);
      // Admission is FIFO: everything still in the window was consumed
      // before anything still queued, so classes never go 2 -> 1.
      queue_seen |= cls == 2;
      io.Check(cls != 1 || !queue_seen, "window entry %zu after a queue entry",
               i);
      s.flow.push_back(cls);
    }
    io.Check((n & 3) == 0 || (packed >> ((n & 3) * 2)) == 0,
             "nonzero padding bits");
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      packed |= static_cast<std::uint8_t>(s.flow[i] << ((i & 3) * 2));
      if ((i & 3) == 3 || i + 1 == n) {
        io.U8(packed);
        packed = 0;
      }
    }
  }
}

// INCD takes the log separately for the borrowing EncodeLiveState.
template <typename Io, typename V>
void Incidents(Io& io, V& incidents, util::SimTime clock) {
  const std::size_t n = io.Count64(incidents);
  io.Check(n <= kMaxEntries, "implausible incident count");
  io.Each(incidents, n, "entry", [&](auto& e, std::size_t i) {
    auto& inc = e.incident;
    io.U64(e.seq);
    io.Check(e.seq == i + 1, "non-contiguous seq at entry %zu", i);
    io.U8(inc.kind);
    io.Check(inc.kind <= IncidentKind::kUnknown,
             "bad incident kind at entry %zu", i);
    io.I64(inc.begin);
    io.I64(inc.end);
    io.U64(inc.event_count);
    io.F64(inc.event_fraction);
    io.U64(inc.prefix_count);
    io.U64(inc.stem_key.first);
    io.U64(inc.stem_key.second);
    io.Str(inc.stem_label);
    io.Str(inc.top_sequence);
    io.Str(inc.summary);
    io.Bool(inc.feed_degraded);
    io.Bool(inc.load_shed);
    io.I64(inc.ingest_tick);
    io.I64(inc.detected_at);
    io.F64(inc.detection_latency_sec);
    io.Check(inc.end >= inc.begin && inc.detected_at <= clock &&
                 std::isfinite(inc.detection_latency_sec) &&
                 inc.detection_latency_sec >= 0 &&
                 std::isfinite(inc.event_fraction),
             "implausible time fields at entry %zu", i);
    io.Check(stemming::IsValidRawSymbol(inc.stem_key.first) &&
                 stemming::IsValidRawSymbol(inc.stem_key.second),
             "invalid stem symbol at entry %zu", i);
  });
}

template <typename Io, typename S>
void SloHistogram(Io& io, S& s) {
  const std::size_t n = io.Count32(s.latency_counts);
  const std::size_t want = DetectionLatencyBounds().size() + 1;
  io.Check(n == want, "bucket count %zu != %zu", n, want);
  io.Each(s.latency_counts, n, nullptr,
          [&](auto& count, std::size_t) { io.U64(count); });
}

// P is TimeSeriesStore::Persisted (decode, or encode of a decoded
// state) or TimeSeriesStore::View (encode of the live rings).
template <typename Io, typename P>
void SeriesStore(Io& io, P& st) {
  const std::size_t tiers = io.Count32(st.tiers);
  io.Check(tiers <= 16, "implausible tier count");
  io.Each(st.tiers, tiers, "tier", [&](auto& tier, std::size_t) {
    io.I64(tier.resolution_us);
    io.U32(tier.capacity);
  });
  io.I64(st.last_sample);
  io.U64(st.dropped_series);
  const std::size_t n = io.Count32(st.series);
  io.Check(n <= kMaxEntries, "implausible series count");
  io.Each(st.series, n, "series", [&](auto& series, std::size_t i) {
    io.Str(series.name);
    io.U8(series.kind);
    io.Each(series.tiers, tiers, "tier", [&](auto& ring, std::size_t t) {
      const std::size_t points = io.Count32(ring);
      if constexpr (Io::kDecode) {
        io.Check(points <= st.tiers[t].capacity,
                 "series %zu tier %zu overfull", i, t);
      }
      io.Points(ring, points, [&](auto& p) {
        io.I64(p.t);
        io.F64(p.value);
        io.F64(p.min);
        io.F64(p.max);
      });
    });
  });
}

// The live store: the layout above over its rings, under its lock.  Each
// pass (sizing, then writing) takes the lock, so the bytes always show
// one state.  A sample landing between the passes would only leave the
// reservation short; the runner makes none, as it samples and encodes on
// one thread.
template <typename Io>
void SeriesStore(Io& io, const obs::TimeSeriesStore& store) {
  store.Read(
      [&](const obs::TimeSeriesStore::View& view) { SeriesStore(io, view); });
}

template <typename Io, typename P>
void Provenance(Io& io, P& st) {
  io.U32(st.caps.max_incidents);
  io.U32(st.caps.max_events);
  io.U32(st.caps.max_classes);
  io.U64(st.evicted);
  const std::size_t n = io.Count32(st.records);
  io.Check(n <= kMaxEntries, "implausible record count");
  io.Each(st.records, n, "record", [&](auto& r, std::size_t i) {
    io.U64(r.seq);
    io.U64(r.stem_first);
    io.U64(r.stem_second);
    io.Str(r.stem);
    io.Str(r.kind);
    const std::size_t hops = io.Count32(r.path);
    io.Check(hops <= 64, "record %zu: implausible path length", i);
    io.Each(r.path, hops, "path hop",
            [&](auto& hop, std::size_t) { io.Str(hop); });
    io.U64(r.window_events);
    io.U64(r.component_events);
    io.F64(r.component_weight);
    io.U64(r.events_total);
    const std::size_t events = io.Count32(r.events);
    io.Check(events <= obs::kMaxProvenanceEvents,
             "record %zu: implausible event count", i);
    io.Each(r.events, events, "event", [&](auto& e, std::size_t) {
      io.U64(e.stream_index);
      io.F64(e.time_sec);
      io.Str(e.type);
      io.Str(e.peer);
      io.Str(e.prefix);
      io.U8(e.admission);
    });
    io.U64(r.classes_total);
    const std::size_t classes = io.Count32(r.classes);
    io.Check(classes <= obs::kMaxProvenanceClasses,
             "record %zu: implausible class count", i);
    io.Each(r.classes, classes, "class", [&](auto& c, std::size_t) {
      io.U32(c.id);
      io.F64(c.weight);
      io.F64(c.score);
      io.Str(c.sequence);
    });
    const std::size_t stages = io.Count32(r.stages);
    io.Check(stages <= 16, "record %zu: implausible stage count", i);
    io.Each(r.stages, stages, "stage", [&](auto& stage, std::size_t) {
      io.Str(stage.stage);
      io.F64(stage.seconds);
    });
    io.U64(r.trace_tick);
  });
}

// Every live section in file order.  `run(tag, layout)` encodes or
// decodes one section; returning false stops the walk.  (Tags WIND and
// QUEU carried full in-flight event records in earlier builds; they are
// retired and must never be reused for new layouts.)
template <typename S, typename V, typename Series, typename Run>
bool ForEachSection(S& s, V& incidents, Series& series, Run&& run) {
  return run("LIVE", [&](auto& io) { Live(io, s); }) &&
         run("SHED", [&](auto& io) { Shed(io, s); }) &&
         run("STEM", [&](auto& io) { Stem(io, s); }) &&
         run("GAPS", [&](auto& io) { Gaps(io, s); }) &&
         run("PEER", [&](auto& io) { Peers(io, s); }) &&
         run("FLOW", [&](auto& io) { Flow(io, s); }) &&
         run("INCD",
             [&](auto& io) { Incidents(io, incidents, s.stats.clock); }) &&
         run("SLOH", [&](auto& io) { SloHistogram(io, s); }) &&
         run("SERS", [&](auto& io) { SeriesStore(io, series); }) &&
         run("PROV", [&](auto& io) { Provenance(io, s.provenance); });
}

// Recomputes the latency bucket counts implied by the incident log; the
// SLOH section must agree exactly (redundancy turns a selectively
// corrupted section into a loud restore failure).
std::vector<std::uint64_t> CountsFromIncidents(
    const std::vector<IncidentLog::Entry>& incidents) {
  const std::vector<double> bounds = DetectionLatencyBounds();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  for (const IncidentLog::Entry& e : incidents) {
    ++counts[DetectionLatencyBucket(bounds, e.incident.detection_latency_sec)];
  }
  return counts;
}

template <typename Series>
void Encode(const LiveCheckpointState& state,
            const std::vector<IncidentLog::Entry>& incidents,
            const Series& series, collector::Checkpoint& checkpoint) {
  checkpoint.time = state.stats.clock;
  checkpoint.event_offset = state.next_event;
  // Sections are encoded into the strings `checkpoint` already holds, in
  // file order, so a recycled snapshot's buffers take the next one
  // without a multi-MB allocation; surplus sections are dropped.
  std::size_t n = 0;
  ForEachSection(state, incidents, series, [&](const char* tag,
                                               const auto& layout) {
    if (n == checkpoint.sections.size()) checkpoint.sections.emplace_back();
    collector::Checkpoint::Section& section = checkpoint.sections[n++];
    section.tag = tag;
    // Size the section first and allocate at most once: growing a
    // multi-MB string by doubling costs more or less depending on the
    // allocator's history (e.g. whether this process restored a
    // checkpoint).
    ByteCounter counter;
    Writer<ByteCounter> sizer(counter);
    sizer.Layout();
    layout(sizer);
    section.bytes.clear();
    section.bytes.reserve(counter.size);
    io::StringSink sink(section.bytes);
    Writer<io::StringSink> writer(sink);
    writer.Layout();
    layout(writer);
    return true;
  });
  checkpoint.sections.resize(n);
}

}  // namespace

void EncodeLiveState(const LiveCheckpointState& state,
                     collector::Checkpoint& checkpoint) {
  Encode(state, state.incidents, state.series_store, checkpoint);
}

void EncodeLiveState(const LiveCheckpointState& state,
                     const std::vector<IncidentLog::Entry>& incidents,
                     collector::Checkpoint& checkpoint) {
  Encode(state, incidents, state.series_store, checkpoint);
}

void EncodeLiveState(const LiveCheckpointState& state,
                     const obs::TimeSeriesStore& series,
                     collector::Checkpoint& checkpoint) {
  Encode(state, state.incidents, series, checkpoint);
}

bool DecodeLiveState(const collector::Checkpoint& checkpoint,
                     LiveCheckpointState* state, std::string* error) {
  LiveCheckpointState out;
  const auto fail = [error](const char* tag, const std::string& why) {
    if (error != nullptr) {
      *error = util::StrPrintf("section %s: %s", tag, why.c_str());
    }
    return false;
  };

  // Every live section is required; a checkpoint missing one is either
  // collector-only (not a live checkpoint) or truncated by editing.
  const auto decode = [&](const char* tag, const auto& layout) {
    const collector::Checkpoint::Section* section = checkpoint.FindSection(tag);
    if (section == nullptr) return fail(tag, "missing");
    Reader reader(section->bytes);
    reader.Layout();
    layout(reader);
    reader.End();
    return reader.ok() || fail(tag, reader.error());
  };
  if (!ForEachSection(out, out.incidents, out.series_store, decode)) {
    return false;
  }

  // Cross-field and cross-section invariants.  The outer envelope
  // duplicates the cursor; disagreement means the sections do not belong
  // to this snapshot.
  if (checkpoint.time != out.stats.clock ||
      checkpoint.event_offset != out.next_event) {
    return fail("LIVE", "cursor disagrees with the checkpoint envelope");
  }
  // Structural invariants of the series store and the ledger live with
  // them, so the decoder and their Restore can never disagree.
  if (auto err = obs::TimeSeriesStore::Validate(out.series_store);
      !err.empty()) {
    return fail("SERS", err);
  }
  if (out.series_store.last_sample > out.stats.clock) {
    return fail("SERS", "last sample after the tick boundary");
  }
  if (auto err = obs::ProvenanceLedger::Validate(out.provenance);
      !err.empty()) {
    return fail("PROV", err);
  }
  if (out.incidents.size() != out.stats.incidents) {
    return fail("INCD", "entry count disagrees with LIVE stats");
  }
  if (CountsFromIncidents(out.incidents) != out.latency_counts) {
    return fail("SLOH", "bucket counts disagree with the incident log");
  }
  // Incident-id linkage: with a ledger attached (nonzero caps), every
  // incident was attached exactly once, so the retained records must be
  // exactly the newest min(incidents, max_incidents) seqs and each must
  // agree with its INCD entry's stem key.  A tampered PROV section that
  // still parses fails loudly here.
  if (out.provenance.caps.max_incidents > 0) {
    if (out.provenance.evicted + out.provenance.records.size() !=
        out.incidents.size()) {
      return fail("PROV", "record + evicted count disagrees with the "
                          "incident log");
    }
    for (const obs::IncidentProvenance& r : out.provenance.records) {
      // Contiguity from evicted + 1 was already validated, so seq is in
      // range here; check the cross-section identity.
      const Incident& inc = out.incidents[r.seq - 1].incident;
      if (r.stem_first != inc.stem_key.first ||
          r.stem_second != inc.stem_key.second) {
        return fail("PROV",
                    util::StrPrintf("record seq %llu stem key disagrees "
                                    "with INCD",
                                    static_cast<unsigned long long>(r.seq)));
      }
    }
  }
  // Derived stats fields the sections imply rather than store.
  out.stats.shed_level = out.shed_level;
  out.stats.queue_depth = static_cast<std::size_t>(
      std::count(out.flow.begin(), out.flow.end(), std::uint8_t{2}));
  out.stats.restored = true;
  *state = std::move(out);
  return true;
}

}  // namespace ranomaly::core
