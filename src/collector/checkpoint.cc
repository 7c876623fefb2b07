#include "collector/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <istream>
#include <mutex>
#include <streambuf>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ranomaly::collector {
namespace {

constexpr char kMagic[4] = {'R', 'N', 'C', '1'};
constexpr std::uint32_t kVersion = 1;            // collector-only snapshot
constexpr std::uint32_t kVersionSections = 2;    // + named section table
// Refuse absurd declared sizes before allocating (a corrupt header must
// not turn into an OOM).
constexpr std::uint64_t kMaxPayload = 1ull << 32;
constexpr std::uint32_t kMaxSections = 256;

bool ValidSectionTag(std::string_view tag) {
  if (tag.size() != 4) return false;
  for (const char c : tag) {
    if (!std::isprint(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::mutex g_fault_mu;
CheckpointWriteFaultHook g_fault_hook;
bool g_fault_env_checked = false;

// Lazily installs the RANOMALY_CHAOS_CHECKPOINT env hook ("prob:seed"):
// each write fails with probability `prob`, alternating (seeded) between
// a short write and an open failure — the two torn-commit shapes the
// atomic-replace protocol must survive.
CheckpointWriteFaultHook CurrentFaultHook() {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  if (!g_fault_env_checked) {
    g_fault_env_checked = true;
    if (const char* spec = std::getenv("RANOMALY_CHAOS_CHECKPOINT");
        spec != nullptr && *spec != '\0') {
      double prob = 0.0;
      unsigned long long seed = 1;
      if (std::sscanf(spec, "%lf:%llu", &prob, &seed) >= 1 && prob > 0.0) {
        auto rng = std::make_shared<util::Rng>(seed);
        g_fault_hook = [rng, prob](std::size_t total) -> std::int64_t {
          if (!rng->NextBool(prob)) return -1;
          // Half the faults are ENOSPC-style (nothing lands), half are
          // torn short writes.
          return rng->NextBool(0.5)
                     ? 0
                     : static_cast<std::int64_t>(rng->NextBelow(total));
        };
      }
    }
  }
  return g_fault_hook;
}

}  // namespace

CheckpointWriteFaultHook SetCheckpointWriteFaultHook(
    CheckpointWriteFaultHook hook) {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  g_fault_env_checked = true;  // an explicit hook overrides the env spec
  CheckpointWriteFaultHook prev = std::move(g_fault_hook);
  g_fault_hook = std::move(hook);
  return prev;
}

const Checkpoint::Section* Checkpoint::FindSection(
    std::string_view tag) const {
  for (const Section& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

std::size_t Checkpoint::RouteCount() const {
  std::size_t n = 0;
  for (const PeerTable& table : peers) n += table.routes.size();
  return n;
}

Checkpoint SnapshotCollector(const Collector& collector, util::SimTime now,
                             std::uint64_t event_offset) {
  Checkpoint out;
  out.time = now;
  out.event_offset = event_offset;
  for (const bgp::Ipv4Addr peer : collector.Peers()) {  // already sorted
    Checkpoint::PeerTable table;
    table.peer = peer;
    table.stale = collector.IsPeerStale(peer);
    table.routes = collector.PeerRoutes(peer);
    // Deterministic row order: the same collector state always produces
    // byte-identical checkpoint files.
    std::sort(table.routes.begin(), table.routes.end(),
              [](const auto& a, const auto& b) {
                return a.first.addr().value() != b.first.addr().value()
                           ? a.first.addr().value() < b.first.addr().value()
                           : a.first.length() < b.first.length();
              });
    out.peers.push_back(std::move(table));
  }
  return out;
}

void RestoreCollector(const Checkpoint& checkpoint, Collector& collector) {
  RANOMALY_METRIC_COUNT("collector_routes_restored_total",
                        checkpoint.RouteCount());
  for (const Checkpoint::PeerTable& table : checkpoint.peers) {
    collector.RestoreRib(table.peer, table.routes);
    if (table.stale) {
      collector.OnMarker(checkpoint.time, table.peer,
                         bgp::EventType::kFeedGap);
    }
  }
}

namespace {

// Frames `checkpoint` for writing: returns the file's bytes in order, as
// views of the framing built into `framing` (header, envelope and peer
// tables, section frames, CRC trailer) and of each section body where it
// already lies in `checkpoint`, so no image of the file is assembled.
// The CRC accumulates over the payload pieces in file order.  Returns
// no pieces when the section table cannot be written (too many sections
// or an invalid tag).
std::vector<std::string_view> FrameCheckpoint(const Checkpoint& checkpoint,
                                              std::string& framing) {
  if (checkpoint.sections.size() > kMaxSections) return {};
  for (const Checkpoint::Section& section : checkpoint.sections) {
    if (!ValidSectionTag(section.tag)) return {};
  }
  std::size_t estimate = 64 + 12 * checkpoint.sections.size();
  for (const Checkpoint::PeerTable& table : checkpoint.peers) {
    estimate += 16 + table.routes.size() * 48;
  }
  framing.clear();
  framing.reserve(estimate);
  io::StringSink sink(framing);
  sink.write(kMagic, sizeof(kMagic));
  // Sectionless checkpoints stay version 1, so collector-only snapshots
  // keep the original format byte for byte.
  io::Put<std::uint32_t>(
      sink, checkpoint.sections.empty() ? kVersion : kVersionSections);
  io::Put<std::uint64_t>(sink, 0);  // payload size, patched below
  const std::size_t payload_begin = framing.size();

  io::Put<std::int64_t>(sink, checkpoint.time);
  io::Put<std::uint64_t>(sink, checkpoint.event_offset);
  io::Put<std::uint32_t>(sink,
                         static_cast<std::uint32_t>(checkpoint.peers.size()));
  for (const Checkpoint::PeerTable& table : checkpoint.peers) {
    io::Put<std::uint32_t>(sink, table.peer.value());
    io::Put<std::uint8_t>(sink, table.stale ? 1 : 0);
    io::Put<std::uint64_t>(sink, table.routes.size());
    for (const auto& [prefix, attrs] : table.routes) {
      io::Put<std::uint32_t>(sink, prefix.addr().value());
      io::Put<std::uint8_t>(sink, prefix.length());
      io::PutAttrs(sink, attrs);
    }
  }
  std::uint64_t payload_size = framing.size() - payload_begin;
  if (!checkpoint.sections.empty()) {
    io::Put<std::uint32_t>(
        sink, static_cast<std::uint32_t>(checkpoint.sections.size()));
    payload_size += 4;
    for (const Checkpoint::Section& section : checkpoint.sections) {
      sink.write(section.tag.data(), 4);
      io::Put<std::uint64_t>(sink, section.bytes.size());
      payload_size += 12 + section.bytes.size();
    }
  }
  io::Put<std::uint32_t>(sink, 0);  // CRC trailer, patched below
  const auto patch = [&framing](std::size_t at, std::uint64_t value,
                                std::size_t width) {  // little-endian
    for (std::size_t i = 0; i < width; ++i) {
      framing[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
  };
  patch(payload_begin - 8, payload_size, 8);

  // `framing` is complete, so views of it stay valid.  The section frames
  // sit contiguously between the head and the trailer; each body goes
  // out between its frame and the next.
  constexpr std::size_t kFrame = 12;
  const std::size_t trailer = framing.size() - 4;
  const std::size_t head_end = trailer - kFrame * checkpoint.sections.size();
  const std::string_view all(framing);
  std::vector<std::string_view> pieces;
  pieces.reserve(2 + 2 * checkpoint.sections.size());
  pieces.push_back(all.substr(0, head_end));
  for (std::size_t i = 0; i < checkpoint.sections.size(); ++i) {
    pieces.push_back(all.substr(head_end + kFrame * i, kFrame));
    pieces.push_back(checkpoint.sections[i].bytes);
  }
  util::Crc32Accumulator crc;
  crc.Update(framing.data() + payload_begin, head_end - payload_begin);
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    crc.Update(pieces[i].data(), pieces[i].size());
  }
  patch(trailer, crc.value(), 4);
  pieces.push_back(all.substr(trailer));
  return pieces;
}

// Read-only stream buffer over the CRC-checked payload: LoadCheckpoint
// parses it where it lies instead of copying it into an istringstream.
class PayloadBuf : public std::streambuf {
 public:
  explicit PayloadBuf(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

}  // namespace

bool SaveCheckpoint(const Checkpoint& checkpoint, std::ostream& os) {
  std::string framing;
  const std::vector<std::string_view> pieces =
      FrameCheckpoint(checkpoint, framing);
  if (pieces.empty()) return false;
  for (const std::string_view piece : pieces) {
    os.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
  return static_cast<bool>(os);
}

std::optional<Checkpoint> LoadCheckpoint(std::istream& is,
                                         LoadDiagnostics* diag) {
  io::Reader r(is);
  LoadDiagnostics local;
  LoadDiagnostics& d = diag ? *diag : local;
  d = LoadDiagnostics{};
  const auto fail = [&](LoadError error, std::uint64_t record) {
    d.error = error;
    d.byte_offset = r.offset();
    d.event_index = record;
    return std::nullopt;
  };

  char magic[4];
  if (!r.GetRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail(LoadError::kBadMagic, 0);
  }
  std::uint32_t version = 0;
  if (!r.Get(version)) return fail(LoadError::kTruncated, 0);
  if (version != kVersion && version != kVersionSections) {
    return fail(LoadError::kBadVersion, 0);
  }
  std::uint64_t payload_size = 0;
  if (!r.Get(payload_size)) return fail(LoadError::kTruncated, 0);
  if (payload_size > kMaxPayload) return fail(LoadError::kBadEnum, 0);

  std::string bytes(payload_size, '\0');
  if (payload_size > 0 && !r.GetRaw(bytes.data(), bytes.size())) {
    return fail(LoadError::kTruncated, 0);
  }
  std::uint32_t crc = 0;
  if (!r.Get(crc)) return fail(LoadError::kTruncated, 0);
  if (crc != util::Crc32(bytes.data(), bytes.size())) {
    return fail(LoadError::kBadChecksum, 0);
  }

  // The payload is CRC-clean; parse it.  Field errors past this point are
  // reported with offsets relative to the whole file.
  PayloadBuf payload_buf(bytes);
  std::istream payload(&payload_buf);
  io::Reader pr(payload);
  const std::uint64_t payload_base = 4 + 4 + 8;
  const auto pfail = [&](LoadError error, std::uint64_t record) {
    d.error = error;
    d.byte_offset = payload_base + pr.offset();
    d.event_index = record;
    return std::nullopt;
  };

  Checkpoint out;
  std::int64_t time = 0;
  std::uint32_t peer_count = 0;
  if (!pr.Get(time) || !pr.Get(out.event_offset) || !pr.Get(peer_count)) {
    return pfail(LoadError::kTruncated, 0);
  }
  out.time = time;
  std::uint64_t record = 0;
  for (std::uint32_t p = 0; p < peer_count; ++p) {
    Checkpoint::PeerTable table;
    std::uint32_t addr = 0;
    std::uint8_t stale = 0;
    std::uint64_t route_count = 0;
    if (!pr.Get(addr) || !pr.Get(stale) || !pr.Get(route_count)) {
      return pfail(LoadError::kTruncated, record);
    }
    if (stale > 1) return pfail(LoadError::kBadEnum, record);
    table.peer = bgp::Ipv4Addr(addr);
    table.stale = stale != 0;
    table.routes.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(route_count, 1024)));
    for (std::uint64_t k = 0; k < route_count; ++k, ++record) {
      std::uint32_t prefix_addr = 0;
      std::uint8_t prefix_len = 0;
      if (!pr.Get(prefix_addr) || !pr.Get(prefix_len)) {
        return pfail(LoadError::kTruncated, record);
      }
      if (prefix_len > 32) return pfail(LoadError::kBadEnum, record);
      bgp::PathAttributes attrs;
      if (const LoadError err = io::GetAttrs(pr, attrs);
          err != LoadError::kNone) {
        return pfail(err, record);
      }
      table.routes.emplace_back(
          bgp::Prefix(bgp::Ipv4Addr(prefix_addr), prefix_len),
          std::move(attrs));
    }
    out.peers.push_back(std::move(table));
  }
  if (version >= kVersionSections) {
    std::uint32_t section_count = 0;
    if (!pr.Get(section_count)) return pfail(LoadError::kTruncated, record);
    if (section_count > kMaxSections) return pfail(LoadError::kBadEnum, record);
    for (std::uint32_t s = 0; s < section_count; ++s) {
      Checkpoint::Section section;
      char tag[4];
      std::uint64_t size = 0;
      if (!pr.GetRaw(tag, sizeof(tag)) || !pr.Get(size)) {
        return pfail(LoadError::kTruncated, record);
      }
      section.tag.assign(tag, sizeof(tag));
      // A section cannot be larger than the payload it lives in; checking
      // against the actual payload size keeps a crafted length field from
      // turning into a huge allocation.
      if (!ValidSectionTag(section.tag) || size > bytes.size()) {
        return pfail(LoadError::kBadEnum, record);
      }
      section.bytes.resize(static_cast<std::size_t>(size));
      if (size > 0 && !pr.GetRaw(section.bytes.data(), section.bytes.size())) {
        return pfail(LoadError::kTruncated, record);
      }
      out.sections.push_back(std::move(section));
    }
  }
  if (payload.peek() != std::istream::traits_type::eof()) {
    return pfail(LoadError::kBadEnum, record);  // trailing payload bytes
  }
  return out;
}

namespace {

// write(2) loop tolerating short writes and EINTR.
bool WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// fsync the directory containing `path` so the rename itself is durable
// (without this, a power loss can forget the directory entry and leave a
// zero-length or missing "committed" checkpoint).
bool FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool WriteCheckpointFile(const Checkpoint& checkpoint,
                         const std::string& path) {
  obs::TraceSpan span("checkpoint.write");
  span.Annotate("routes", static_cast<std::uint64_t>(checkpoint.RouteCount()));
  std::string framing;
  const std::vector<std::string_view> pieces =
      FrameCheckpoint(checkpoint, framing);
  if (pieces.empty()) return false;
  std::size_t total = 0;
  for (const std::string_view piece : pieces) total += piece.size();

  const auto fail_write = [] {
    RANOMALY_METRIC_COUNT("checkpoint_write_failures_total", 1);
    return false;
  };
  const std::string tmp = path + ".tmp";
  // Chaos hook: simulate a disk-full / torn write by stopping after a
  // prefix of the bytes (anywhere, mid-piece included).  The commit
  // protocol below must turn any such fault into "previous checkpoint
  // survives", never a hybrid.
  std::size_t write_limit = total;
  bool faulted = false;
  if (const CheckpointWriteFaultHook hook = CurrentFaultHook(); hook) {
    if (const std::int64_t limit = hook(total); limit >= 0) {
      write_limit = std::min(static_cast<std::size_t>(limit), total);
      faulted = true;
      RANOMALY_METRIC_COUNT("checkpoint_write_faults_injected_total", 1);
    }
  }

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail_write();
  bool wrote = !faulted;
  for (const std::string_view piece : pieces) {
    const std::size_t n = std::min(piece.size(), write_limit);
    if (!WriteAll(fd, piece.data(), n)) {
      wrote = false;
      break;
    }
    write_limit -= n;
  }
  // A torn temp file must never be renamed into place: sync before
  // rename so the *contents* are durable before the commit point, and
  // give up (keeping the old checkpoint) on any failure.  fdatasync
  // flushes the data and the size metadata needed to read it back;
  // timestamp durability is not part of the contract, and skipping its
  // journal commit roughly halves the kernel-side cost per snapshot.
  const bool synced = wrote && ::fdatasync(fd) == 0;
  ::close(fd);
  if (!synced) {
    ::unlink(tmp.c_str());
    return fail_write();
  }
  RANOMALY_METRIC_COUNT("checkpoint_fsyncs_total", 1);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return fail_write();
  }
  // Make the rename durable too.
  if (!FsyncParentDir(path)) return fail_write();
  RANOMALY_METRIC_COUNT("checkpoint_fsyncs_total", 1);
  RANOMALY_METRIC_COUNT("checkpoint_bytes_written_total", total);
  RANOMALY_METRIC_COUNT("checkpoint_writes_total", 1);
  return true;
}

std::optional<Checkpoint> ReadCheckpointFile(const std::string& path,
                                             LoadDiagnostics* diag) {
  obs::TraceSpan span("checkpoint.read");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (diag) {
      *diag = LoadDiagnostics{};
      diag->error = LoadError::kTruncated;
    }
    RANOMALY_METRIC_COUNT("checkpoint_load_errors_total", 1);
    return std::nullopt;
  }
  auto checkpoint = LoadCheckpoint(is, diag);
  if (!checkpoint) {
    RANOMALY_METRIC_COUNT("checkpoint_load_errors_total", 1);
    if (diag) {
      RANOMALY_LOG(util::LogLevel::kWarn,
                   util::StrPrintf("checkpoint: refusing %s: %s", path.c_str(),
                                   diag->ToString().c_str()));
    }
    return checkpoint;
  }
  RANOMALY_METRIC_COUNT("checkpoint_loads_total", 1);
  span.Annotate("routes",
                static_cast<std::uint64_t>(checkpoint->RouteCount()));
  return checkpoint;
}

}  // namespace ranomaly::collector
