// Checkpoint/restore for the collector: periodic binary snapshots of the
// per-peer Adj-RIB-In plus the event-stream offset, so a restarted
// collector resumes with a warm RIB instead of a cold table transfer.
//
// File layout (versioned "RNC1" section, all integers little-endian):
//
//   file     := "RNC1" | u32 version(=1|2) | u64 payload_size | payload
//             | u32 crc32(payload)
//   payload  := i64 checkpoint_time_us | u64 event_offset
//             | u32 peer_count | peer...
//             | [v2 only: u32 section_count | section...]
//   peer     := u32 addr | u8 stale | u64 route_count | route...
//   route    := u32 prefix_addr | u8 prefix_len | <attribute block>
//   section  := char[4] tag | u64 byte_count | bytes
//
// Version 1 is the collector-only snapshot; version 2 appends a table of
// named sections carrying opaque subsystem state (the live analysis tier
// persists its pipeline state there, core/live_checkpoint.h).  A
// checkpoint without sections is still written as version 1, so
// collector-only snapshots remain byte-identical to the PR 1 format.
// Section tags are four printable ASCII bytes; readers must reject
// unknown *versions* but preserve unknown *sections* (forward-compatible
// sidecars).  docs/FORMATS.md states the version-bump rules.
//
// The attribute block is the RNE1 per-event attribute layout
// (binary_io.h io::PutAttrs/GetAttrs), so both formats evolve together.
// The CRC covers the payload only: a torn write or bit flip fails the
// restore loudly instead of resuming from a silently corrupt RIB.
//
// Writing never assembles the file in memory.  One framing routine
// builds only the header, peer tables, section frames and CRC trailer,
// accumulating the CRC over those and over each section body where it
// already lies in the Checkpoint; SaveCheckpoint streams the pieces to
// its ostream and WriteCheckpointFile writes them in order.  A section
// body therefore exists once, however large.  WriteCheckpointFile
// replaces the target atomically and durably (write to a temporary
// sibling, fsync the file, rename, fsync the directory) so a crash or
// power loss mid-checkpoint always leaves either the old or the new
// snapshot on disk, never a hybrid or a zero-length commit.  Loading
// reads the payload once, checks its CRC and parses it in place.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collector/binary_io.h"
#include "collector/collector.h"

namespace ranomaly::collector {

struct Checkpoint {
  util::SimTime time = 0;          // when the snapshot was taken
  // How many events of the persisted stream precede this snapshot: a
  // restarted collector replays the stream file from this offset.
  std::uint64_t event_offset = 0;

  struct PeerTable {
    bgp::Ipv4Addr peer;
    bool stale = false;  // gap was open when the snapshot was taken
    std::vector<std::pair<bgp::Prefix, bgp::PathAttributes>> routes;
  };
  std::vector<PeerTable> peers;  // sorted by peer address

  // Named opaque state blobs (version 2).  The checkpoint layer frames
  // and CRC-protects them; their contents belong to the owning subsystem
  // (which must validate on decode — never a silent partial restore).
  struct Section {
    std::string tag;    // exactly 4 printable ASCII bytes, e.g. "LIVE"
    std::string bytes;  // opaque payload
  };
  std::vector<Section> sections;

  // Returns the section with `tag`, or nullptr.
  const Section* FindSection(std::string_view tag) const;

  std::size_t RouteCount() const;
};

// Captures the collector's current per-peer tables and staleness.
Checkpoint SnapshotCollector(const Collector& collector, util::SimTime now,
                             std::uint64_t event_offset);

// Warm-starts `collector` from the snapshot (no events are emitted; a
// restore is a resumption, not routing activity).  Peers that were stale
// at snapshot time are re-marked stale via a kFeedGap marker so the
// degradation survives the restart honestly.
void RestoreCollector(const Checkpoint& checkpoint, Collector& collector);

// Stream serialization; Save returns false on I/O failure, Load reports
// nullopt (with diagnostics if `diag` is non-null) on any validation
// failure: bad magic, unsupported version, truncation, CRC mismatch,
// impossible field values.
bool SaveCheckpoint(const Checkpoint& checkpoint, std::ostream& os);
std::optional<Checkpoint> LoadCheckpoint(std::istream& is,
                                         LoadDiagnostics* diag = nullptr);

// Atomic durable file variants: Write streams the file to "<path>.tmp",
// fdatasyncs it, renames over `path`, and fsyncs the containing
// directory; a failure at any step leaves the previous checkpoint intact
// and returns false.  `checkpoint` is only read, so a caller may encode
// its next snapshot into the same object and reuse its buffers.
bool WriteCheckpointFile(const Checkpoint& checkpoint,
                         const std::string& path);
std::optional<Checkpoint> ReadCheckpointFile(const std::string& path,
                                             LoadDiagnostics* diag = nullptr);

// Fault injection for checkpoint writes (chaos harness / tests).  The
// hook is called once per write with the file's full size and returns
// how many bytes to actually write before simulating an I/O failure
// (< size, anywhere in the file), or -1 to let the write proceed.  A
// short write fails the commit: the temp file is removed and the
// previous checkpoint survives.  Returns the previous hook; pass nullptr
// to clear.  The RANOMALY_CHAOS_CHECKPOINT environment variable
// ("<fail_probability>:<seed>") installs a seeded hook on first use, so
// the chaos harness can inject short-write / disk-full faults into an
// unmodified binary.
using CheckpointWriteFaultHook =
    std::function<std::int64_t(std::size_t total_bytes)>;
CheckpointWriteFaultHook SetCheckpointWriteFaultHook(
    CheckpointWriteFaultHook hook);

}  // namespace ranomaly::collector
