#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collector/checkpoint.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ranomaly::collector {
namespace {

namespace fs = std::filesystem;
using bgp::AsPath;
using bgp::EventType;
using bgp::Ipv4Addr;
using bgp::PathAttributes;
using bgp::Prefix;
using util::kSecond;

const Ipv4Addr kPeerA(128, 32, 1, 3);
const Ipv4Addr kPeerB(128, 32, 1, 200);

PathAttributes Attrs(AsPath path) {
  PathAttributes a;
  a.nexthop = Ipv4Addr(128, 32, 0, 66);
  a.as_path = std::move(path);
  a.local_pref = 80;
  a.communities.Add(bgp::Community(11423, 65350));
  return a;
}

// A collector with two peers, several routes, and one open feed gap.
Collector PopulatedCollector() {
  Collector collector;
  collector.OnAnnounce(kSecond, kPeerA, *Prefix::Parse("192.96.10.0/24"),
                       Attrs({11423, 209}));
  collector.OnAnnounce(2 * kSecond, kPeerA, *Prefix::Parse("62.80.64.0/20"),
                       Attrs({11423, 701, 3561}));
  collector.OnAnnounce(3 * kSecond, kPeerB, *Prefix::Parse("10.1.0.0/16"),
                       Attrs({11423, 2152}));
  collector.OnMarker(4 * kSecond, kPeerB, EventType::kFeedGap);  // B stale
  return collector;
}

TEST(CheckpointTest, SnapshotCapturesTablesAndStaleness) {
  const Collector collector = PopulatedCollector();
  const Checkpoint cp =
      SnapshotCollector(collector, 5 * kSecond, collector.events().size());
  EXPECT_EQ(cp.time, 5 * kSecond);
  EXPECT_EQ(cp.event_offset, 4u);
  EXPECT_EQ(cp.RouteCount(), 3u);
  ASSERT_EQ(cp.peers.size(), 2u);
  // Sorted by peer address: .3 before .200.
  EXPECT_EQ(cp.peers[0].peer, kPeerA);
  EXPECT_FALSE(cp.peers[0].stale);
  EXPECT_EQ(cp.peers[0].routes.size(), 2u);
  EXPECT_EQ(cp.peers[1].peer, kPeerB);
  EXPECT_TRUE(cp.peers[1].stale);
}

TEST(CheckpointTest, StreamRoundTripPreservesEverything) {
  const Collector collector = PopulatedCollector();
  const Checkpoint cp = SnapshotCollector(collector, 5 * kSecond, 4);
  std::stringstream ss;
  ASSERT_TRUE(SaveCheckpoint(cp, ss));
  const auto loaded = LoadCheckpoint(ss);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->time, cp.time);
  EXPECT_EQ(loaded->event_offset, cp.event_offset);
  ASSERT_EQ(loaded->peers.size(), cp.peers.size());
  for (std::size_t i = 0; i < cp.peers.size(); ++i) {
    EXPECT_EQ(loaded->peers[i].peer, cp.peers[i].peer);
    EXPECT_EQ(loaded->peers[i].stale, cp.peers[i].stale);
    ASSERT_EQ(loaded->peers[i].routes.size(), cp.peers[i].routes.size());
    for (std::size_t r = 0; r < cp.peers[i].routes.size(); ++r) {
      EXPECT_EQ(loaded->peers[i].routes[r].first, cp.peers[i].routes[r].first);
      EXPECT_EQ(loaded->peers[i].routes[r].second,
                cp.peers[i].routes[r].second);
    }
  }
}

TEST(CheckpointTest, SnapshotsAreByteIdentical) {
  // Route iteration order must not leak into the file (rename-safe
  // dedup, reproducible fault runs): same state => same bytes.
  const Collector a = PopulatedCollector();
  const Collector b = PopulatedCollector();
  std::stringstream sa, sb;
  ASSERT_TRUE(SaveCheckpoint(SnapshotCollector(a, kSecond, 4), sa));
  ASSERT_TRUE(SaveCheckpoint(SnapshotCollector(b, kSecond, 4), sb));
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CheckpointTest, RestoreWarmStartsWithoutEventsAndKeepsStaleHonest) {
  const Collector source = PopulatedCollector();
  const Checkpoint cp = SnapshotCollector(source, 5 * kSecond, 4);

  Collector restored;
  RestoreCollector(cp, restored);
  EXPECT_EQ(restored.RouteCount(), 3u);
  EXPECT_EQ(restored.PeerRoutes(kPeerA).size(), 2u);
  EXPECT_EQ(restored.PeerRoutes(kPeerB).size(), 1u);
  EXPECT_FALSE(restored.IsPeerStale(kPeerA));
  // The gap that was open at snapshot time survives the restart: the
  // restored collector re-marks the peer stale with a kFeedGap marker.
  EXPECT_TRUE(restored.IsPeerStale(kPeerB));
  ASSERT_EQ(restored.events().size(), 1u);
  EXPECT_EQ(restored.events()[0].type, EventType::kFeedGap);
  EXPECT_EQ(restored.events()[0].peer, kPeerB);
  EXPECT_EQ(restored.events()[0].time, cp.time);
}

std::string Serialized() {
  const Collector collector = PopulatedCollector();
  std::stringstream ss;
  SaveCheckpoint(SnapshotCollector(collector, 5 * kSecond, 4), ss);
  return ss.str();
}

TEST(CheckpointTest, RejectsBadMagic) {
  std::string data = Serialized();
  data[0] = 'X';
  std::stringstream ss(data);
  LoadDiagnostics diag;
  EXPECT_FALSE(LoadCheckpoint(ss, &diag));
  EXPECT_EQ(diag.error, LoadError::kBadMagic);
}

TEST(CheckpointTest, RejectsUnknownVersion) {
  std::string data = Serialized();
  data[4] = 9;  // u32 version immediately after the magic (1 and 2 are real)
  std::stringstream ss(data);
  LoadDiagnostics diag;
  EXPECT_FALSE(LoadCheckpoint(ss, &diag));
  EXPECT_EQ(diag.error, LoadError::kBadVersion);
}

TEST(CheckpointTest, RelabelingV1AsV2IsNotSilentlyAccepted) {
  // A v1 payload stamped as v2 lacks the section table; the reader must
  // fail (truncated) rather than inventing an empty table.
  std::string data = Serialized();
  data[4] = 2;
  std::stringstream ss(data);
  LoadDiagnostics diag;
  EXPECT_FALSE(LoadCheckpoint(ss, &diag));
}

TEST(CheckpointTest, DetectsPayloadCorruptionViaCrc) {
  std::string data = Serialized();
  // Flip one bit in the middle of the payload; the structure may still
  // parse, so only the checksum catches it.
  data[data.size() / 2] ^= 0x01;
  std::stringstream ss(data);
  LoadDiagnostics diag;
  EXPECT_FALSE(LoadCheckpoint(ss, &diag));
  EXPECT_EQ(diag.error, LoadError::kBadChecksum);
  EXPECT_NE(diag.ToString().find("checksum"), std::string::npos)
      << diag.ToString();
}

TEST(CheckpointTest, DetectsTornWriteViaTruncation) {
  const std::string full = Serialized();
  // Every truncation point must fail loudly (torn write / partial copy).
  for (std::size_t cut = 0; cut < full.size(); cut += 5) {
    std::stringstream ss(full.substr(0, cut));
    LoadDiagnostics diag;
    EXPECT_FALSE(LoadCheckpoint(ss, &diag)) << "cut=" << cut;
    EXPECT_NE(diag.error, LoadError::kNone) << "cut=" << cut;
  }
}

TEST(CheckpointTest, FuzzNeverCrashesOrOverAllocates) {
  util::Rng rng(4242);
  const std::string valid = Serialized();
  for (int round = 0; round < 500; ++round) {
    std::string junk = valid;
    const std::size_t flips = 1 + rng.NextBelow(8);
    for (std::size_t k = 0; k < flips; ++k) {
      junk[rng.NextBelow(junk.size())] ^=
          static_cast<char>(1 << rng.NextBelow(8));
    }
    if (rng.NextBool(0.3)) junk.resize(rng.NextBelow(junk.size() + 1));
    std::stringstream ss(junk);
    LoadCheckpoint(ss);  // must not crash; huge sizes must not OOM
  }
  SUCCEED();
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ranomaly_ckpt_" + std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST_F(CheckpointFileTest, AtomicOverwriteLeavesNoTemporary) {
  const Collector collector = PopulatedCollector();
  const std::string path = Path("rib.ckpt");
  ASSERT_TRUE(
      WriteCheckpointFile(SnapshotCollector(collector, kSecond, 1), path));
  // Overwrite with a later snapshot; the reader must see the new one and
  // the temporary sibling must be gone.
  ASSERT_TRUE(
      WriteCheckpointFile(SnapshotCollector(collector, 9 * kSecond, 4), path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->time, 9 * kSecond);
  EXPECT_EQ(loaded->event_offset, 4u);
}

TEST_F(CheckpointFileTest, DurableWriteFsyncsFileAndDirectory) {
  // Regression: the original WriteCheckpointFile renamed without
  // fsyncing, so a power loss could commit a zero-length checkpoint.
  // The durable path must fsync both the temp file and its directory —
  // at least two fsyncs per successful write.
  auto& reg = obs::MetricsRegistry::Global();
  const std::uint64_t before = reg.CounterValue("checkpoint_fsyncs_total");
  const Collector collector = PopulatedCollector();
  ASSERT_TRUE(WriteCheckpointFile(SnapshotCollector(collector, kSecond, 4),
                                  Path("rib.ckpt")));
  EXPECT_GE(reg.CounterValue("checkpoint_fsyncs_total"), before + 2);
}

TEST_F(CheckpointFileTest, ShortWriteFaultLeavesPreviousCheckpointIntact) {
  const Collector collector = PopulatedCollector();
  const std::string path = Path("rib.ckpt");
  ASSERT_TRUE(
      WriteCheckpointFile(SnapshotCollector(collector, kSecond, 1), path));

  // Every possible short write (disk full / torn write at any byte) must
  // fail the commit and leave the old snapshot readable.
  for (const std::int64_t cut : {std::int64_t{0}, std::int64_t{5},
                                 std::int64_t{40}}) {
    SetCheckpointWriteFaultHook(
        [cut](std::size_t) -> std::int64_t { return cut; });
    EXPECT_FALSE(WriteCheckpointFile(
        SnapshotCollector(collector, 9 * kSecond, 4), path))
        << "cut=" << cut;
    SetCheckpointWriteFaultHook(nullptr);
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "cut=" << cut;
    const auto loaded = ReadCheckpointFile(path);
    ASSERT_TRUE(loaded) << "cut=" << cut;
    EXPECT_EQ(loaded->time, kSecond) << "cut=" << cut;
  }

  // With the hook cleared the next write commits normally.
  ASSERT_TRUE(
      WriteCheckpointFile(SnapshotCollector(collector, 9 * kSecond, 4), path));
  const auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->time, 9 * kSecond);
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

std::string SavedBytes(const Checkpoint& checkpoint) {
  std::stringstream ss;
  EXPECT_TRUE(SaveCheckpoint(checkpoint, ss));
  return ss.str();
}

// A version 2 checkpoint: the populated peer tables plus two sections.
Checkpoint SectionedCheckpoint() {
  Checkpoint cp = SnapshotCollector(PopulatedCollector(), 7 * kSecond, 4);
  cp.sections.push_back({"LIVE", std::string(300, '\x5a')});
  cp.sections.push_back({"SIDE", "opaque sidecar"});
  return cp;
}

// The file is written piece by piece and the stream in one go; both
// must be the same bytes, for every version and for nothing at all.
TEST_F(CheckpointFileTest, FileBytesEqualStreamBytes) {
  const std::vector<std::pair<const char*, Checkpoint>> cases = {
      {"v1 routes", SnapshotCollector(PopulatedCollector(), 5 * kSecond, 4)},
      {"v2 peers and sections", SectionedCheckpoint()},
      {"empty", Checkpoint{}}};
  const std::string path = Path("rib.ckpt");
  for (const auto& [label, cp] : cases) {
    ASSERT_TRUE(WriteCheckpointFile(cp, path)) << label;
    EXPECT_EQ(FileBytes(path), SavedBytes(cp)) << label;
    EXPECT_TRUE(ReadCheckpointFile(path)) << label;
  }
}

// A torn write can stop anywhere in the file, mid-piece included: in the
// header, in a section frame, in a section body or in the CRC trailer.
// Each must fail the commit and leave the previous file as it was, and
// the hook must see each write once, at the file's full size.
TEST_F(CheckpointFileTest, FaultInEveryPieceLeavesPreviousFileInPlace) {
  const std::string path = Path("rib.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(
      SnapshotCollector(PopulatedCollector(), kSecond, 1), path));
  const std::string previous = FileBytes(path);

  const Checkpoint next = SectionedCheckpoint();
  const std::string bytes = SavedBytes(next);
  // The section table ends the payload: its frames and bodies fill the
  // bytes before the trailer.
  std::size_t table = bytes.size() - 4;
  for (const Checkpoint::Section& section : next.sections) {
    table -= 12 + section.bytes.size();
  }
  const std::size_t first_frame = table;
  const std::size_t first_body = first_frame + 12;
  const std::size_t second_frame =
      first_body + next.sections[0].bytes.size();
  const std::vector<std::pair<const char*, std::size_t>> limits = {
      {"nothing", 0},
      {"header", 9},
      {"first frame", first_frame + 5},
      {"first body", first_body + 100},
      {"second frame", second_frame + 11},
      {"second body", second_frame + 12 + 3},
      {"trailer", bytes.size() - 2},
      {"all but the last byte", bytes.size() - 1}};
  for (const auto& [label, limit] : limits) {
    std::vector<std::size_t> calls;
    SetCheckpointWriteFaultHook([&calls, limit = limit](std::size_t total) {
      calls.push_back(total);
      return static_cast<std::int64_t>(limit);
    });
    EXPECT_FALSE(WriteCheckpointFile(next, path)) << label;
    SetCheckpointWriteFaultHook(nullptr);
    EXPECT_EQ(calls, std::vector<std::size_t>{bytes.size()}) << label;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << label;
    EXPECT_EQ(FileBytes(path), previous) << label;
  }

  // A hook that lets the write proceed still sees it once, at full size.
  std::vector<std::size_t> calls;
  SetCheckpointWriteFaultHook([&calls](std::size_t total) -> std::int64_t {
    calls.push_back(total);
    return -1;
  });
  EXPECT_TRUE(WriteCheckpointFile(next, path));
  SetCheckpointWriteFaultHook(nullptr);
  EXPECT_EQ(calls, std::vector<std::size_t>{bytes.size()});
  EXPECT_EQ(FileBytes(path), bytes);
}

TEST_F(CheckpointFileTest, MissingFileIsNullopt) {
  LoadDiagnostics diag;
  EXPECT_FALSE(ReadCheckpointFile(Path("absent.ckpt"), &diag));
}

TEST_F(CheckpointFileTest, CorruptFileRefusedWithDiagnostics) {
  const Collector collector = PopulatedCollector();
  const std::string path = Path("rib.ckpt");
  ASSERT_TRUE(
      WriteCheckpointFile(SnapshotCollector(collector, kSecond, 4), path));
  // Flip a payload byte on disk.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(24);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();

  LoadDiagnostics diag;
  EXPECT_FALSE(ReadCheckpointFile(path, &diag));
  EXPECT_NE(diag.error, LoadError::kNone);
}

}  // namespace
}  // namespace ranomaly::collector
