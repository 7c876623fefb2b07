#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "collector/binary_io.h"
#include "tools/cli.h"
#include "workload/eventgen.h"

namespace ranomaly::tools {
namespace {

namespace fs = std::filesystem;
using util::kMinute;

// A scratch directory per test, removed on teardown.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ranomaly_cli_test_" + std::string(
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

  // Writes a small generated capture (text format) and returns its path.
  std::string WriteCapture() {
    workload::InternetOptions options;
    options.monitored_peers = 3;
    options.prefix_count = 300;
    options.origin_as_count = 60;
    options.seed = 7;
    const workload::SyntheticInternet internet(options);
    workload::EventStreamGenerator gen(internet, 8);
    gen.SessionReset(0, 10 * kMinute, kMinute, 20 * util::kSecond);
    gen.Churn(0, 30 * kMinute, 400);
    const auto stream = gen.Take();
    const std::string path = Path("capture.events");
    std::ofstream out(path);
    stream.SaveText(out);
    return path;
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  fs::path dir_;
  std::stringstream out_;
  std::stringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, AnalyzeFindsTheReset) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"analyze", capture}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("incidents:"), std::string::npos);
  EXPECT_NE(output.find("session-reset"), std::string::npos) << output;
}

TEST_F(CliTest, AnalyzeMissingFileFails) {
  EXPECT_EQ(Run({"analyze", Path("nope.events")}), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, PictureWritesSvgAndDot) {
  const std::string capture = WriteCapture();
  const std::string svg = Path("picture.svg");
  const std::string dot = Path("picture.dot");
  EXPECT_EQ(Run({"picture", capture, "--out", svg, "--dot", dot,
                 "--threshold", "2", "--title", "cli test"}),
            0);
  std::ifstream svg_in(svg);
  std::string svg_text((std::istreambuf_iterator<char>(svg_in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(svg_text.find("<svg"), std::string::npos);
  EXPECT_NE(svg_text.find("cli test"), std::string::npos);
  std::ifstream dot_in(dot);
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(dot_text.find("digraph tamp"), std::string::npos);
}

TEST_F(CliTest, PictureRequiresOut) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"picture", capture}), 2);
  EXPECT_NE(err_.str().find("--out"), std::string::npos);
}

TEST_F(CliTest, AnimateWritesFrames) {
  const std::string capture = WriteCapture();
  const std::string frames = Path("frames");
  EXPECT_EQ(Run({"animate", capture, "--out-dir", frames, "--every", "250"}),
            0);
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(frames)) {
    EXPECT_EQ(entry.path().extension(), ".svg");
    ++count;
  }
  EXPECT_EQ(count, 3u);  // frames 0, 250, 500 of 750
}

TEST_F(CliTest, AnimateWritesSmilLoop) {
  const std::string capture = WriteCapture();
  const std::string frames = Path("frames");
  const std::string smil = Path("loop.svg");
  EXPECT_EQ(Run({"animate", capture, "--out-dir", frames, "--every", "750",
                 "--smil", smil}),
            0);
  std::ifstream in(smil);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("<animate attributeName=\"stroke-width\""),
            std::string::npos);
  EXPECT_NE(text.find("repeatCount=\"indefinite\""), std::string::npos);
}

TEST_F(CliTest, ConvertRoundTripsThroughBinary) {
  const std::string capture = WriteCapture();
  const std::string binary = Path("capture.bin");
  const std::string text2 = Path("capture2.events");
  EXPECT_EQ(Run({"convert", capture, binary, "--to", "binary"}), 0);
  EXPECT_EQ(Run({"convert", binary, text2, "--to", "text"}), 0);

  std::ifstream a(capture), b(text2);
  const std::string sa((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);  // text -> binary -> text is the identity

  // Binary input is auto-detected by every command.
  EXPECT_EQ(Run({"stats", binary}), 0);
  EXPECT_NE(out_.str().find("peers:     3"), std::string::npos) << out_.str();
}

TEST_F(CliTest, ConvertRejectsBadTarget) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"convert", capture, Path("x"), "--to", "yaml"}), 2);
}

TEST_F(CliTest, MoasFlagsInjectedHijack) {
  // Build a stream with an established origin and a late foreign origin.
  collector::EventStream stream;
  auto announce = [&](util::SimTime t, bgp::AsNumber origin) {
    bgp::Event e;
    e.time = t;
    e.peer = bgp::Ipv4Addr(10, 0, 0, 1);
    e.type = bgp::EventType::kAnnounce;
    e.prefix = *bgp::Prefix::Parse("192.0.2.0/24");
    e.attrs.nexthop = bgp::Ipv4Addr(10, 1, 0, 1);
    e.attrs.as_path = bgp::AsPath{100, origin};
    stream.Append(e);
  };
  announce(0, 200);
  announce(60 * kMinute, 666);
  const std::string path = Path("hijack.events");
  std::ofstream out(path);
  stream.SaveText(out);
  out.close();

  EXPECT_EQ(Run({"moas", path}), 0);
  EXPECT_NE(out_.str().find("origin conflicts: 1"), std::string::npos);
  EXPECT_NE(out_.str().find("AS666"), std::string::npos);
}

TEST_F(CliTest, StatsCountsPerPeer) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"stats", capture}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("announces:"), std::string::npos);
  EXPECT_NE(output.find("withdraws:"), std::string::npos);
  EXPECT_NE(output.find("10.0.0.1"), std::string::npos);
}

TEST_F(CliTest, StatsAnalyzeReportsStageBreakdown) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"stats", capture, "--analyze"}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("analysis stages"), std::string::npos);
  EXPECT_NE(output.find("stemming_events_encoded_total"), std::string::npos);
  EXPECT_NE(output.find("stemming_bigram_entries_total"), std::string::npos);
  EXPECT_NE(output.find("pipeline_analyze_seconds"), std::string::npos);
  // The spike-window fan-out's pool health.
  EXPECT_NE(output.find("pool_threads"), std::string::npos);
  // Only the analysis slice of the registry, not the io_* counters the
  // stream load bumped.
  EXPECT_EQ(output.find("io_events_loaded_total"), std::string::npos);
}

TEST_F(CliTest, InternetRefusesThreadCountsAboveTheLimit) {
  // Refused while parsing, before generation would spawn the pool.  The
  // relationship file does not exist, so were the count let through,
  // generation would fail (exit 1) before any pool exists: the test
  // starts no thread either way.
  for (const std::string threads : {"257", "18446744073709551615"}) {
    SCOPED_TRACE(threads);
    const std::string path = Path("internet.bin");
    EXPECT_EQ(Run({"internet", "--out", path, "--relationships",
                   Path("missing.rel"), "--threads", threads}),
              2);
    EXPECT_NE(err_.str().find("--threads is at most 256, got " + threads),
              std::string::npos)
        << err_.str();
    EXPECT_FALSE(fs::exists(path));
  }
}

TEST_F(CliTest, MetricsDumpsTheRegistry) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"metrics", capture}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("pipeline_incidents_total"), std::string::npos);
  EXPECT_NE(output.find("stemming_events_encoded_total"), std::string::npos);
  EXPECT_NE(output.find("io_events_loaded_total"), std::string::npos);
}

TEST_F(CliTest, MetricsPromExposition) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"metrics", capture, "--prom"}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("# TYPE ranomaly_pipeline_analyses_total counter"),
            std::string::npos);
  EXPECT_NE(output.find("# TYPE ranomaly_pipeline_analyze_seconds histogram"),
            std::string::npos);
  EXPECT_NE(output.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  // Every non-comment line is `name{labels} value` or `name value`.
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 9, "ranomaly_"), 0) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST_F(CliTest, TraceWrapsAnalyzeAndWritesChromeJson) {
  const std::string capture = WriteCapture();
  const std::string trace = Path("trace.json");
  const std::string jsonl = Path("trace.jsonl");
  EXPECT_EQ(
      Run({"trace", "--out", trace, "--jsonl", jsonl, "--", "analyze",
           capture}),
      0);
  EXPECT_NE(out_.str().find("incidents:"), std::string::npos);
  EXPECT_NE(out_.str().find("wrote trace to"), std::string::npos);
  std::ifstream in(trace);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Spans from every instrumented layer made it into the export.
  EXPECT_NE(json.find("cli.load_stream"), std::string::npos);
  EXPECT_NE(json.find("collector.load_text"), std::string::npos);
  EXPECT_NE(json.find("pipeline.analyze"), std::string::npos);
  EXPECT_NE(json.find("pool.parallel_for"), std::string::npos);
  EXPECT_NE(json.find("stemming.encode"), std::string::npos);
  std::ifstream jl(jsonl);
  std::string first_line;
  ASSERT_TRUE(std::getline(jl, first_line));
  EXPECT_EQ(first_line.front(), '{');
  EXPECT_EQ(first_line.back(), '}');
}

TEST_F(CliTest, TraceWithoutOutIsUsageError) {
  EXPECT_EQ(Run({"trace", "analyze", "whatever"}), 2);
  EXPECT_NE(err_.str().find("--out"), std::string::npos);
}

TEST_F(CliTest, StatsShowsMarkersAndFeedGaps) {
  collector::EventStream stream;
  const bgp::Ipv4Addr peer(10, 0, 0, 1);
  auto announce = [&](util::SimTime t) {
    bgp::Event e;
    e.time = t;
    e.peer = peer;
    e.type = bgp::EventType::kAnnounce;
    e.prefix = *bgp::Prefix::Parse("192.0.2.0/24");
    e.attrs.nexthop = bgp::Ipv4Addr(10, 1, 0, 1);
    e.attrs.as_path = bgp::AsPath{100, 200};
    stream.Append(e);
  };
  auto marker = [&](util::SimTime t, bgp::EventType type) {
    bgp::Event e;
    e.time = t;
    e.peer = peer;
    e.type = type;
    stream.Append(e);
  };
  announce(0);
  marker(kMinute, bgp::EventType::kFeedGap);
  marker(2 * kMinute, bgp::EventType::kResync);
  announce(3 * kMinute);
  marker(4 * kMinute, bgp::EventType::kFeedGap);  // never resynced

  const std::string path = Path("gaps.events");
  std::ofstream file(path);
  stream.SaveText(file);
  file.close();

  EXPECT_EQ(Run({"stats", path}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("markers:   3"), std::string::npos) << output;
  EXPECT_NE(output.find("M=3"), std::string::npos) << output;
  EXPECT_NE(output.find("feed gaps: 2"), std::string::npos) << output;
  EXPECT_NE(output.find("(never resynced)"), std::string::npos) << output;
}

TEST_F(CliTest, BinaryParseErrorReportsLocation) {
  // RNE1 magic followed by a count and a truncated record: the CLI should
  // surface the loader's diagnostic (reason + byte offset), not just fail.
  const std::string path = Path("corrupt.bin");
  std::ofstream file(path, std::ios::binary);
  file.write("RNE1", 4);
  const std::uint64_t count = 5;
  file.write(reinterpret_cast<const char*>(&count), sizeof(count));
  file.write("\x01\x02\x03", 3);
  file.close();

  EXPECT_EQ(Run({"stats", path}), 1);
  const std::string error = err_.str();
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST_F(CliTest, MissingOptionValueIsUsageError) {
  EXPECT_EQ(Run({"picture", "x", "--out"}), 2);
  EXPECT_NE(err_.str().find("missing value"), std::string::npos);
}

// Writes a tiny hand-rolled capture with GAP/SYNC markers for the feed
// health commands.
std::string WriteMarkerCapture(const std::string& path) {
  std::ofstream file(path);
  file << "0 A 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 "
          "PREFIX: 192.0.2.0/24\n"
       << "1000000 A 10.0.0.2 NEXT_HOP: 10.1.0.2 ASPATH: 100 300 "
          "PREFIX: 198.51.100.0/24\n"
       << "60000000 GAP 10.0.0.1\n"
       << "120000000 SYNC 10.0.0.1\n"
       << "180000000 GAP 10.0.0.2\n"
       << "200000000 A 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 "
          "PREFIX: 192.0.2.0/24\n";
  return path;
}

TEST_F(CliTest, PeersPrintsScoreboard) {
  const std::string capture = WriteMarkerCapture(Path("markers.events"));
  EXPECT_EQ(Run({"peers", capture}), 0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("PEER"), std::string::npos) << output;
  EXPECT_NE(output.find("10.0.0.1"), std::string::npos);
  // 10.0.0.1 resynced; 10.0.0.2's gap never closed.
  EXPECT_NE(output.find("OK"), std::string::npos);
  EXPECT_NE(output.find("DEGRADED"), std::string::npos);
  EXPECT_NE(output.find("2 peers, 1 degraded"), std::string::npos) << output;
}

TEST_F(CliTest, PeersRequiresAStream) {
  EXPECT_EQ(Run({"peers"}), 2);
  EXPECT_EQ(Run({"peers", Path("missing.events")}), 1);
}

TEST_F(CliTest, ServeReplaysAndExits) {
  const std::string capture = WriteCapture();
  EXPECT_EQ(Run({"serve", capture, "--exit-after-replay", "--tick-sec", "30"}),
            0);
  const std::string output = out_.str();
  EXPECT_NE(output.find("serving on 127.0.0.1:"), std::string::npos) << output;
  EXPECT_NE(output.find("replay done:"), std::string::npos) << output;
  // The reset avalanche is in there; live replay must surface incidents.
  EXPECT_EQ(output.find(" 0 incidents"), std::string::npos) << output;
}

TEST_F(CliTest, ServeRejectsBadOptions) {
  const std::string capture = WriteMarkerCapture(Path("markers.events"));
  EXPECT_EQ(Run({"serve", capture, "--tick-sec", "0"}), 2);
  EXPECT_EQ(Run({"serve", capture, "--port", "70000"}), 2);
  EXPECT_EQ(Run({"serve"}), 2);
}

// series takes the live replay flags serve takes: with a queue capacity
// and service rate too low for the reset avalanche, the replayed queue
// depth must leave zero.
TEST_F(CliTest, SeriesHonoursTheQueueFlags) {
  const std::string capture = WriteCapture();
  ASSERT_EQ(Run({"series", capture, "--name", "serve_queue_depth",
                 "--queue-capacity", "200", "--service-rate", "20"}),
            0)
      << err_.str();
  const std::string json = out_.str();
  const std::size_t points = json.find("\"points\":[");
  ASSERT_NE(points, std::string::npos) << json;
  // Gauge points are [t, value, min, max].
  bool nonzero = false;
  for (std::size_t at = json.find('[', points + 10); at != std::string::npos;
       at = json.find('[', at + 1)) {
    const std::size_t comma = json.find(',', at);
    const double value = std::stod(json.substr(comma + 1));
    nonzero |= value > 0.0;
  }
  EXPECT_TRUE(nonzero) << json;
  EXPECT_EQ(Run({"series", capture, "--tick-sec", "0"}), 2);
}

TEST_F(CliTest, TraceFinalizesAtomically) {
  const std::string capture = WriteCapture();
  const std::string trace = Path("trace.json");
  const std::string jsonl = Path("trace.jsonl");
  EXPECT_EQ(Run({"trace", "--out", trace, "--jsonl", jsonl, "--", "stats",
                 capture}),
            0);
  // The exports were renamed into place; no temp files linger.
  EXPECT_TRUE(fs::exists(trace));
  EXPECT_TRUE(fs::exists(jsonl));
  EXPECT_FALSE(fs::exists(trace + ".tmp"));
  EXPECT_FALSE(fs::exists(jsonl + ".tmp"));
}

}  // namespace
}  // namespace ranomaly::tools
