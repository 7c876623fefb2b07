#include "obs/http_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/live.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/provenance.h"

namespace ranomaly::obs {
namespace {

// Sends raw bytes at the server (HttpGet only speaks well-formed HTTP)
// and returns everything read until the peer closes.
std::string RawRequest(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartEcho() {
    server_ = std::make_unique<HttpServer>([](const HttpRequest& request) {
      HttpResponse response;
      response.body = "path=" + request.path;
      if (const auto q = request.QueryParam("q")) response.body += " q=" + *q;
      if (request.path == "/boom") throw std::runtime_error("handler bug");
      if (request.path == "/missing") response.status = 404;
      return response;
    });
    std::string error;
    ASSERT_TRUE(server_->Start(0, &error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesGetAndHead) {
  StartEcho();
  const auto got = HttpGet(server_->port(), "/hello");
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(got->find("path=/hello"), std::string::npos);

  const std::string head = RawRequest(
      server_->port(), "HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length:"), std::string::npos);
  // HEAD carries headers only.
  EXPECT_EQ(head.find("path=/hello"), std::string::npos);
  EXPECT_EQ(server_->requests_total(), 2u);
  EXPECT_EQ(server_->rejected_total(), 0u);
}

// HEAD must advertise the exact byte count of the body it suppresses —
// the same Content-Length the matching GET sends — and then send no
// body at all (RFC 9110 §9.3.2).  A dashboard poller that trusts HEAD
// to size a buffer would otherwise truncate or over-read.
TEST_F(HttpServerTest, HeadContentLengthMatchesSuppressedBodyExactly) {
  StartEcho();
  const std::string body = "path=/sized";  // what the echo handler returns
  const std::string head = RawRequest(
      server_->port(), "HEAD /sized HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string want =
      "Content-Length: " + std::to_string(body.size()) + "\r\n";
  EXPECT_NE(head.find(want), std::string::npos) << head;
  // Headers end the message: nothing after the blank line.
  const auto end = head.find("\r\n\r\n");
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(head.size(), end + 4) << "HEAD response carried a body";

  // The matching GET sends the same Content-Length, followed by exactly
  // that many body bytes.
  const std::string get = RawRequest(
      server_->port(), "GET /sized HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(get.find(want), std::string::npos) << get;
  EXPECT_EQ(get.substr(get.find("\r\n\r\n") + 4), body);
}

// Every endpoint reports live state, so every response — success,
// client error, server error, even HEAD — must forbid caching.
TEST_F(HttpServerTest, EveryResponseIsMarkedNoStore) {
  StartEcho();
  for (const char* request :
       {"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n",      // 200
        "HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n",     // 200 HEAD
        "GET /missing HTTP/1.1\r\nHost: x\r\n\r\n",    // 404
        "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n",       // 500
        "POST / HTTP/1.1\r\nHost: x\r\n\r\n",          // 405
        "completely wrong\r\n\r\n"}) {                 // 400
    const std::string got = RawRequest(server_->port(), request);
    EXPECT_NE(got.find("Cache-Control: no-store\r\n"), std::string::npos)
        << request;
  }
}

TEST_F(HttpServerTest, DecodesQueryParameters) {
  StartEcho();
  const auto got = HttpGet(server_->port(), "/echo?q=a%20b&x=1");
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->find("q=a b"), std::string::npos);
}

TEST_F(HttpServerTest, HandlerStatusPassesThrough) {
  StartEcho();
  const auto got = HttpGet(server_->port(), "/missing");
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->find("404"), std::string::npos);
}

TEST_F(HttpServerTest, HandlerExceptionIs500) {
  StartEcho();
  const auto got = HttpGet(server_->port(), "/boom");
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->find("500 Internal Server Error"), std::string::npos);
}

TEST_F(HttpServerTest, MalformedRequestLinesAreRejected) {
  StartEcho();
  // No version, garbage, relative target, bad token: all 400.
  for (const char* bad :
       {"GET /\r\n\r\n", "completely wrong\r\n\r\n",
        "GET relative HTTP/1.1\r\n\r\n", "G@T / HTTP/1.1\r\n\r\n"}) {
    const std::string got = RawRequest(server_->port(), bad);
    EXPECT_NE(got.find("400 Bad Request"), std::string::npos) << bad;
  }
  EXPECT_EQ(server_->requests_total(), 0u);
  EXPECT_GE(server_->rejected_total(), 4u);
}

TEST_F(HttpServerTest, UnsupportedMethodIs405WithAllow) {
  StartEcho();
  const std::string got =
      RawRequest(server_->port(), "POST / HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(got.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(got.find("Allow: GET, HEAD"), std::string::npos);
}

TEST_F(HttpServerTest, UnsupportedVersionIs505) {
  StartEcho();
  const std::string got = RawRequest(server_->port(), "GET / HTTP/2.0\r\n\r\n");
  EXPECT_NE(got.find("505"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedRequestLineIs414) {
  StartEcho();
  const std::string got = RawRequest(
      server_->port(),
      "GET /" + std::string(8192, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_NE(got.find("414"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedHeaderBlockIs431) {
  StartEcho();
  std::string request = "GET / HTTP/1.1\r\n";
  request += "X-Big: " + std::string(32768, 'b') + "\r\n\r\n";
  const std::string got = RawRequest(server_->port(), request);
  EXPECT_NE(got.find("431"), std::string::npos);
}

TEST_F(HttpServerTest, TooManyHeadersIs431) {
  StartEcho();
  std::string request = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 200; ++i) {
    request += "X-H" + std::to_string(i) + ": v\r\n";
  }
  request += "\r\n";
  const std::string got = RawRequest(server_->port(), request);
  EXPECT_NE(got.find("431"), std::string::npos);
}

TEST_F(HttpServerTest, MalformedHeaderLineIs400) {
  StartEcho();
  const std::string got = RawRequest(
      server_->port(), "GET / HTTP/1.1\r\nno colon here\r\n\r\n");
  EXPECT_NE(got.find("400 Bad Request"), std::string::npos);
}

// End-to-end regression for the /incidents cursor: strtoull-style
// parsing silently accepted signs, leading whitespace, and trailing
// garbage ("-1" wrapped to 2^64-1 and hid every incident) and saturated
// on overflow.  Every malformed cursor must be a loud 400 over real
// HTTP; only pure digit strings in range pass.
TEST(OpsServerTest, IncidentsSinceRejectsMalformedCursorsOverHttp) {
  obs::HealthRegistry health;
  core::IncidentLog log;
  HttpServer server(core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &health, &log,
      core::OpsInfo{"capture.events", 30.0, 10.0, 300.0}));
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  for (const char* bad :
       {"since=%2B1",                     // "+1": explicit sign
        "since=-1",                       // wraps to a huge cursor
        "since=%201",                     // " 1": leading whitespace
        "since=1x",                       // trailing garbage
        "since=0x10",                     // hex is not a cursor
        "since=18446744073709551616"}) {  // 2^64: overflow
    const auto got =
        HttpGet(server.port(), std::string("/incidents?") + bad);
    ASSERT_TRUE(got.has_value()) << bad;
    EXPECT_NE(got->find("400 Bad Request"), std::string::npos) << bad;
  }
  for (const char* good :
       {"", "?since=0", "?since=7", "?since=18446744073709551615"}) {
    const auto got =
        HttpGet(server.port(), std::string("/incidents") + good);
    ASSERT_TRUE(got.has_value()) << good;
    EXPECT_NE(got->find("200 OK"), std::string::npos) << good;
  }
}

// Same contract for the dashboard timeline cursor and the evidence
// drill-down id, over real HTTP: malformed input is a loud 400,
// unknown-but-well-formed ids are 404, and pagination works end to end.
TEST(OpsServerTest, TimelineAndEvidenceGuardsHoldOverHttp) {
  obs::HealthRegistry health;
  core::IncidentLog log;
  obs::ProvenanceLedger ledger;
  {
    core::Incident inc;
    inc.stem_key = {1, 2};
    inc.stem_label = "AS1 - AS2";
    inc.summary = "test incident";
    log.Append(inc);
    log.Append(inc);
    obs::IncidentProvenance prov;
    prov.seq = 1;
    prov.stem_first = 1;
    prov.stem_second = 2;
    ledger.Attach(prov);
    prov = {};
    prov.seq = 2;
    prov.stem_first = 1;
    prov.stem_second = 2;
    ledger.Attach(std::move(prov));
  }
  HttpServer server(core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &health, &log,
      core::OpsInfo{"capture.events", 30.0, 10.0, 300.0}, nullptr, false,
      &ledger));
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  for (const char* bad :
       {"since=%2B1", "since=-1", "since=%201", "since=1x", "since=0x10",
        "since=18446744073709551616"}) {
    const auto got = HttpGet(server.port(),
                             std::string("/api/incidents/timeline?") + bad);
    ASSERT_TRUE(got.has_value()) << bad;
    EXPECT_NE(got->find("400 Bad Request"), std::string::npos) << bad;
  }
  const auto page =
      HttpGet(server.port(), "/api/incidents/timeline?since=1");
  ASSERT_TRUE(page.has_value());
  EXPECT_NE(page->find("200 OK"), std::string::npos);
  EXPECT_EQ(page->find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(page->find("\"seq\":2,"), std::string::npos);
  EXPECT_NE(page->find("\"next_since\":2"), std::string::npos);

  const auto evidence = HttpGet(server.port(), "/api/incidents/2/evidence");
  ASSERT_TRUE(evidence.has_value());
  EXPECT_NE(evidence->find("200 OK"), std::string::npos);
  EXPECT_NE(evidence->find("\"seq\":2"), std::string::npos);
  for (const char* bad :
       {"/api/incidents/-1/evidence", "/api/incidents/2x/evidence",
        "/api/incidents/%202/evidence", "/api/incidents//evidence",
        "/api/incidents/18446744073709551616/evidence"}) {
    const auto got = HttpGet(server.port(), bad);
    ASSERT_TRUE(got.has_value()) << bad;
    // An empty id segment falls through to the catch-all 404; every
    // other malformed id is a 400 from the digits-only parser.
    EXPECT_TRUE(got->find("400 Bad Request") != std::string::npos ||
                (std::string_view(bad) == "/api/incidents//evidence" &&
                 got->find("404 Not Found") != std::string::npos))
        << bad << " -> " << *got;
  }
  const auto unknown = HttpGet(server.port(), "/api/incidents/99/evidence");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_NE(unknown->find("404 Not Found"), std::string::npos);
  EXPECT_NE(unknown->find("evicted"), std::string::npos);
}

TEST_F(HttpServerTest, ConcurrentScrapesAllSucceed) {
  StartEcho();
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const auto got =
            HttpGet(server_->port(), "/scrape" + std::to_string(t));
        if (got && got->find("200 OK") != std::string::npos) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(server_->requests_total(),
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
}

TEST_F(HttpServerTest, StopIsIdempotentAndSafeMidTraffic) {
  StartEcho();
  std::atomic<bool> done{false};
  std::thread hammer([&] {
    while (!done.load()) HttpGet(server_->port(), "/x", 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();
  server_->Stop();
  done.store(true);
  hammer.join();
  EXPECT_FALSE(server_->running());
}

TEST(HttpServerStartTest, StartFailsOnBusyPort) {
  HttpServer first([](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(first.Start(0));
  HttpServer second([](const HttpRequest&) { return HttpResponse{}; });
  std::string error;
  EXPECT_FALSE(second.Start(first.port(), &error));
  EXPECT_FALSE(error.empty());
}

TEST(HttpGetTest, FailsCleanlyWhenNothingListens) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0));
  const std::uint16_t port = server.port();
  server.Stop();
  EXPECT_FALSE(HttpGet(port, "/", 200).has_value());
}

}  // namespace
}  // namespace ranomaly::obs
