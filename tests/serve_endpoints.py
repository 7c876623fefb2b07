#!/usr/bin/env python3
"""End-to-end check of the `ranomaly serve` operations surface.

Spawns a short-lived serve instance on an ephemeral port, exercises every
endpoint over real HTTP, checks the /incidents resumption contract, then
interrupts a trace-wrapped serve and verifies the trace file is loadable
JSON (the SIGINT flush path).

Usage: serve_endpoints.py /path/to/ranomaly
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

CAPTURE = """\
0 A 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 PREFIX: 192.0.2.0/24
1000000 A 10.0.0.2 NEXT_HOP: 10.1.0.2 ASPATH: 100 300 PREFIX: 198.51.100.0/24
60000000 GAP 10.0.0.1
120000000 SYNC 10.0.0.1
180000000 GAP 10.0.0.2
200000000 A 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 PREFIX: 192.0.2.0/24
"""

def incident_capture():
    """A capture that actually produces incidents: background churn plus
    two withdraw/re-announce avalanches (the session-reset signature) —
    one compressed at 120s, one spread over a minute at 300s so at
    least the slow one is detected even if the burst is shed."""
    lines = []
    for i in range(300):
        lines.append((i * 2_000_000,
                      f"A 10.0.0.2 NEXT_HOP: 10.1.0.2 ASPATH: 100 "
                      f"{300 + i % 9} PREFIX: 198.51.{i % 100}.0/24"))
    for i in range(120):
        prefix = f"10.0.{i % 250}.0/24"
        lines.append((120_000_000 + i * 40_000,
                      f"W 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 "
                      f"PREFIX: {prefix}"))
        lines.append((126_000_000 + i * 40_000,
                      f"A 10.0.0.1 NEXT_HOP: 10.1.0.1 ASPATH: 100 200 "
                      f"PREFIX: {prefix}"))
    for i in range(120):
        prefix = f"20.0.{i % 250}.0/24"
        lines.append((300_000_000 + i * 250_000,
                      f"W 10.0.0.4 NEXT_HOP: 10.1.0.4 ASPATH: 100 400 "
                      f"PREFIX: {prefix}"))
        lines.append((335_000_000 + i * 250_000,
                      f"A 10.0.0.4 NEXT_HOP: 10.1.0.4 ASPATH: 100 400 "
                      f"PREFIX: {prefix}"))
    lines.sort(key=lambda pair: pair[0])
    return "".join(f"{t_us} {rest}\n" for t_us, rest in lines)


FAILURES = []


def check(cond, message):
    if cond:
        print(f"ok: {message}")
    else:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def fetch(port, path, timeout=5):
    """Returns (status, body) without raising on HTTP error statuses."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def fetch_full(port, path, timeout=5):
    """Returns (status, headers, body); headers is a case-insensitive map."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def spawn_serve(binary, capture, extra=()):
    process = subprocess.Popen(
        [binary, "serve", capture, "--pace-ms", "100", "--tick-sec", "10",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = process.stdout.readline()
    prefix = "serving on 127.0.0.1:"
    if not line.startswith(prefix):
        process.kill()
        raise RuntimeError(f"unexpected serve banner: {line!r}")
    return process, int(line[len(prefix):].strip())


def stop(process, sig=signal.SIGINT, timeout=10):
    process.send_signal(sig)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait()


def test_endpoints(binary, capture):
    process, port = spawn_serve(binary, capture)
    try:
        status, body = fetch(port, "/healthz")
        check(status == 200 and body.strip() == "ok", "/healthz answers ok")

        status, body = fetch(port, "/metrics")
        check(status == 200 and "ranomaly_serve_ticks_total" in body,
              "/metrics speaks Prometheus with serve counters")
        check("# TYPE ranomaly_incident_detection_latency_seconds histogram"
              in body, "/metrics exposes the detection latency histogram")

        status, body = fetch(port, "/varz")
        varz = json.loads(body)
        check(status == 200 and "config" in varz and "health" in varz
              and "metrics" in varz, "/varz is well-formed JSON")
        check(varz["config"]["slo_target_sec"] == 30.0,
              "/varz reports the SLO target")
        check(set(varz["config"]) == {"stream", "tick_sec", "window_sec",
                                      "slo_target_sec", "checkpoint",
                                      "queue_capacity"},
              "/varz config holds exactly the serve settings")

        status, body = fetch(port, "/incidents?since=0")
        incidents = json.loads(body)
        check(status == 200 and "incidents" in incidents
              and "next_since" in incidents, "/incidents is well-formed JSON")
        cursor = incidents["next_since"]
        status, body = fetch(port, f"/incidents?since={cursor}")
        check(status == 200 and json.loads(body)["incidents"] == [],
              "/incidents resumes from next_since with no duplicates")

        status, _ = fetch(port, "/incidents?since=notanumber")
        check(status == 400, "/incidents rejects a malformed since")

        # The cursor is digits-only: signs, whitespace, trailing garbage,
        # and overflow must all be loud 400s, never silent coercion.
        for bad in ("%2B1", "-1", "%201", "1x", "0x10",
                    "18446744073709551616"):
            status, _ = fetch(port, f"/incidents?since={bad}")
            check(status == 400, f"/incidents rejects since={bad}")
        status, _ = fetch(port, "/incidents?since=18446744073709551615")
        check(status == 200, "/incidents accepts the full u64 cursor range")

        status, _ = fetch(port, "/nosuch")
        check(status == 404, "unknown paths 404")

        # The capture ends with an open feed gap on 10.0.0.2; once the
        # replay passes it, readiness must flip DEGRADED naming the peer.
        # (An earlier transient gap on 10.0.0.1 also 503s mid-replay, so
        # poll until the body names the right peer.)
        deadline = time.monotonic() + 30
        ready_status, ready_body = 0, ""
        while time.monotonic() < deadline:
            ready_status, ready_body = fetch(port, "/readyz")
            if ready_status == 503 and "peer/10.0.0.2" in ready_body:
                break
            time.sleep(0.2)
        check(ready_status == 503 and "peer/10.0.0.2" in ready_body,
              f"/readyz flips DEGRADED naming the gapped peer "
              f"(got {ready_status}: {ready_body.strip()!r})")
        check(fetch(port, "/healthz")[0] == 200,
              "/healthz stays 200 while degraded")
    finally:
        code = stop(process)
    check(code == 0, f"serve exits cleanly on SIGINT (code {code})")


def test_dashboard_and_series(binary, capture):
    """The embedded dashboard and its /api/* JSON feeds.  `capture` must
    produce incidents (see incident_capture)."""
    process, port = spawn_serve(binary, capture, extra=("--dashboard",))
    first_seq, serve_evidence = None, ""
    try:
        status, headers, body = fetch_full(port, "/dashboard")
        check(status == 200, "/dashboard answers 200")
        check(headers.get("Content-Type", "").startswith("text/html"),
              "/dashboard is text/html")
        check(headers.get("Cache-Control") == "no-store",
              "/dashboard forbids caching")
        check("<svg" in body and "/api/series" in body,
              "/dashboard embeds the SVG charts and polls /api/series")
        check("http://" not in body and "https://" not in body
              and "<script src" not in body and "<link" not in body,
              "/dashboard loads zero external resources")

        # The store samples at tick boundaries; with --pace-ms 100 the
        # first tick lands within a second.  Poll until it shows up.
        deadline = time.monotonic() + 30
        listing = {}
        while time.monotonic() < deadline:
            status, headers, body = fetch_full(port, "/api/series")
            listing = json.loads(body)
            if any(s["name"] == "serve_ticks_total"
                   for s in listing.get("series", [])):
                break
            time.sleep(0.2)
        check(status == 200 and headers.get("Content-Type", "")
              .startswith("application/json"),
              "/api/series listing is application/json")
        check(headers.get("Cache-Control") == "no-store",
              "/api/series forbids caching")
        check([t["resolution_sec"] for t in listing["tiers"]] == [1, 10, 60],
              "/api/series reports the 1s/10s/60s retention tiers")
        names = {s["name"] for s in listing["series"]}
        check({"serve_ticks_total", "serve_events_ingested_total",
               "serve_queue_depth"} <= names,
              f"/api/series lists the serve series (got {sorted(names)[:5]}...)")

        status, _, body = fetch_full(
            port, "/api/series?name=serve_ticks_total&res=1")
        series = json.loads(body)
        check(status == 200 and series["kind"] == "counter"
              and len(series["points"]) > 0,
              "/api/series?name= returns counter points")
        t_last = series["points"][-1][0]
        status, _, body = fetch_full(
            port, f"/api/series?name=serve_ticks_total&res=1&since={t_last}")
        check(status == 200
              and all(p[0] >= t_last for p in json.loads(body)["points"]),
              "/api/series honors the since= cursor")

        status, _, _ = fetch_full(port, "/api/series?name=nosuch")
        check(status == 404, "/api/series 404s an unknown series name")
        status, _, _ = fetch_full(
            port, "/api/series?name=serve_ticks_total&res=7")
        check(status == 400, "/api/series 400s an unconfigured resolution")
        status, _, _ = fetch_full(
            port, "/api/series?name=serve_ticks_total&since=bogus")
        check(status == 400, "/api/series 400s a malformed since")

        status, headers, body = fetch_full(port, "/api/incidents/timeline")
        timeline = json.loads(body)
        check(status == 200 and "incidents" in timeline
              and "t0_sec" in timeline and "tick_sec" in timeline,
              "/api/incidents/timeline is well-formed JSON")
        check(headers.get("Cache-Control") == "no-store",
              "/api/incidents/timeline forbids caching")

        # The capture's GAP/SYNC churn produces session-reset incidents
        # once the replay covers them; each must carry a trace exemplar.
        deadline = time.monotonic() + 30
        incidents = []
        while time.monotonic() < deadline:
            _, _, body = fetch_full(port, "/api/incidents/timeline")
            incidents = json.loads(body)["incidents"]
            if incidents:
                break
            time.sleep(0.2)
        check(len(incidents) > 0, "timeline reports replay incidents")
        if incidents:
            first = incidents[0]
            check(first["exemplar"]["span"] == "live.tick"
                  and isinstance(first["exemplar"]["tick"], int),
                  "timeline incidents carry a live.tick trace exemplar")

        # The timeline shares the /incidents resumption contract.
        _, _, body = fetch_full(port, "/api/incidents/timeline")
        cursor = json.loads(body)["next_since"]
        status, _, body = fetch_full(
            port, f"/api/incidents/timeline?since={cursor}")
        check(status == 200 and json.loads(body)["incidents"] == [],
              "timeline resumes from next_since with no duplicates")
        status, _, body = fetch_full(port, "/api/incidents/timeline?since=1")
        page = json.loads(body)
        check(status == 200
              and all(i["seq"] >= 2 for i in page["incidents"]),
              "timeline ?since=1 skips the first incident")
        for bad in ("-1", "1x", "%2B1", "bogus", "18446744073709551616"):
            status, _, _ = fetch_full(
                port, f"/api/incidents/timeline?since={bad}")
            check(status == 400, f"timeline rejects since={bad}")

        # The evidence drill-down: valid id, unknown id, malformed id.
        if incidents:
            first_seq = incidents[0]["seq"]
            status, headers, body = fetch_full(
                port, f"/api/incidents/{first_seq}/evidence")
            check(status == 200 and headers.get("Content-Type", "")
                  .startswith("application/json"),
                  "/api/incidents/<id>/evidence answers JSON")
            evidence = json.loads(body)
            check(evidence.get("seq") == first_seq
                  and len(evidence.get("events", [])) > 0
                  and len(evidence.get("stages", [])) > 0
                  and evidence.get("trace", {}).get("span") == "live.tick",
                  "evidence carries sampled events, stages, and the trace "
                  "exemplar")
            serve_evidence = body
        status, _, _ = fetch_full(port, "/api/incidents/999999/evidence")
        check(status == 404, "unknown incident id is a 404")
        for bad in ("-1", "abc", "1x"):
            status, _, _ = fetch_full(port, f"/api/incidents/{bad}/evidence")
            check(status == 400, f"malformed incident id {bad!r} is a 400")
    finally:
        code = stop(process)
    check(code == 0, f"dashboard serve exits cleanly on SIGINT (code {code})")

    # `ranomaly explain` replays offline with the same live options the
    # serve above used and must print the exact same evidence bytes.
    if first_seq is not None:
        explain = subprocess.run(
            [binary, "explain", capture, "--incident", str(first_seq),
             "--tick-sec", "10"],
            capture_output=True, text=True, timeout=120)
        check(explain.returncode == 0,
              f"ranomaly explain exits 0 (code {explain.returncode})")
        check(explain.stdout.strip() == serve_evidence.strip(),
              "explain output is byte-identical to the serve evidence JSON")
        unknown = subprocess.run(
            [binary, "explain", capture, "--incident", "999999",
             "--tick-sec", "10"],
            capture_output=True, text=True, timeout=120)
        check(unknown.returncode != 0 and "unknown incident" in unknown.stderr,
              "explain fails loudly for an unknown incident id")


def test_series_matches_serve(binary, capture):
    """`ranomaly series` lists the series a serve of the same stream
    answers on /api/series once its replay is done.  No watchdog, so no
    wall-clock stall can move a health gauge."""
    process, port = spawn_serve(binary, capture,
                                extra=("--watchdog-sec", "0"))
    try:
        for line in process.stdout:
            if line.startswith("replay done"):
                break
        status, body = fetch(port, "/api/series")
    finally:
        stop(process)
    series = subprocess.run(
        [binary, "series", capture, "--tick-sec", "10"],
        capture_output=True, text=True, timeout=120)
    check(status == 200 and series.returncode == 0
          and series.stdout.strip() == body.strip(),
          f"series prints serve's /api/series inventory for "
          f"{os.path.basename(capture)}")
    names = {s["name"] for s in json.loads(body)["series"]}
    check('health_component_state{component="serve"}' in names,
          "the inventory holds the health gauges")


def test_dashboard_off_by_default(binary, capture):
    process, port = spawn_serve(binary, capture)
    try:
        status, _, _ = fetch_full(port, "/dashboard")
        check(status == 404, "/dashboard is 404 without --dashboard")
        status, _, _ = fetch_full(port, "/api/series")
        check(status == 200, "/api/series is always on")
    finally:
        stop(process)


def test_trace_interrupt(binary, capture, workdir):
    trace_path = os.path.join(workdir, "serve_trace.json")
    process = subprocess.Popen(
        [binary, "trace", "--out", trace_path, "--", "serve", capture,
         "--pace-ms", "200", "--tick-sec", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    process.stdout.readline()  # wait for the serving banner
    time.sleep(0.5)
    code = stop(process)
    check(code in (0, 130), f"interrupted trace-wrapped serve exits (code {code})")
    check(os.path.exists(trace_path), "trace file exists after SIGINT")
    check(not os.path.exists(trace_path + ".tmp"),
          "no temp file lingers after finalize")
    with open(trace_path) as handle:
        trace = json.load(handle)
    check("traceEvents" in trace and len(trace["traceEvents"]) > 0,
          "interrupted trace is loadable JSON with events")


def test_graceful_drain_and_restore(binary, capture, workdir):
    """SIGTERM mid-replay must drain: exit 0, cut a final checkpoint, and
    a restart from that checkpoint must announce the resume."""
    checkpoint = os.path.join(workdir, "serve.ckpt")
    process, _port = spawn_serve(
        binary, capture,
        extra=("--checkpoint", checkpoint, "--checkpoint-every-ticks", "4"))
    time.sleep(0.5)  # a few paced ticks into the replay
    process.send_signal(signal.SIGTERM)
    try:
        out = process.communicate(timeout=20)[0]
    except subprocess.TimeoutExpired:
        process.kill()
        out = process.communicate()[0]
    check(process.returncode == 0,
          f"SIGTERM drains with exit 0 (code {process.returncode})")
    check("drained cleanly: final checkpoint durable" in out,
          "drain banner confirms the final checkpoint")
    check(os.path.exists(checkpoint), "checkpoint file exists after drain")
    check(not os.path.exists(checkpoint + ".tmp"),
          "no checkpoint temp file lingers after drain")

    process, _port = spawn_serve(
        binary, capture,
        extra=("--checkpoint", checkpoint, "--exit-after-replay"))
    out = process.communicate(timeout=60)[0]
    check(process.returncode == 0, "restarted serve replays to completion")
    check("restored from checkpoint: resumed at tick" in out,
          f"restart announces the checkpoint resume (got {out!r})")


def main():
    if len(sys.argv) != 2:
        print("usage: serve_endpoints.py /path/to/ranomaly")
        return 2
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="ranomaly_serve_test_") as workdir:
        capture = os.path.join(workdir, "capture.events")
        with open(capture, "w") as handle:
            handle.write(CAPTURE)
        bursty = os.path.join(workdir, "bursty.events")
        with open(bursty, "w") as handle:
            handle.write(incident_capture())
        test_endpoints(binary, capture)
        test_dashboard_and_series(binary, bursty)
        test_series_matches_serve(binary, capture)
        test_series_matches_serve(binary, bursty)
        test_dashboard_off_by_default(binary, capture)
        test_trace_interrupt(binary, capture, workdir)
        test_graceful_drain_and_restore(binary, capture, workdir)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all serve endpoint checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
