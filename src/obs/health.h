// Component health model for the live operations surface.
//
// Each long-lived piece of the system (a peer's feed session, the replay
// pipeline, the HTTP server itself) registers a named component and
// reports OK / DEGRADED / DOWN with a human-readable reason.  Components
// that are supposed to make steady progress additionally Heartbeat(); a
// component whose heartbeat stalls past its deadline is reported
// DEGRADED — both lazily (every Snapshot()/Aggregated() applies the
// check, so readiness is correct even with no watchdog running) and
// eagerly by an optional watchdog thread that persists the mark so the
// stall shows up in state dumps and metrics.
//
// `/readyz` is Aggregated(): worst-of across components, with the
// offending components named in the reason.  Liveness (`/healthz`) is
// *not* derived from this registry — a process that can answer HTTP is
// alive; readiness is the statement that its feeds and pipeline are
// healthy.
//
// Standard-library-only, mutex-guarded, safe to read from the HTTP
// thread while the replay thread writes.  Heartbeat ages use the wall
// (steady) clock: health is metering, never algorithm input (DESIGN.md
// determinism rule).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ranomaly::obs {

enum class HealthState : std::uint8_t { kOk = 0, kDegraded = 1, kDown = 2 };

const char* ToString(HealthState state);

class HealthRegistry {
 public:
  using ComponentId = std::size_t;

  HealthRegistry() = default;
  ~HealthRegistry();  // stops the watchdog
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  // Register-or-find by name.  A fresh component starts kOk with an
  // empty reason and a heartbeat stamped "now".
  ComponentId Register(std::string_view name);

  void SetState(ComponentId id, HealthState state, std::string reason);
  // Stamps the component's heartbeat; if the component was marked
  // DEGRADED *by the stall detector* (not by SetState), it recovers to OK.
  void Heartbeat(ComponentId id);
  // A heartbeat older than `seconds` reports the component DEGRADED.
  // 0 disables stall detection for the component (the default).
  void SetHeartbeatDeadline(ComponentId id, double seconds);

  struct ComponentStatus {
    ComponentId id = 0;
    std::string name;
    HealthState state = HealthState::kOk;
    std::string reason;
    double heartbeat_age_sec = 0.0;  // 0 when stall detection is off
  };

  // All components sorted by name, with the stall check applied.
  std::vector<ComponentStatus> Snapshot() const;

  struct Aggregate {
    HealthState state = HealthState::kOk;
    std::string reason;  // "" when OK; else "name: reason; name: reason"
  };

  // Worst-of over Snapshot(); the reason names every non-OK component.
  Aggregate Aggregated() const;

  // Starts a background thread that applies the stall check every
  // `interval_sec` and *persists* DEGRADED marks (so a stall is visible
  // in stored state, not just computed views).  Idempotent.
  void StartWatchdog(double interval_sec);
  void StopWatchdog();

 private:
  struct Component {
    std::string name;
    HealthState state = HealthState::kOk;
    std::string reason;
    std::int64_t last_heartbeat_ns = 0;
    double deadline_sec = 0.0;
    bool stall_marked = false;  // DEGRADED set by the stall detector
  };

  // Effective state of one component at `now_ns` (applies the stall
  // check without mutating).  Caller holds mu_.
  static ComponentStatus StatusOf(const Component& c, std::int64_t now_ns);
  void WatchdogLoop(double interval_sec);

  mutable std::mutex mu_;
  std::vector<Component> components_;  // id = index; registration order
  std::thread watchdog_;
  bool watchdog_running_ = false;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace ranomaly::obs
