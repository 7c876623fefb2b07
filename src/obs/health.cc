#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics.h"

namespace ranomaly::obs {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string StallReason(double age_sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "heartbeat stalled for %.1fs", age_sec);
  return buf;
}

}  // namespace

const char* ToString(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "OK";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kDown: return "DOWN";
  }
  return "?";
}

HealthRegistry::~HealthRegistry() { StopWatchdog(); }

HealthRegistry::ComponentId HealthRegistry::Register(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].name == name) return i;
  }
  Component c;
  c.name = std::string(name);
  c.last_heartbeat_ns = NowNs();
  components_.push_back(std::move(c));
  return components_.size() - 1;
}

void HealthRegistry::SetState(ComponentId id, HealthState state,
                              std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= components_.size()) return;
  Component& c = components_[id];
  c.state = state;
  c.reason = std::move(reason);
  c.stall_marked = false;  // explicit state overrides the stall detector
}

void HealthRegistry::Heartbeat(ComponentId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= components_.size()) return;
  Component& c = components_[id];
  c.last_heartbeat_ns = NowNs();
  if (c.stall_marked) {
    // Only the stall detector's mark self-heals; an operator-visible
    // DOWN/DEGRADED set through SetState needs an explicit recovery.
    c.state = HealthState::kOk;
    c.reason.clear();
    c.stall_marked = false;
  }
}

void HealthRegistry::SetHeartbeatDeadline(ComponentId id, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= components_.size()) return;
  components_[id].deadline_sec = seconds;
}

HealthRegistry::ComponentStatus HealthRegistry::StatusOf(
    const Component& c, std::int64_t now_ns) {
  ComponentStatus status;
  status.name = c.name;
  status.state = c.state;
  status.reason = c.reason;
  if (c.deadline_sec > 0.0) {
    status.heartbeat_age_sec =
        static_cast<double>(now_ns - c.last_heartbeat_ns) / 1e9;
    if (status.heartbeat_age_sec > c.deadline_sec &&
        status.state == HealthState::kOk) {
      status.state = HealthState::kDegraded;
      status.reason = StallReason(status.heartbeat_age_sec);
    }
  }
  return status;
}

std::vector<HealthRegistry::ComponentStatus> HealthRegistry::Snapshot() const {
  const std::int64_t now = NowNs();
  std::vector<ComponentStatus> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(components_.size());
    for (ComponentId id = 0; id < components_.size(); ++id) {
      out.push_back(StatusOf(components_[id], now));
      out.back().id = id;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ComponentStatus& a, const ComponentStatus& b) {
              return a.name < b.name;
            });
  return out;
}

HealthRegistry::Aggregate HealthRegistry::Aggregated() const {
  Aggregate agg;
  for (const ComponentStatus& c : Snapshot()) {
    if (c.state == HealthState::kOk) continue;
    if (static_cast<int>(c.state) > static_cast<int>(agg.state)) {
      agg.state = c.state;
    }
    if (!agg.reason.empty()) agg.reason += "; ";
    agg.reason += c.name + ": " + c.reason;
  }
  return agg;
}

void HealthRegistry::StartWatchdog(double interval_sec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (watchdog_running_) return;
  watchdog_running_ = true;
  watchdog_stop_ = false;
  watchdog_ = std::thread([this, interval_sec] { WatchdogLoop(interval_sec); });
}

void HealthRegistry::StopWatchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!watchdog_running_) return;
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
  std::lock_guard<std::mutex> lock(mu_);
  watchdog_running_ = false;
}

void HealthRegistry::WatchdogLoop(double interval_sec) {
  const auto interval = std::chrono::duration<double>(interval_sec);
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, interval, [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const std::int64_t now = NowNs();
    for (Component& c : components_) {
      if (c.deadline_sec <= 0.0 || c.state != HealthState::kOk) continue;
      const double age =
          static_cast<double>(now - c.last_heartbeat_ns) / 1e9;
      if (age > c.deadline_sec) {
        c.state = HealthState::kDegraded;
        c.reason = StallReason(age);
        c.stall_marked = true;
        RANOMALY_METRIC_COUNT("health_watchdog_stalls_total", 1);
      }
    }
  }
}

}  // namespace ranomaly::obs
