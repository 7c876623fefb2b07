#include "obs/provenance.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace ranomaly::obs {
namespace {

const char* AdmissionName(std::uint8_t admission) {
  return admission == 1 ? "shed" : "direct";
}

}  // namespace

ProvenanceLedger::ProvenanceLedger(ProvenanceCaps caps) : caps_(caps) {}

void ProvenanceLedger::Attach(IncidentProvenance record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.empty() && record.seq > evicted_ + 1) {
    // A runner restored from a checkpoint written without a ledger
    // resumes at seq N+1: treat the unexplained prefix as evicted so the
    // contiguity invariant holds.
    evicted_ = record.seq - 1;
  }
  if (record.events.size() > caps_.max_events) {
    record.events.resize(caps_.max_events);
  }
  if (record.classes.size() > caps_.max_classes) {
    record.classes.resize(caps_.max_classes);
  }
  records_.push_back(std::move(record));
  while (records_.size() > caps_.max_incidents) {
    records_.pop_front();
    ++evicted_;
  }
}

std::size_t ProvenanceLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::uint64_t ProvenanceLedger::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::optional<std::string> ProvenanceLedger::EvidenceJson(
    std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), seq,
      [](const IncidentProvenance& r, std::uint64_t s) { return r.seq < s; });
  if (it == records_.end() || it->seq != seq) return std::nullopt;
  const IncidentProvenance& r = *it;

  std::string out = "{\"seq\":" + std::to_string(r.seq);
  out += ",\"kind\":\"" + JsonEscape(r.kind) + "\"";
  out += ",\"stem\":\"" + JsonEscape(r.stem) + "\"";
  out += ",\"stem_key\":[" + std::to_string(r.stem_first) + "," +
         std::to_string(r.stem_second) + "]";
  out += ",\"path\":[";
  for (std::size_t i = 0; i < r.path.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + JsonEscape(r.path[i]) + "\"";
  }
  out += "]";
  out += ",\"window_events\":" + std::to_string(r.window_events);
  out += ",\"component_events\":" + std::to_string(r.component_events);
  out += ",\"component_weight\":" + JsonDouble(r.component_weight);
  out += ",\"trace\":{\"span\":\"live.tick\",\"tick\":" +
         std::to_string(r.trace_tick) + "}";
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"stage\":\"" + JsonEscape(r.stages[i].stage) +
           "\",\"seconds\":" + JsonDouble(r.stages[i].seconds) + "}";
  }
  out += "]";
  out += ",\"events_total\":" + std::to_string(r.events_total);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const ProvenanceEvent& e = r.events[i];
    if (i != 0) out += ",";
    out += "{\"id\":" + std::to_string(e.stream_index);
    out += ",\"time_sec\":" + JsonDouble(e.time_sec);
    out += ",\"type\":\"" + JsonEscape(e.type) + "\"";
    out += ",\"peer\":\"" + JsonEscape(e.peer) + "\"";
    out += ",\"prefix\":\"" + JsonEscape(e.prefix) + "\"";
    out += ",\"admission\":\"";
    out += AdmissionName(e.admission);
    out += "\"}";
  }
  out += "]";
  out += ",\"classes_total\":" + std::to_string(r.classes_total);
  out += ",\"classes\":[";
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const ProvenanceClass& c = r.classes[i];
    if (i != 0) out += ",";
    out += "{\"id\":" + std::to_string(c.id);
    out += ",\"weight\":" + JsonDouble(c.weight);
    out += ",\"score\":" + JsonDouble(c.score);
    out += ",\"sequence\":\"" + JsonEscape(c.sequence) + "\"}";
  }
  out += "]}";
  return out;
}

ProvenanceLedger::Persisted ProvenanceLedger::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  Persisted p;
  p.caps = caps_;
  p.evicted = evicted_;
  p.records.assign(records_.begin(), records_.end());
  return p;
}

std::string ProvenanceLedger::Validate(const Persisted& p) {
  const ProvenanceCaps& caps = p.caps;
  if (caps == ProvenanceCaps{0, 0, 0}) {
    // "No ledger attached" sentinel: nothing may ride along.
    if (p.evicted != 0) return "zero caps with nonzero evicted count";
    if (!p.records.empty()) return "zero caps with records";
    return "";
  }
  if (caps.max_incidents == 0 || caps.max_incidents > kMaxProvenanceIncidents)
    return "max_incidents out of range";
  if (caps.max_events == 0 || caps.max_events > kMaxProvenanceEvents)
    return "max_events out of range";
  if (caps.max_classes == 0 || caps.max_classes > kMaxProvenanceClasses)
    return "max_classes out of range";
  if (p.records.size() > caps.max_incidents)
    return "more records than max_incidents";
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    const IncidentProvenance& r = p.records[i];
    const std::string where = "record " + std::to_string(i) + ": ";
    if (r.seq != p.evicted + i + 1) return where + "seq not contiguous";
    if (r.events.size() > caps.max_events)
      return where + "sampled events exceed max_events";
    if (r.events.size() > r.events_total)
      return where + "more sampled events than events_total";
    if (r.classes.size() > caps.max_classes)
      return where + "classes exceed max_classes";
    if (r.classes.size() > r.classes_total)
      return where + "more classes than classes_total";
    if (r.component_events > r.window_events)
      return where + "component larger than its window";
    for (std::size_t j = 0; j < r.events.size(); ++j) {
      if (r.events[j].admission > 1)
        return where + "event " + std::to_string(j) + " bad admission class";
    }
    for (std::size_t j = 0; j < r.classes.size(); ++j) {
      if (r.classes[j].id != j)
        return where + "class " + std::to_string(j) + " id out of order";
    }
  }
  return "";
}

bool ProvenanceLedger::Restore(Persisted p, std::string* error) {
  const std::string reason = Validate(p);
  if (!reason.empty()) {
    if (error != nullptr) *error = reason;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!(p.caps == ProvenanceCaps{0, 0, 0}) && !(p.caps == caps_)) {
    if (error != nullptr) *error = "caps differ from this ledger's";
    return false;
  }
  records_.assign(std::make_move_iterator(p.records.begin()),
                  std::make_move_iterator(p.records.end()));
  evicted_ = p.caps == ProvenanceCaps{0, 0, 0} ? 0 : p.evicted;
  return true;
}

}  // namespace ranomaly::obs
