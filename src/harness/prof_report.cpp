#include "harness/prof_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "metrics/kmon.h"
#include "trace/trace_export.h"

namespace mach {

namespace {

bool parse_state(const std::string& s, kprof::activity* out) {
  using kprof::activity;
  for (activity a : {activity::running, activity::spinning, activity::lock_waiting,
                     activity::holding, activity::blocked}) {
    if (s == kprof::to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

double num_or(const mini_json::value* v, double def) {
  return v != nullptr && v->is(mini_json::value::kind::number) ? v->num : def;
}

std::uint64_t ms_to_nanos(double ms) {
  return ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1e6);
}

void append_double(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out += std::to_string(static_cast<std::int64_t>(v));
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
  }
}

}  // namespace

bool load_profile(const mini_json::value& doc, kprof::profile* out, std::string* err) {
  *out = kprof::profile{};
  const mini_json::value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(mini_json::value::kind::string) ||
      schema->str != "machlock-kprof-v1") {
    if (err != nullptr) *err = "not a kprof profile: missing schema \"machlock-kprof-v1\"";
    return false;
  }
  if (const mini_json::value* meta = doc.find("meta")) {
    out->hz = num_or(meta->find("hz"), 0.0);
    out->ticks = static_cast<std::uint64_t>(num_or(meta->find("ticks"), 0.0));
    out->duration_nanos = ms_to_nanos(num_or(meta->find("duration_ms"), 0.0));
    out->flight_interval_nanos = ms_to_nanos(num_or(meta->find("flight_interval_ms"), 0.0));
  }
  const mini_json::value* samples = doc.find("samples");
  if (samples == nullptr || !samples->is(mini_json::value::kind::array)) {
    if (err != nullptr) *err = "not a kprof profile: no samples array";
    return false;
  }
  for (const mini_json::value& s : samples->arr) {
    kprof::site_sample ss;
    const mini_json::value* state = s.find("state");
    if (state == nullptr || !parse_state(state->str, &ss.state)) {
      if (err != nullptr) *err = "sample with missing or unknown state";
      return false;
    }
    if (const mini_json::value* site = s.find("site")) ss.site = site->str;
    if (const mini_json::value* rq = s.find("request")) ss.request = rq->b;
    ss.count = static_cast<std::uint64_t>(num_or(s.find("count"), 0.0));
    ss.weight_nanos = ms_to_nanos(num_or(s.find("weight_ms"), 0.0));
    out->sites.push_back(std::move(ss));
  }
  if (const mini_json::value* flight = doc.find("flight")) {
    out->flight_dropped = static_cast<std::uint64_t>(num_or(flight->find("dropped"), 0.0));
    if (const mini_json::value* snaps = flight->find("snapshots");
        snaps != nullptr && snaps->is(mini_json::value::kind::array)) {
      for (const mini_json::value& s : snaps->arr) {
        kprof::flight_snapshot fs;
        fs.nanos = ms_to_nanos(num_or(s.find("t_ms"), 0.0));
        if (const mini_json::value* vals = s.find("values");
            vals != nullptr && vals->is(mini_json::value::kind::object)) {
          for (const auto& [name, v] : vals->obj) {
            if (v.is(mini_json::value::kind::number)) fs.values.emplace_back(name, v.num);
          }
        }
        out->flight.push_back(std::move(fs));
      }
    }
  }
  return true;
}

bool load_profile_file(const std::string& path, kprof::profile* out, std::string* err) {
  mini_json::value doc;
  std::string parse_err;
  if (!mini_json::parse_file(path, &doc, &parse_err)) {
    if (err != nullptr) *err = parse_err;
    return false;
  }
  std::string load_err;
  if (!load_profile(doc, out, &load_err)) {
    if (err != nullptr) *err = path + ": " + load_err;
    return false;
  }
  return true;
}

std::string render_folded(const kprof::profile& p) {
  std::string out;
  for (const kprof::site_sample& s : p.sites) {
    if (s.count == 0) continue;
    out += "kprof;";
    out += s.request ? "request" : "background";
    out += ";";
    out += kprof::to_string(s.state);
    if (!s.site.empty()) {
      // Folded frames may not contain the separator; the site is a lock
      // name or event label, but be defensive.
      out += ";";
      for (char c : s.site) out += c == ';' ? ',' : c;
    }
    out.append(" ").append(std::to_string(s.count)).append("\n");
  }
  return out;
}

std::string render_top(const kprof::profile& p, std::size_t top) {
  struct site_row {
    std::uint64_t spin = 0, wait = 0, hold = 0, blocked = 0;
    std::uint64_t contended_weight = 0;  // spinning + lock-waiting nanos
    std::uint64_t total_weight = 0;
  };
  std::map<std::string, site_row> by_site;
  std::uint64_t total_weight = 0;
  std::uint64_t total_samples = 0;
  for (const kprof::site_sample& s : p.sites) {
    total_weight += s.weight_nanos;
    total_samples += s.count;
    if (s.site.empty()) continue;
    site_row& r = by_site[s.site];
    r.total_weight += s.weight_nanos;
    switch (s.state) {
      case kprof::activity::spinning:
        r.spin += s.count;
        r.contended_weight += s.weight_nanos;
        break;
      case kprof::activity::lock_waiting:
        r.wait += s.count;
        r.contended_weight += s.weight_nanos;
        break;
      case kprof::activity::holding: r.hold += s.count; break;
      case kprof::activity::blocked: r.blocked += s.count; break;
      case kprof::activity::running: break;
    }
  }
  std::vector<std::pair<std::string, site_row>> rows(by_site.begin(), by_site.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.contended_weight != b.second.contended_weight) {
      return a.second.contended_weight > b.second.contended_weight;
    }
    return a.second.total_weight > b.second.total_weight;
  });

  std::ostringstream os;
  os << "kprof: " << total_samples << " thread-samples over " << p.ticks << " ticks ("
     << p.duration_nanos / 1'000'000 << " ms at ";
  char hzbuf[32];
  std::snprintf(hzbuf, sizeof hzbuf, "%g", p.hz);
  os << hzbuf << " Hz), " << by_site.size() << " sites\n";
  os << "sampled sites, most contended first (spin + lock-wait weight):\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-28s %8s %8s %8s %8s %10s %7s\n", "site", "spin", "wait",
                "hold", "blocked", "weight", "share");
  os << line;
  std::size_t printed = 0;
  for (const auto& [site, r] : rows) {
    if (top != 0 && printed++ >= top) break;
    const double share =
        total_weight == 0 ? 0.0
                          : 100.0 * static_cast<double>(r.total_weight) /
                                static_cast<double>(total_weight);
    std::snprintf(line, sizeof line, "  %-28s %8llu %8llu %8llu %8llu %8llums %6.1f%%\n",
                  site.c_str(), static_cast<unsigned long long>(r.spin),
                  static_cast<unsigned long long>(r.wait), static_cast<unsigned long long>(r.hold),
                  static_cast<unsigned long long>(r.blocked),
                  static_cast<unsigned long long>(r.total_weight / 1'000'000), share);
    os << line;
  }
  if (rows.empty()) os << "  (no site-attributed samples)\n";
  return os.str();
}

std::string render_flight_json(const kprof::profile& p) {
  std::string out = "{\"schema\":\"machlock-kprof-flight-v1\",";
  out += "\"interval_ms\":";
  append_double(out, static_cast<double>(p.flight_interval_nanos) / 1e6);
  out += ",\"dropped\":" + std::to_string(p.flight_dropped);
  out += ",\"snapshots\":[";
  const kprof::flight_snapshot* prev = nullptr;
  bool first = true;
  for (const kprof::flight_snapshot& f : p.flight) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"t_ms\":";
    append_double(out, static_cast<double>(f.nanos) / 1e6);
    out += ",\"values\":{";
    bool vfirst = true;
    for (const auto& [name, v] : f.values) {
      if (!vfirst) out += ",";
      vfirst = false;
      out.append("\"").append(json_escape(name)).append("\":");
      append_double(out, v);
    }
    out += "}";
    // Per-interval counter rates against the previous snapshot: the
    // delta-over-time view the end-of-run kmon export cannot give.
    if (prev != nullptr && f.nanos > prev->nanos) {
      out += ",\"rates\":{";
      bool rfirst = true;
      for (const kmon::rate_sample& r : kmon::counter_rates(*prev, f)) {
        if (!rfirst) out += ",";
        rfirst = false;
        out.append("\"").append(json_escape(r.name)).append("\":");
        append_double(out, r.per_second);
      }
      out += "}";
    }
    out += "}";
    prev = &f;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mach
