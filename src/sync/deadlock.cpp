#include "sync/deadlock.h"

#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

namespace mach {

struct wait_graph::impl {
  mutable std::mutex m;
  std::map<const void*, std::string> thread_names;
  std::map<const void*, std::string> resource_names;
  // A thread may wait on several resources at once (a barrier initiator
  // waits for every missing participant).
  std::multimap<const void*, const void*> waits;       // thread -> resource
  std::map<const void*, std::set<const void*>> holds;  // resource -> threads

  std::string thread_name(const void* t) const {
    auto it = thread_names.find(t);
    if (it != thread_names.end()) return it->second;
    std::ostringstream os;
    os << "thread@" << t;
    return os.str();
  }
  std::string resource_name(const void* r) const {
    auto it = resource_names.find(r);
    if (it != resource_names.end()) return it->second;
    std::ostringstream os;
    os << "resource@" << r;
    return os.str();
  }
};

wait_graph& wait_graph::instance() noexcept {
  static wait_graph g;
  return g;
}

wait_graph::impl& wait_graph::self() const {
  static impl i;
  return i;
}

void wait_graph::name_thread(const void* thread, std::string name) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.thread_names[thread] = std::move(name);
}

void wait_graph::thread_waits(const void* thread, const void* resource,
                              const char* resource_name) {
  if (!enabled()) return;
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.waits.emplace(thread, resource);
  if (resource_name != nullptr) s.resource_names[resource] = resource_name;
}

void wait_graph::thread_wait_done(const void* thread, const void* resource) {
  if (!enabled()) return;
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  auto [lo, hi] = s.waits.equal_range(thread);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == resource) {
      s.waits.erase(it);
      return;
    }
  }
}

void wait_graph::resource_held(const void* resource, const void* thread,
                               const char* resource_name) {
  if (!enabled()) return;
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.holds[resource].insert(thread);
  if (resource_name != nullptr) s.resource_names[resource] = resource_name;
}

void wait_graph::resource_released(const void* resource, const void* thread) {
  if (!enabled()) return;
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  auto it = s.holds.find(resource);
  if (it != s.holds.end()) {
    it->second.erase(thread);
    if (it->second.empty()) s.holds.erase(it);
  }
}

namespace {

// DFS over the thread digraph: t -> h iff t waits on r and h holds r.
// Returns the cycle as alternating thread/resource steps.
bool dfs(const wait_graph::impl& s, const void* t, std::set<const void*>& on_path,
         std::set<const void*>& done, std::vector<std::pair<const void*, const void*>>& path) {
  if (done.count(t) != 0) return false;
  if (!on_path.insert(t).second) return true;  // back-edge: cycle found
  auto [lo, hi] = s.waits.equal_range(t);
  for (auto it = lo; it != hi; ++it) {
    const void* r = it->second;
    auto hit = s.holds.find(r);
    if (hit == s.holds.end()) continue;
    for (const void* h : hit->second) {
      if (h == t) continue;  // a thread holding what it waits for is a recursion case handled elsewhere
      path.emplace_back(t, r);
      if (on_path.count(h) != 0) {
        path.emplace_back(h, nullptr);
        return true;
      }
      if (dfs(s, h, on_path, done, path)) return true;
      path.pop_back();
    }
  }
  on_path.erase(t);
  done.insert(t);
  return false;
}

}  // namespace

std::optional<wait_graph::cycle> wait_graph::find_cycle() const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  std::set<const void*> done;
  for (const auto& [t, r] : s.waits) {
    (void)r;
    std::set<const void*> on_path;
    std::vector<std::pair<const void*, const void*>> path;
    if (dfs(s, t, on_path, done, path)) {
      cycle c;
      std::ostringstream os;
      // Trim the path to the cycle proper: it ends at the repeated thread.
      const void* repeat = path.back().first;
      std::size_t start = 0;
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i].first == repeat) {
          start = i;
          break;
        }
      }
      for (std::size_t i = start; i < path.size(); ++i) {
        // The path closes with a repeat of the first thread; keep it in the
        // rendering but not in the thread list.
        if (path[i].second != nullptr) c.threads.push_back(path[i].first);
        os << s.thread_name(path[i].first);
        if (path[i].second != nullptr) {
          os << " -> [" << s.resource_name(path[i].second) << "] -> ";
        }
      }
      c.description = os.str();
      return c;
    }
  }
  return std::nullopt;
}

std::string wait_graph::thread_label(const void* thread) const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return s.thread_name(thread);
}

std::vector<std::string> wait_graph::held_resources() const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  std::vector<std::string> out;
  out.reserve(s.holds.size());
  for (const auto& [resource, holders] : s.holds) {
    std::string line = "[";
    line += s.resource_name(resource);
    line += "] held by ";
    bool first = true;
    for (const void* h : holders) {
      if (!first) line += ", ";
      first = false;
      line += s.thread_name(h);
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::optional<wait_graph::cycle> wait_graph::wait_for_cycle(int timeout_ms, int poll_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto c = find_cycle()) return c;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

void wait_graph::clear() {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.waits.clear();
  s.holds.clear();
  s.resource_names.clear();
  // Thread names persist; they are cheap and useful across rounds.
}

}  // namespace mach
