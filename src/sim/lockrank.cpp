#include "sim/lockrank.hpp"

#include <cstdio>

namespace dpc::sim {

const char* lockrank_name(LockRank r) {
  switch (r) {
    case LockRank::kLeaf:
      return "leaf";
    case LockRank::kDevice:
      return "device";
    case LockRank::kStore:
      return "store";
    case LockRank::kDriver:
      return "driver";
    case LockRank::kShard:
      return "shard";
    case LockRank::kFs:
      return "fs";
    case LockRank::kCacheEntry:
      return "cache-entry";
    case LockRank::kCacheBucket:
      return "cache-bucket";
    case LockRank::kCachePass:
      return "cache-pass";
    case LockRank::kSystem:
      return "system";
    case LockRank::kAdapter:
      return "adapter";
  }
  return "?";
}

}  // namespace dpc::sim

#if DPC_LOCKRANK_ENABLED

#include <cstdint>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dpc::sim::lockrank {

namespace {

struct Held {
  const void* key;
  LockRank rank;
  const char* name;
  bool shared;
};

// The held stack is purely thread-local, so rank checks (the common case:
// every acquisition) never touch shared state.
thread_local std::vector<Held> t_held;

// Same-rank acquired-before edges this thread has already pushed into the
// global graph — lets the hot striped-lock paths (kvfs DualLock, kv
// scan_prefix) skip the graph mutex after the first observation.
thread_local std::unordered_set<std::uint64_t> t_edge_seen;

std::uint64_t edge_id(const void* a, const void* b) {
  const auto ha = reinterpret_cast<std::uintptr_t>(a);
  const auto hb = reinterpret_cast<std::uintptr_t>(b);
  // Splittable mix of both addresses; collisions only cost a redundant
  // graph-mutex round trip, never a missed edge.
  std::uint64_t x = (static_cast<std::uint64_t>(ha) * 0x9E3779B97F4A7C15ull) ^
                    (static_cast<std::uint64_t>(hb) + 0x6A09E667F3BCC909ull);
  x ^= x >> 29;
  return x;
}

// Global acquired-before graph over same-rank lock instances. Edge A->B
// means "some thread held A while acquiring B"; each edge stores the
// holder's lock set at first observation so violations can print both
// sides. Keys are raw addresses — a destroyed-and-reallocated mutex could
// in principle alias an old node, which is acceptable for a debug tool and
// resettable per test via reset_for_test().
struct Graph {
  std::mutex mu;
  struct Edge {
    std::string first_seen_holding;
  };
  std::unordered_map<const void*, std::unordered_map<const void*, Edge>> out;
  std::unordered_map<const void*, const char*> node_name;
};

Graph& graph() {
  static Graph* g = new Graph;  // leaked: outlives all static dtors
  return *g;
}

std::string describe(const std::vector<Held>& held) {
  std::ostringstream os;
  if (held.empty()) return "  (none)\n";
  for (const Held& h : held) {
    os << "  \"" << h.name << "\" rank=" << lockrank_name(h.rank) << '('
       << static_cast<int>(h.rank) << ") key=" << h.key
       << (h.shared ? " [shared]\n" : "\n");
  }
  return os.str();
}

// DFS: is `to` reachable from `from` following acquired-before edges?
// Records the path (as node keys) when found. Caller holds g.mu.
bool find_path(const Graph& g, const void* from, const void* to,
               std::unordered_set<const void*>& visited,
               std::vector<const void*>& path) {
  if (from == to) {
    path.push_back(from);
    return true;
  }
  if (!visited.insert(from).second) return false;
  const auto it = g.out.find(from);
  if (it == g.out.end()) return false;
  for (const auto& [next, edge] : it->second) {
    if (find_path(g, next, to, visited, path)) {
      path.push_back(from);
      return true;
    }
  }
  return false;
}

[[noreturn]] void fail(const std::string& msg) {
  std::fputs(msg.c_str(), stderr);
  std::fflush(stderr);
  throw LockOrderError(msg);
}

}  // namespace

void acquire(const void* key, LockRank rank, const char* name, bool shared) {
  // Same-rank held locks whose acquired-before edges to `key` we must
  // record/check. Collected during the rank sweep.
  const Held* same_rank_holder = nullptr;

  for (const Held& h : t_held) {
    if (h.key == key) {
      std::ostringstream os;
      os << "lockrank: recursive acquisition of \"" << name << "\" (key "
         << key << ") — already held by this thread.\nheld locks:\n"
         << describe(t_held);
      fail(os.str());
    }
    if (static_cast<int>(rank) > static_cast<int>(h.rank)) {
      std::ostringstream os;
      os << "lockrank: rank inversion — acquiring \"" << name
         << "\" rank=" << lockrank_name(rank) << '('
         << static_cast<int>(rank) << ") while holding lower-ranked \""
         << h.name << "\" rank=" << lockrank_name(h.rank) << '('
         << static_cast<int>(h.rank)
         << ").\nacquisition order must be descending rank.\nheld locks:\n"
         << describe(t_held);
      fail(os.str());
    }
    if (h.rank == rank) same_rank_holder = &h;
  }

  if (same_rank_holder != nullptr) {
    // Same-rank nesting (striped locks). Record holder->key in the global
    // acquired-before graph unless this thread already did, and reject the
    // edge if the reverse direction is already reachable (a cycle: two
    // orders for the same pair/chain of same-rank locks).
    const void* holder = same_rank_holder->key;
    if (t_edge_seen.insert(edge_id(holder, key)).second) {
      Graph& g = graph();
      std::lock_guard<std::mutex> gl(g.mu);
      g.node_name[holder] = same_rank_holder->name;
      g.node_name[key] = name;
      auto& edges = g.out[holder];
      if (edges.find(key) == edges.end()) {
        std::unordered_set<const void*> visited;
        std::vector<const void*> path;
        if (find_path(g, key, holder, visited, path)) {
          // path is recorded callee-first: holder ... key (reversed).
          std::ostringstream os;
          os << "lockrank: acquired-before cycle — acquiring \"" << name
             << "\" (key " << key << ") while holding \""
             << same_rank_holder->name << "\" (key " << holder
             << "), but the opposite order was already observed:\n  cycle: ";
          for (auto it = path.rbegin(); it != path.rend(); ++it) {
            const auto nit = g.node_name.find(*it);
            os << '"' << (nit != g.node_name.end() ? nit->second : "?")
               << "\"(" << *it << ") -> ";
          }
          os << '"' << name << "\"(" << key << ")\nthis thread holds:\n"
             << describe(t_held);
          // First edge of the recorded reverse path carries the holder set
          // seen when that order was first taken.
          const void* rev_from = path.size() >= 2 ? path[path.size() - 1]
                                                  : key;
          const void* rev_to =
              path.size() >= 2 ? path[path.size() - 2] : holder;
          const auto oit = g.out.find(rev_from);
          if (oit != g.out.end()) {
            const auto eit = oit->second.find(rev_to);
            if (eit != oit->second.end()) {
              os << "opposite order was first taken while holding:\n"
                 << eit->second.first_seen_holding;
            }
          }
          fail(os.str());
        }
        edges.emplace(key, Graph::Edge{describe(t_held)});
      }
    }
  }

  t_held.push_back(Held{key, rank, name, shared});
}

void release(const void* key) {
  // Out-of-LIFO release is legal; search from the top of the stack.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->key == key) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Releasing a lock this thread never recorded: tolerated silently so the
  // reset_for_test() path (which wipes the held set under guards that will
  // still run their destructors) stays usable from tests.
}

void reset_for_test() {
  t_held.clear();
  t_edge_seen.clear();
  Graph& g = graph();
  std::lock_guard<std::mutex> gl(g.mu);
  g.out.clear();
  g.node_name.clear();
  // Note: other threads' t_edge_seen caches are NOT cleared — after a reset
  // they may skip re-inserting an edge they already reported. Tests drive
  // the detector from one thread, where this cannot happen.
}

std::size_t held_count() { return t_held.size(); }

void require_none_below(LockRank floor, const char* site) {
  for (const Held& h : t_held) {
    if (static_cast<int>(h.rank) >= static_cast<int>(floor)) continue;
    std::ostringstream os;
    os << "lockrank: \"" << h.name << "\" rank=" << lockrank_name(h.rank)
       << '(' << static_cast<int>(h.rank) << ") held at wait point \"" << site
       << "\", which allows only rank >= " << lockrank_name(floor) << '('
       << static_cast<int>(floor) << ").\nheld locks:\n"
       << describe(t_held);
    fail(os.str());
  }
}

}  // namespace dpc::sim::lockrank

#endif  // DPC_LOCKRANK_ENABLED
