// DFS backend substrate: a metadata-server cluster and a group of data
// servers (§2.1's architecture: "metadata server (MDS), data server, and
// fs-client").
//
// Metadata is hash-partitioned across MDSes: each name lives on its path's
// home MDS and each FileMeta on its ino's home, the MDS every ino-keyed op
// is charged to. A client that has not cached the metadata view sends every
// request to its *entry* MDS, which forwards to the *home* MDS — the
// forwarding the optimized client eliminates with client-side routing
// ("Client-side I/O forwarding", §2.1).
//
// File data is striped RS(k,m) across the data servers; erasure coding is
// computed either by the home MDS (standard path) or by the client /
// DPC-offloaded client (client-side EC + direct I/O path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "fault/health.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/calib.hpp"
#include "sim/time.hpp"

namespace dpc::dfs {

/// Fault-injection sites on the data-server wire (see src/fault/): a fired
/// read/write behaves as if the target server did not answer in time.
inline constexpr std::string_view kFaultDsReadShard = "dfs.ds/read_shard";
inline constexpr std::string_view kFaultDsWriteShard = "dfs.ds/write_shard";
/// Fail-slow sites (FaultInjector::arm_slow): the peer answers correctly
/// but its service time stretches — gray failure, not an outage.
inline constexpr std::string_view kFaultDsSlow = "dfs.ds/slow";
inline constexpr std::string_view kFaultMdsSlow = "dfs.mds/slow";

using Ino = std::uint64_t;
using ClientId = std::uint32_t;

class DataServers;

/// Redundancy scheme of a file's data (§2.1: "EC or replication is handled
/// by the fs-client").
enum class Redundancy : std::uint8_t {
  kErasure = 0,      ///< RS(k, m) striping
  kReplication = 1,  ///< `replicas` full copies of each stripe unit
};

struct FileMeta {
  Ino ino = 0;
  std::uint64_t size = 0;
  std::uint32_t stripe_unit = 8 * 1024;
  std::uint8_t k = 4;  ///< data shards (erasure coding)
  std::uint8_t m = 2;  ///< parity shards
  Redundancy redundancy = Redundancy::kErasure;
  std::uint8_t replicas = 3;  ///< used when redundancy == kReplication
  ClientId delegation = 0;  ///< 0 = none; else exclusive write delegation
};

/// Cost profile of one backend interaction, accumulated by clients so the
/// figure benches can build their queueing models from measured hop counts.
/// The station fields are *demands* (every shard I/O counted); latency()
/// is the critical path, on which a fan-out wave of shard I/Os counts once.
struct OpProfile {
  sim::Nanos host_cpu{};   ///< host CPU demand
  sim::Nanos dpu_cpu{};    ///< DPU CPU demand (zero for host-side clients)
  sim::Nanos pcie{};       ///< host↔DPU transport demand (DPC client only)
  sim::Nanos mds{};        ///< MDS service demand
  sim::Nanos ds{};         ///< data-server service demand
  sim::Nanos net{};        ///< pure network delay (propagation)
  /// Critical-path time of the fan-out waves (DESIGN.md §5.6): each wave of
  /// shard I/Os issued together adds the time the stripe's winning shards
  /// arrived (its slowest shard when nothing failed), summed across
  /// waves. The tail-tolerance bench reads its per-op latency here.
  sim::Nanos crit{};
  /// The shard demand (ds + net) those waves issued: it stays in `ds` and
  /// `net` for the station models, and latency() takes it back out.
  sim::Nanos overlapped{};
  std::uint32_t mds_ops = 0;
  std::uint32_t ds_ops = 0;
  std::uint32_t forwards = 0;  ///< entry→home forwarding hops

  OpProfile& operator+=(const OpProfile& o);
  /// Completion latency of the backend interaction: serial steps (MDS RPCs,
  /// retry backoffs, shard repairs) in full, each fan-out wave by `crit`.
  sim::Nanos latency() const { return mds + ds + net - overlapped + crit; }
};

/// A write delegation for a client: granted, held by another client (retry
/// later), or refused because the ino is unknown (a final answer).
enum class Grant : std::uint8_t { kGranted, kBusy, kUnknownIno };

/// One metadata server. It is the home (MdsCluster::home_of) of two kinds
/// of record: the names whose path hashes to it, and the FileMeta of the
/// inos that hash to it. A file's two records may live on different MDSes.
class Mds {
 public:
  std::optional<Ino> lookup(const std::string& path) const;
  /// Adds the name; false if it already exists.
  bool add_name(const std::string& path, Ino ino);
  /// Removes the name and returns the ino it named.
  std::optional<Ino> remove_name(const std::string& path);

  /// Installs `ino`'s metadata. `templ` optionally supplies the layout
  /// (stripe geometry, redundancy scheme).
  FileMeta add_file(Ino ino, std::uint64_t size,
                    const FileMeta* templ = nullptr);
  std::optional<FileMeta> stat(Ino ino) const;
  bool update_size(Ino ino, std::uint64_t size);
  /// Grants (or confirms) the exclusive write delegation to `client`.
  Grant acquire_delegation(Ino ino, ClientId client);
  void remove_file(Ino ino);

 private:
  mutable sim::AnnotatedSharedMutex mu_{"mds.meta", sim::LockRank::kShard};
  std::unordered_map<std::string, Ino> names_ GUARDED_BY(mu_);
  std::unordered_map<Ino, FileMeta> files_ GUARDED_BY(mu_);
};

/// The hash-partitioned MDS cluster. All calls take the caller's entry MDS
/// and whether the caller routes directly (metadata view cached); cost and
/// forwarding accounting goes into `prof`.
class MdsCluster {
 public:
  explicit MdsCluster(int servers = sim::calib::kMdsServers);

  int servers() const { return static_cast<int>(mds_.size()); }
  /// Home MDS of a path (namespace ops) / an ino (file ops).
  int home_of(const std::string& path) const;
  int home_of(Ino ino) const;

  /// Namespace & metadata ops, each one RPC to one home: create, lookup
  /// and remove to the path's, the rest to the ino's. `entry` is the
  /// caller's entry MDS index; `direct` true = caller routed to the home
  /// MDS itself.
  std::optional<FileMeta> create(const std::string& path, std::uint64_t size,
                                 int entry, bool direct, OpProfile& prof,
                                 const FileMeta* templ = nullptr);
  std::optional<Ino> lookup(const std::string& path, int entry, bool direct,
                            OpProfile& prof);
  std::optional<FileMeta> stat(Ino ino, int entry, bool direct,
                               OpProfile& prof);
  bool update_size(Ino ino, std::uint64_t size, int entry, bool direct,
                   OpProfile& prof);
  Grant acquire_delegation(Ino ino, ClientId client, int entry, bool direct,
                           OpProfile& prof);
  bool remove(const std::string& path, int entry, bool direct,
              OpProfile& prof);

  /// Server-side EC write: the home MDS receives the data, encodes, and
  /// distributes shards (the non-optimized path). Charged to `prof`.
  bool server_side_write(class DataServers& ds, const ec::ReedSolomon& rs,
                         Ino ino, std::uint64_t offset,
                         std::span<const std::byte> data, int entry,
                         bool direct, OpProfile& prof);
  /// Server-side read through the MDS proxy: the same read engines, with
  /// any EC decode charged to the MDS.
  bool server_side_read(class DataServers& ds, const ec::ReedSolomon& rs,
                        Ino ino, std::uint64_t offset,
                        std::span<std::byte> dst, int entry, bool direct,
                        OpProfile& prof);

  /// Metadata lookup without charging an RPC (internal plumbing).
  std::optional<FileMeta> find_meta(Ino ino) const {
    return mds_[static_cast<std::size_t>(home_of(ino))].stat(ino);
  }

  /// Attaches the fail-slow plumbing: with an injector, each metadata RPC's
  /// MDS service time can stretch at the kFaultMdsSlow site (limping-peer
  /// mode keys on the home MDS index).
  void attach_fault(fault::FaultInjector* fault) { fault_ = fault; }
  /// Creates the per-MDS health scoreboard ("mds" group) feeding the
  /// health/ gauges; every charged RPC records its observed latency.
  void enable_health(obs::Registry* registry,
                     const fault::HealthConfig& cfg = {});
  fault::HealthBoard* health() const { return health_.get(); }

 private:
  /// Adds the cost of one metadata RPC (and the forward if not direct).
  void charge(int home, int entry, bool direct, OpProfile& prof) const;

  std::vector<Mds> mds_;
  fault::FaultInjector* fault_ = nullptr;
  /// mutable: charge() is const but records observations.
  mutable std::unique_ptr<fault::HealthBoard> health_;
  std::atomic<Ino> next_ino_{1};
};

// --------------------------------------------------------------- striping
//
// RS(k,m) striped I/O shared by the home-MDS (server-side EC) and the
// client/DPC (client-side EC) paths. Stripe s covers file bytes
// [s·k·unit, (s+1)·k·unit); data shard d of stripe s holds the d-th unit.
// Sub-shard updates use delta-parity (read old data + parities, xor in the
// coefficient-scaled delta) — this is the read-modify-write cost that makes
// small EC writes expensive wherever they run.
//
// These helpers move bytes and charge data-server/network demands into
// `prof`; the *EC compute* cost is charged by the caller (host CPU, DPU, or
// MDS — that locus is exactly what the paper's offloading changes). The
// shard I/Os of one stripe go out as one fan-out wave (a full-stripe write,
// a read's data shards with any recovery reads, an RMW's reads and then its
// writes), so prof.latency() counts each wave by its slowest shard.

/// Returns false if a constituent shard *read* failed (server down /
/// injected) before any write was issued — the stripe is left untouched so
/// the caller can retry. Shard *writes* to a failed server mark that shard
/// lost (see DataServers::write_shard), which striped_read recovers from.
bool striped_write(DataServers& ds, const ec::ReedSolomon& rs,
                   const FileMeta& meta, std::uint64_t offset,
                   std::span<const std::byte> data, OpProfile& prof);
/// Reads [offset, offset + dst.size()) through the one EC read engine
/// (DESIGN.md §5.6). Per stripe, the needed data shards go out as one wave;
/// a failed one (server down, timed out, rotted or lost) makes recovery
/// reads of the remaining shards mandatory, issued when the failure is
/// known, and the stripe is RS-reconstructed from the first k clean shards
/// (rotted shards whose read completed are repaired in place). Absent
/// shards are holes and read as zeros. Without a health board on `ds`,
/// roles are tried in index order and nothing is speculative; with one,
/// recovery reads go healthiest-first, a quarantined primary is covered
/// from t = 0, and a lagging wave is hedged within the board's budget.
/// Returns false if a touched stripe has fewer than k clean shards.
/// `reconstructed` (optional) reports that at least one stripe was served
/// via RS reconstruction — the caller charges the decode compute to its own
/// locus (host CPU, DPU or MDS).
bool striped_read(DataServers& ds, const ec::ReedSolomon& rs,
                  const FileMeta& meta, std::uint64_t offset,
                  std::span<std::byte> dst, OpProfile& prof,
                  bool* reconstructed = nullptr);

// ------------------------------------------------------------ replication
//
// Replication alternative (§2.1: "EC or replication"): each stripe-unit is
// stored as `replicas` full copies on rotated servers (roles 0..r-1).

/// Returns false if a read-merge of a partial unit failed (see
/// striped_write's contract).
bool replicated_write(DataServers& ds, const FileMeta& meta,
                      std::uint64_t offset, std::span<const std::byte> data,
                      OpProfile& prof);
/// The one replicated read engine: per unit, replicas are tried in index
/// order (healthiest-first with a board, which may also hedge a lagging
/// copy to the next one). A failed or lost copy makes the next one
/// mandatory; the first copy that answers clean or as a hole wins. Returns
/// false if no copy of a touched unit reads back.
bool replicated_read(DataServers& ds, const FileMeta& meta,
                     std::uint64_t offset, std::span<std::byte> dst,
                     OpProfile& prof);

/// Identity of one stored shard (scrubber enumeration / targeted repair).
struct ShardId {
  Ino ino = 0;
  std::uint64_t stripe = 0;
  std::uint32_t role = 0;
};

/// Verification state of a stored shard.
enum class ShardState : std::uint8_t { kOk, kAbsent, kCorrupt };

/// The data-server group. Shards are stored per (ino, stripe, role) where
/// role 0..k-1 are data shards and k..k+m-1 parity. Shard `role` of stripe
/// `s` lives on server (s + role) mod N — rotated placement.
///
/// Every shard carries a CRC32C stamped at write time and salted with
/// (ino, stripe, role), so a shard surfacing under the wrong identity is as
/// detectable as rotted bytes. Reads verify before returning: a corrupt
/// shard reads back as *failed* (never as silent data or a hole), which
/// makes the read engines reconstruct it.
class DataServers {
 public:
  /// With a FaultInjector, shard reads/writes can fail at the
  /// kFaultDsReadShard / kFaultDsWriteShard sites; per-server circuit
  /// breakers (counters in `registry`) fast-fail a server that keeps
  /// timing out. Both optional — defaults behave exactly as before.
  explicit DataServers(int servers = sim::calib::kDataServers,
                       fault::FaultInjector* fault = nullptr,
                       obs::Registry* registry = nullptr);

  int servers() const { return static_cast<int>(servers_.size()); }
  int server_of(Ino ino, std::uint64_t stripe, std::uint32_t role) const;

  /// Reads a whole shard (stripe_unit bytes); absent shards read as zeros
  /// and return false. A *failed* read (server marked down, breaker open,
  /// or injected fault) also zero-fills and returns false, with `*failed`
  /// set — pass `failed` wherever holes and outages must be told apart.
  /// A shard that fails its CRC also zero-fills with `*failed` set (it must
  /// not be mistaken for a hole) and additionally sets `*corrupt` — the
  /// EC read engine uses that to rewrite the damaged shard in place. A
  /// shard marked lost reads as failed.
  bool read_shard(Ino ino, std::uint64_t stripe, std::uint32_t role,
                  std::span<std::byte> dst, OpProfile& prof,
                  bool* failed = nullptr, bool* corrupt = nullptr);
  /// Writes a shard. On a failed server (or injected fault) the write is
  /// lost AND the shard is marked lost — a later read must reconstruct the
  /// new version, never resurrect the old one nor read a hole.
  void write_shard(Ino ino, std::uint64_t stripe, std::uint32_t role,
                   std::span<const std::byte> src, OpProfile& prof);
  /// Deletes every shard of a file (enumeration by stored keys).
  void purge(Ino ino);

  /// Marks a whole data server unreachable (crash / network partition);
  /// reads and writes against it fail until heal_server().
  void fail_server(int server);
  void heal_server(int server);

  /// Rewrites a shard that verification proved damaged (EC read engine /
  /// scrubber). Same motion as write_shard plus a repair counter tick.
  void repair_shard(Ino ino, std::uint64_t stripe, std::uint32_t role,
                    std::span<const std::byte> src, OpProfile& prof);

  /// For tests: lose a stored shard, as a lost disk does — it is marked
  /// lost like a missed write. False if there was no shard to lose.
  bool drop_shard(Ino ino, std::uint64_t stripe, std::uint32_t role);
  /// For tests/fault injection: whether the shard exists (not lost).
  bool has_shard(Ino ino, std::uint64_t stripe, std::uint32_t role) const;
  /// For tests/chaos: flip one stored bit so the shard's CRC no longer
  /// matches (bit-rot at rest). False if the shard does not exist.
  bool corrupt_shard(Ino ino, std::uint64_t stripe, std::uint32_t role,
                     std::uint32_t bit = 0);
  /// Media-only CRC check of one shard — no network/server cost, no
  /// breaker interaction (the scrubber's primitive). Lost reads kAbsent.
  ShardState verify_shard(Ino ino, std::uint64_t stripe,
                          std::uint32_t role) const;
  /// Snapshot of every stored shard's identity, lost ones skipped
  /// (scrubber walk order).
  std::vector<ShardId> stored_shards() const;

  // ---- gray-failure tolerance (DESIGN.md §5.7) --------------------------

  /// Creates the per-server health scoreboard ("ds" group). From then on
  /// every shard access records its observed latency, reads time out at the
  /// board's adaptive deadline instead of waiting out a limping server, and
  /// quarantined servers are skipped (every Nth access probes). Uses the
  /// registry passed at construction for the health/ and hedge/ metrics.
  void enable_health(const fault::HealthConfig& cfg = {});
  fault::HealthBoard* health() const { return health_.get(); }

  /// One staged shard-read attempt: nothing is charged to any OpProfile
  /// until commit_attempt(), which is how the read engines cancel losers
  /// without double-charging DS bytes or DMA accounting. Breaker and
  /// health bookkeeping still happen at probe time (the attempt physically
  /// went to the wire).
  struct ShardAttempt {
    bool ok = false;          ///< clean bytes landed in dst
    bool failed = false;      ///< outage / adaptive-deadline timeout / rot
    bool corrupt = false;     ///< CRC mismatch (subset of failed)
    bool hole = false;        ///< absent shard: dst zero-filled, not failed
    bool fast_failed = false; ///< breaker/quarantine rejected pre-wire
    sim::Nanos latency{};     ///< modelled service+wire time of the attempt
    OpProfile charge;         ///< costs to fold in iff the attempt is used
  };
  /// Stages a read (fills `dst`, charges nothing). The plain read_shard()
  /// below is probe + unconditional commit.
  ShardAttempt probe_read_shard(Ino ino, std::uint64_t stripe,
                                std::uint32_t role, std::span<std::byte> dst);
  /// Folds a used attempt's costs into `prof`.
  static void commit_attempt(const ShardAttempt& a, OpProfile& prof) {
    prof += a.charge;
  }

  /// Hedge counters of the read engines with a health board (null without
  /// a registry).
  struct HedgeCounters {
    obs::Counter* issued = nullptr;     ///< speculative shard reads launched
    obs::Counter* won = nullptr;        ///< stripes finished via a hedge
    obs::Counter* wasted = nullptr;     ///< hedges that arrived but lost
    obs::Counter* cancelled = nullptr;  ///< losers cancelled before payload
    obs::Counter* denied = nullptr;     ///< hedges denied by the budget
    obs::Counter* primary = nullptr;    ///< primary-wave shard reads
  };
  const HedgeCounters& hedge_counters() const { return hedge_; }

 private:
  struct Key {
    Ino ino;
    std::uint64_t stripe;
    std::uint32_t role;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.ino * 0x9e3779b97f4a7c15ULL;
      h ^= k.stripe + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.role + (h << 3);
      return static_cast<std::size_t>(h);
    }
  };
  struct StoredShard {
    std::vector<std::byte> data;
    std::uint32_t crc = 0;  ///< CRC32C salted with (ino, stripe, role)
    /// The shard's current version is gone (a write the server missed, a
    /// lost disk): it reads as failed, and is absent to every other query.
    bool lost = false;
  };
  struct Server {
    mutable sim::AnnotatedSharedMutex mu{"dfs.server",
                                         sim::LockRank::kStore};
    std::unordered_map<Key, StoredShard, KeyHash> shards GUARDED_BY(mu);
    std::atomic<bool> failed{false};
  };

  /// True if the failure gate must run for server `s`; false is the
  /// zero-overhead happy path (no injector, no server ever failed, no
  /// health board watching).
  bool gated() const {
    return fault_ != nullptr || health_ != nullptr ||
           any_failed_.load(std::memory_order_relaxed);
  }
  /// Whether this access fails, charging the wasted attempt and driving
  /// the server's breaker. `fast_failed` = breaker rejected it outright.
  bool access_fails(int server, std::string_view site, bool is_read,
                    std::size_t bytes, OpProfile& prof, bool& fast_failed);

  std::vector<Server> servers_;
  fault::FaultInjector* fault_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::vector<std::unique_ptr<fault::CircuitBreaker>> breakers_;
  std::unique_ptr<fault::HealthBoard> health_;
  std::atomic<bool> any_failed_{false};
  obs::Counter* failed_reads_ = nullptr;
  obs::Counter* failed_writes_ = nullptr;
  obs::Counter* corrupt_reads_ = nullptr;
  obs::Counter* shard_repairs_ = nullptr;
  HedgeCounters hedge_;
};

}  // namespace dpc::dfs
