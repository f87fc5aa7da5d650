#include "dfs/backend.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "ec/crc32c.hpp"
#include "sim/check.hpp"

namespace dpc::dfs {

OpProfile& OpProfile::operator+=(const OpProfile& o) {
  host_cpu += o.host_cpu;
  dpu_cpu += o.dpu_cpu;
  pcie += o.pcie;
  mds += o.mds;
  ds += o.ds;
  net += o.net;
  crit += o.crit;
  overlapped += o.overlapped;
  mds_ops += o.mds_ops;
  ds_ops += o.ds_ops;
  forwards += o.forwards;
  return *this;
}

// ------------------------------------------------------------------- Mds

std::optional<Ino> Mds::lookup(const std::string& path) const {
  sim::SharedLockGuard lock(mu_);
  const auto it = names_.find(path);
  if (it == names_.end()) return std::nullopt;
  return it->second;
}

bool Mds::add_name(const std::string& path, Ino ino) {
  sim::LockGuard lock(mu_);
  return names_.try_emplace(path, ino).second;
}

std::optional<Ino> Mds::remove_name(const std::string& path) {
  sim::LockGuard lock(mu_);
  const auto it = names_.find(path);
  if (it == names_.end()) return std::nullopt;
  const Ino ino = it->second;
  names_.erase(it);
  return ino;
}

FileMeta Mds::add_file(Ino ino, std::uint64_t size, const FileMeta* templ) {
  FileMeta meta;
  if (templ != nullptr) meta = *templ;
  meta.ino = ino;
  meta.size = size;
  meta.delegation = 0;
  sim::LockGuard lock(mu_);
  files_[ino] = meta;
  return meta;
}

std::optional<FileMeta> Mds::stat(Ino ino) const {
  sim::SharedLockGuard lock(mu_);
  const auto it = files_.find(ino);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

bool Mds::update_size(Ino ino, std::uint64_t size) {
  sim::LockGuard lock(mu_);
  const auto it = files_.find(ino);
  if (it == files_.end()) return false;
  it->second.size = std::max(it->second.size, size);
  return true;
}

Grant Mds::acquire_delegation(Ino ino, ClientId client) {
  sim::LockGuard lock(mu_);
  const auto it = files_.find(ino);
  if (it == files_.end()) return Grant::kUnknownIno;
  if (it->second.delegation != 0 && it->second.delegation != client)
    return Grant::kBusy;
  it->second.delegation = client;
  return Grant::kGranted;
}

void Mds::remove_file(Ino ino) {
  sim::LockGuard lock(mu_);
  files_.erase(ino);
}

// ------------------------------------------------------------ MdsCluster

MdsCluster::MdsCluster(int servers) : mds_(static_cast<std::size_t>(servers)) {
  DPC_CHECK(servers >= 1);
}

int MdsCluster::home_of(const std::string& path) const {
  return static_cast<int>(std::hash<std::string>{}(path) % mds_.size());
}

int MdsCluster::home_of(Ino ino) const {
  return static_cast<int>((ino * 0x9e3779b97f4a7c15ULL >> 32) % mds_.size());
}

void MdsCluster::enable_health(obs::Registry* registry,
                               const fault::HealthConfig& cfg) {
  health_ =
      std::make_unique<fault::HealthBoard>("mds", servers(), cfg, registry);
}

void MdsCluster::charge(int home, int entry, bool direct,
                        OpProfile& prof) const {
  using namespace sim::calib;
  sim::Nanos net = kNetHop * 2;  // client ↔ MDS round trip
  sim::Nanos svc = kMdsOp;
  if (!direct && home != entry) {
    // Entry-MDS proxying: an extra hop and the forwarding work.
    net += kNetHop * 2;
    svc += kMdsForward;
    ++prof.forwards;
  }
  // Gray failure: the home MDS may limp (sustained multiplier and/or
  // intermittent stall), stretching this RPC's service time.
  if (fault_ != nullptr) svc += fault_->slow_penalty(kFaultMdsSlow, home, svc);
  prof.net += net;
  prof.mds += svc;
  ++prof.mds_ops;
  if (health_ != nullptr) health_->record(home, net + svc, true);
}

std::optional<FileMeta> MdsCluster::create(const std::string& path,
                                           std::uint64_t size, int entry,
                                           bool direct, OpProfile& prof,
                                           const FileMeta* templ) {
  const int home = home_of(path);
  charge(home, entry, direct, prof);
  const Ino ino = next_ino_.fetch_add(1, std::memory_order_relaxed);
  // The FileMeta goes on the ino's home before the name publishes it, so a
  // lookup never finds an ino without metadata.
  Mds& file_home = mds_[static_cast<std::size_t>(home_of(ino))];
  const FileMeta meta = file_home.add_file(ino, size, templ);
  if (!mds_[static_cast<std::size_t>(home)].add_name(path, ino)) {
    file_home.remove_file(ino);
    return std::nullopt;
  }
  // The path's home installs the FileMeta on the ino's home: one extra
  // internal hop when the two differ.
  if (home_of(ino) != home) prof.net += sim::calib::kNetHop;
  return meta;
}

std::optional<Ino> MdsCluster::lookup(const std::string& path, int entry,
                                      bool direct, OpProfile& prof) {
  const int home = home_of(path);
  charge(home, entry, direct, prof);
  return mds_[static_cast<std::size_t>(home)].lookup(path);
}

std::optional<FileMeta> MdsCluster::stat(Ino ino, int entry, bool direct,
                                         OpProfile& prof) {
  const int home = home_of(ino);
  charge(home, entry, direct, prof);
  return mds_[static_cast<std::size_t>(home)].stat(ino);
}

bool MdsCluster::update_size(Ino ino, std::uint64_t size, int entry,
                             bool direct, OpProfile& prof) {
  const int home = home_of(ino);
  charge(home, entry, direct, prof);
  return mds_[static_cast<std::size_t>(home)].update_size(ino, size);
}

Grant MdsCluster::acquire_delegation(Ino ino, ClientId client, int entry,
                                     bool direct, OpProfile& prof) {
  const int home = home_of(ino);
  charge(home, entry, direct, prof);
  return mds_[static_cast<std::size_t>(home)].acquire_delegation(ino, client);
}

bool MdsCluster::remove(const std::string& path, int entry, bool direct,
                        OpProfile& prof) {
  const int home = home_of(path);
  charge(home, entry, direct, prof);
  const auto ino = mds_[static_cast<std::size_t>(home)].remove_name(path);
  if (!ino) return false;
  // Dropping the FileMeta is the same internal hop create() pays.
  if (home_of(*ino) != home) prof.net += sim::calib::kNetHop;
  mds_[static_cast<std::size_t>(home_of(*ino))].remove_file(*ino);
  return true;
}

bool MdsCluster::server_side_write(DataServers& ds, const ec::ReedSolomon& rs,
                                   Ino ino, std::uint64_t offset,
                                   std::span<const std::byte> data, int entry,
                                   bool direct, OpProfile& prof) {
  using namespace sim::calib;
  // Client sends the data to the MDS (packed small-I/O path, §2.1 DIO):
  // payload rides the metadata message.
  const int home = home_of(ino);
  charge(home, entry, direct, prof);
  prof.net += sim::Nanos{static_cast<std::int64_t>(
      static_cast<double>(data.size()) / (kDfsWriteGBps * 1e9) * 1e9)};

  auto meta = find_meta(ino);
  if (!meta) return false;
  // The home MDS handles the payload (proxy path) and computes EC — server
  // CPU burns here, not client CPU.
  prof.mds += sim::calib::kMdsProxyPerOp;
  if (meta->redundancy == Redundancy::kReplication) {
    if (!replicated_write(ds, *meta, offset, data, prof)) return false;
  } else {
    prof.mds += ec::ReedSolomon::host_encode_cost(data.size());
    if (!striped_write(ds, rs, *meta, offset, data, prof)) return false;
  }
  // …and lazily updates the size.
  mds_[static_cast<std::size_t>(home)].update_size(ino, offset + data.size());
  return true;
}

bool MdsCluster::server_side_read(DataServers& ds, const ec::ReedSolomon& rs,
                                  Ino ino, std::uint64_t offset,
                                  std::span<std::byte> dst, int entry,
                                  bool direct, OpProfile& prof) {
  using namespace sim::calib;
  const int home = home_of(ino);
  charge(home, entry, direct, prof);
  prof.net += sim::Nanos{static_cast<std::int64_t>(
      static_cast<double>(dst.size()) / (kDfsReadGBps * 1e9) * 1e9)};
  auto meta = find_meta(ino);
  if (!meta) return false;
  prof.mds += sim::calib::kMdsProxyPerOp;  // proxied data path
  if (meta->redundancy == Redundancy::kReplication)
    return replicated_read(ds, *meta, offset, dst, prof);
  bool reconstructed = false;
  if (!striped_read(ds, rs, *meta, offset, dst, prof, &reconstructed))
    return false;
  // The MDS proxies this I/O, so a reconstruct's decode burns server-side.
  if (reconstructed) prof.mds += ec::ReedSolomon::host_encode_cost(dst.size());
  return true;
}

// ------------------------------------------------------------ DataServers

namespace {
sim::Nanos shard_net_cost(bool is_read, std::size_t bytes) {
  using namespace sim::calib;
  const double gbps = is_read ? kDfsReadGBps : kDfsWriteGBps;
  return kNetHop * 2 + sim::Nanos{static_cast<std::int64_t>(
                           static_cast<double>(bytes) / (gbps * 1e9) * 1e9)};
}

/// The checksum stamp helper: CRC32C over the shard bytes, salted with the
/// shard's full identity so a shard that surfaces under the wrong
/// (ino, stripe, role) — a misdirected or crossed-wire write — fails
/// verification exactly like rotted bytes.
std::uint32_t stamp_shard_crc(Ino ino, std::uint64_t stripe,
                              std::uint32_t role,
                              std::span<const std::byte> data) {
  std::uint32_t seed = ec::crc32c_u64(ino);
  seed = ec::crc32c_u64(stripe, seed);
  seed = ec::crc32c_u64(role, seed);
  return ec::crc32c(data, seed);
}
}  // namespace

DataServers::DataServers(int servers, fault::FaultInjector* fault,
                         obs::Registry* registry)
    : servers_(static_cast<std::size_t>(servers)), fault_(fault) {
  DPC_CHECK(servers >= 1);
  breakers_.reserve(static_cast<std::size_t>(servers));
  for (int s = 0; s < servers; ++s) {
    breakers_.push_back(std::make_unique<fault::CircuitBreaker>(
        fault::CircuitBreaker::Config{}, registry));
  }
  registry_ = registry;
  if (registry != nullptr) {
    failed_reads_ = &registry->counter("dfs.ds/failed_reads");
    failed_writes_ = &registry->counter("dfs.ds/failed_writes");
    corrupt_reads_ = &registry->counter("dfs.ds/corrupt_reads");
    shard_repairs_ = &registry->counter("dfs.ds/shard_repairs");
    hedge_.issued = &registry->counter("hedge/issued");
    hedge_.won = &registry->counter("hedge/won");
    hedge_.wasted = &registry->counter("hedge/wasted");
    hedge_.cancelled = &registry->counter("hedge/cancelled");
    hedge_.denied = &registry->counter("hedge/denied");
    hedge_.primary = &registry->counter("dfs.ds/primary_reads");
  }
}

void DataServers::enable_health(const fault::HealthConfig& cfg) {
  health_ = std::make_unique<fault::HealthBoard>("ds", servers(), cfg,
                                                 registry_);
}

void DataServers::fail_server(int server) {
  servers_[static_cast<std::size_t>(server)].failed.store(
      true, std::memory_order_release);
  any_failed_.store(true, std::memory_order_release);
}

void DataServers::heal_server(int server) {
  // any_failed_ stays set: the gate keeps running (cheap) and the server's
  // breaker closes itself on the first successful probe.
  servers_[static_cast<std::size_t>(server)].failed.store(
      false, std::memory_order_release);
}

bool DataServers::access_fails(int server, std::string_view site,
                               bool is_read, std::size_t bytes,
                               OpProfile& prof, bool& fast_failed) {
  fast_failed = false;
  fault::CircuitBreaker& br = *breakers_[static_cast<std::size_t>(server)];
  if (!br.allow()) {
    // Circuit open: fail immediately without burning a network round trip
    // or server slot — the whole point of the breaker.
    fast_failed = true;
    return true;
  }
  const bool down =
      servers_[static_cast<std::size_t>(server)].failed.load(
          std::memory_order_acquire) ||
      (fault_ != nullptr && fault_->should_fail(site));
  if (down) {
    // The attempt went to the wire and timed out: charge it.
    prof.ds += sim::calib::kDataServerOp;
    prof.net += shard_net_cost(is_read, bytes);
    ++prof.ds_ops;
    br.on_failure();
    return true;
  }
  br.on_success();
  return false;
}

int DataServers::server_of(Ino ino, std::uint64_t stripe,
                           std::uint32_t role) const {
  // Rotated placement spreads parity load across servers.
  return static_cast<int>((ino + stripe + role) % servers_.size());
}

DataServers::ShardAttempt DataServers::probe_read_shard(
    Ino ino, std::uint64_t stripe, std::uint32_t role,
    std::span<std::byte> dst) {
  ShardAttempt a;
  const int server = server_of(ino, stripe, role);
  if (gated()) {
    // Quarantine gate first: a peer the health board has sidelined is
    // skipped before the breaker or the wire (every Nth access slips
    // through as a reintegration probe). Skipping costs nothing.
    if (health_ != nullptr && !health_->allow(server)) {
      a.failed = true;
      a.fast_failed = true;
      if (failed_reads_ != nullptr) failed_reads_->add();
      std::memset(dst.data(), 0, dst.size());
      return a;
    }
    bool fast = false;
    OpProfile down_charge;
    if (access_fails(server, kFaultDsReadShard, /*is_read=*/true, dst.size(),
                     down_charge, fast)) {
      a.failed = true;
      a.fast_failed = fast;
      if (!fast) {
        if (health_ != nullptr) {
          // The attempt went to the wire and died. With a health board the
          // wait is the *adaptive* deadline (recorded as a censored
          // timeout), replacing access_fails' fixed per-op charge.
          const sim::Nanos dl = health_->deadline();
          a.latency = dl;
          a.charge.ds += dl;
          a.charge.net += sim::calib::kNetHop * 2;
          ++a.charge.ds_ops;
          health_->record(server, dl, /*ok=*/false);
        } else {
          a.charge = down_charge;
          a.latency =
              sim::calib::kDataServerOp + shard_net_cost(true, dst.size());
        }
      }
      if (failed_reads_ != nullptr) failed_reads_->add();
      std::memset(dst.data(), 0, dst.size());
      return a;
    }
  }
  sim::Nanos svc = sim::calib::kDataServerOp;
  const sim::Nanos net = shard_net_cost(true, dst.size());
  if (fault_ != nullptr)
    svc += fault_->slow_penalty(kFaultDsSlow, server, svc + net);
  const sim::Nanos total = svc + net;
  if (health_ != nullptr) {
    const sim::Nanos dl = health_->deadline();
    if (total.ns > dl.ns) {
      // Gray failure: the answer exists but won't arrive inside the
      // adaptive deadline — a modelled timeout. It strikes the health board
      // (the slow tier), not the breaker: the server is up, not down, and
      // opening a binary breaker on slowness would conflate the two.
      a.failed = true;
      a.latency = dl;
      a.charge.ds += dl;
      a.charge.net += sim::calib::kNetHop * 2;
      ++a.charge.ds_ops;
      health_->record(server, dl, /*ok=*/false);
      if (failed_reads_ != nullptr) failed_reads_->add();
      std::memset(dst.data(), 0, dst.size());
      return a;
    }
    health_->record(server, total, /*ok=*/true);
  }
  a.latency = total;
  a.charge.ds += svc;
  a.charge.net += net;
  ++a.charge.ds_ops;
  Server& sv = servers_[static_cast<std::size_t>(server)];
  sim::SharedLockGuard lock(sv.mu);
  const auto it = sv.shards.find(Key{ino, stripe, role});
  if (it == sv.shards.end()) {
    a.hole = true;
    std::memset(dst.data(), 0, dst.size());
    return a;
  }
  if (it->second.lost) {
    // The server knows it lost this shard's current version: a failure the
    // read engines recover from, never a hole that reads back as zeros.
    if (failed_reads_ != nullptr) failed_reads_->add();
    a.failed = true;
    std::memset(dst.data(), 0, dst.size());
    return a;
  }
  if (stamp_shard_crc(ino, stripe, role, it->second.data) !=
      it->second.crc) {
    // Damaged at rest. Report a *failure*, not a hole: zeros here would be
    // silently wrong data, and "absent" semantics would let a reconstruct
    // treat the rot as an erasure it can't tell from a legitimate hole.
    // The answer arrived on time, so health records it ok above — corruption
    // is not slowness, and neither the breaker nor quarantine should trip.
    if (corrupt_reads_ != nullptr) corrupt_reads_->add();
    a.failed = true;
    a.corrupt = true;
    std::memset(dst.data(), 0, dst.size());
    return a;
  }
  const auto n = std::min(dst.size(), it->second.data.size());
  std::memcpy(dst.data(), it->second.data.data(), n);
  if (n < dst.size()) std::memset(dst.data() + n, 0, dst.size() - n);
  a.ok = true;
  return a;
}

bool DataServers::read_shard(Ino ino, std::uint64_t stripe, std::uint32_t role,
                             std::span<std::byte> dst, OpProfile& prof,
                             bool* failed, bool* corrupt) {
  ShardAttempt a = probe_read_shard(ino, stripe, role, dst);
  commit_attempt(a, prof);
  if (failed != nullptr) *failed = a.failed;
  if (corrupt != nullptr) *corrupt = a.corrupt;
  return a.ok;
}

void DataServers::write_shard(Ino ino, std::uint64_t stripe,
                              std::uint32_t role,
                              std::span<const std::byte> src,
                              OpProfile& prof) {
  const int server = server_of(ino, stripe, role);
  Server& sv = servers_[static_cast<std::size_t>(server)];
  if (gated()) {
    bool fast = false;
    if (access_fails(server, kFaultDsWriteShard, /*is_read=*/false,
                     src.size(), prof, fast)) {
      if (failed_writes_ != nullptr) failed_writes_->add();
      // The new version never reached the server, so its old copy is now a
      // stale version. Mark the shard lost (models per-shard version
      // checks): a read must reconstruct the new bytes from the surviving
      // shards, never serve the outdated ones nor a hole's zeros.
      sim::LockGuard lock(sv.mu);
      sv.shards[Key{ino, stripe, role}] = StoredShard{{}, 0, /*lost=*/true};
      return;
    }
  }
  sim::Nanos svc = sim::calib::kDataServerOp;
  const sim::Nanos net = shard_net_cost(false, src.size());
  if (fault_ != nullptr)
    svc += fault_->slow_penalty(kFaultDsSlow, server, svc + net);
  prof.ds += svc;
  prof.net += net;
  ++prof.ds_ops;
  // Writes have no deadline cut: timing out a write that in fact landed
  // would invalidate the shard and amplify a limp into repair churn.
  // Sustained write slowness still feeds the scoreboard and quarantine.
  if (health_ != nullptr) health_->record(server, svc + net, /*ok=*/true);
  sim::LockGuard lock(sv.mu);
  StoredShard& st = sv.shards[Key{ino, stripe, role}];
  st.data.assign(src.begin(), src.end());
  st.crc = stamp_shard_crc(ino, stripe, role, st.data);
  st.lost = false;
}

void DataServers::repair_shard(Ino ino, std::uint64_t stripe,
                               std::uint32_t role,
                               std::span<const std::byte> src,
                               OpProfile& prof) {
  write_shard(ino, stripe, role, src, prof);
  if (shard_repairs_ != nullptr) shard_repairs_->add();
}

void DataServers::purge(Ino ino) {
  for (auto& sv : servers_) {
    sim::LockGuard lock(sv.mu);
    for (auto it = sv.shards.begin(); it != sv.shards.end();) {
      it = it->first.ino == ino ? sv.shards.erase(it) : std::next(it);
    }
  }
}

bool DataServers::drop_shard(Ino ino, std::uint64_t stripe,
                             std::uint32_t role) {
  Server& sv = servers_[static_cast<std::size_t>(server_of(ino, stripe, role))];
  sim::LockGuard lock(sv.mu);
  const auto it = sv.shards.find(Key{ino, stripe, role});
  if (it == sv.shards.end() || it->second.lost) return false;
  it->second = StoredShard{{}, 0, /*lost=*/true};
  return true;
}

bool DataServers::has_shard(Ino ino, std::uint64_t stripe,
                            std::uint32_t role) const {
  const Server& sv =
      servers_[static_cast<std::size_t>(server_of(ino, stripe, role))];
  sim::SharedLockGuard lock(sv.mu);
  const auto it = sv.shards.find(Key{ino, stripe, role});
  return it != sv.shards.end() && !it->second.lost;
}

bool DataServers::corrupt_shard(Ino ino, std::uint64_t stripe,
                                std::uint32_t role, std::uint32_t bit) {
  Server& sv =
      servers_[static_cast<std::size_t>(server_of(ino, stripe, role))];
  sim::LockGuard lock(sv.mu);
  const auto it = sv.shards.find(Key{ino, stripe, role});
  if (it == sv.shards.end() || it->second.data.empty()) return false;
  bit %= static_cast<std::uint32_t>(it->second.data.size() * 8);
  it->second.data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  return true;
}

ShardState DataServers::verify_shard(Ino ino, std::uint64_t stripe,
                                     std::uint32_t role) const {
  const Server& sv =
      servers_[static_cast<std::size_t>(server_of(ino, stripe, role))];
  sim::SharedLockGuard lock(sv.mu);
  const auto it = sv.shards.find(Key{ino, stripe, role});
  if (it == sv.shards.end() || it->second.lost) return ShardState::kAbsent;
  return stamp_shard_crc(ino, stripe, role, it->second.data) ==
                 it->second.crc
             ? ShardState::kOk
             : ShardState::kCorrupt;
}

std::vector<ShardId> DataServers::stored_shards() const {
  std::vector<ShardId> out;
  for (const auto& sv : servers_) {
    sim::SharedLockGuard lock(sv.mu);
    for (const auto& [key, shard] : sv.shards)
      if (!shard.lost) out.push_back({key.ino, key.stripe, key.role});
  }
  return out;
}

// --------------------------------------------------------------- striping

namespace {

/// One fan-out wave (DESIGN.md §5.6): shard I/Os to one stripe issued
/// together, so the op waits for the slowest of them, not their sum. Each
/// shard's charge lands in the op's demands as before; closing the wave
/// moves the summed shard time into `overlapped` and adds the wave's
/// critical path to `crit`. A wave closes at scope exit, so an early return
/// still accounts the shards it issued.
class Wave {
 public:
  Wave(DataServers& ds, Ino ino, std::uint64_t stripe, OpProfile& prof)
      : ds_(ds), ino_(ino), stripe_(stripe), prof_(prof) {}
  Wave(const Wave&) = delete;
  Wave& operator=(const Wave&) = delete;
  ~Wave() { close(slowest_); }

  /// DataServers::read_shard as a shard of this wave.
  bool read(std::uint32_t role, std::span<std::byte> dst,
            bool* failed = nullptr, bool* corrupt = nullptr) {
    OpProfile shard;
    const bool ok = ds_.read_shard(ino_, stripe_, role, dst, shard, failed,
                                   corrupt);
    add(shard);
    return ok;
  }
  /// DataServers::write_shard as a shard of this wave.
  void write(std::uint32_t role, std::span<const std::byte> src) {
    OpProfile shard;
    ds_.write_shard(ino_, stripe_, role, src, shard);
    add(shard);
  }
  /// Folds one shard I/O's charge into the op.
  void add(const OpProfile& shard) {
    prof_ += shard;
    const sim::Nanos t = shard.ds + shard.net;
    summed_ += t;
    slowest_ = std::max(slowest_, t);
  }
  /// Closes on a critical path the caller timed itself (the read engines'
  /// completion time) instead of the slowest shard.
  void close(sim::Nanos crit) {
    if (closed_) return;
    closed_ = true;
    prof_.overlapped += summed_;
    prof_.crit += crit;
  }

 private:
  DataServers& ds_;
  Ino ino_;
  std::uint64_t stripe_;
  OpProfile& prof_;
  sim::Nanos summed_{};
  sim::Nanos slowest_{};
  bool closed_ = false;
};

}  // namespace

bool striped_write(DataServers& ds, const ec::ReedSolomon& rs,
                   const FileMeta& meta, std::uint64_t offset,
                   std::span<const std::byte> data, OpProfile& prof) {
  const std::uint32_t unit = meta.stripe_unit;
  const int k = meta.k;
  const int m = meta.m;
  DPC_CHECK(rs.data_shards() == k && rs.parity_shards() == m);
  const std::uint64_t stripe_bytes = std::uint64_t{unit} * k;

  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t stripe = pos / stripe_bytes;
    const std::uint64_t in_stripe = pos % stripe_bytes;

    // Full-stripe fast path: an aligned write covering the whole stripe
    // encodes parity directly from the new data — k+m writes, zero reads
    // (the classic full-stripe-write optimization; the RMW below is only
    // for sub-stripe updates).
    if (in_stripe == 0 && data.size() - done >= stripe_bytes) {
      std::vector<std::span<const std::byte>> dviews;
      dviews.reserve(static_cast<std::size_t>(k));
      for (int d2 = 0; d2 < k; ++d2) {
        dviews.push_back(data.subspan(done + static_cast<std::size_t>(d2) * unit, unit));
      }
      std::vector<std::vector<std::byte>> parity(
          static_cast<std::size_t>(m), std::vector<std::byte>(unit));
      std::vector<std::span<std::byte>> pviews(parity.begin(), parity.end());
      rs.encode(dviews, pviews);
      Wave wave(ds, meta.ino, stripe, prof);
      for (int d2 = 0; d2 < k; ++d2)
        wave.write(static_cast<std::uint32_t>(d2),
                   dviews[static_cast<std::size_t>(d2)]);
      for (int p = 0; p < m; ++p)
        wave.write(static_cast<std::uint32_t>(k + p),
                   parity[static_cast<std::size_t>(p)]);
      done += stripe_bytes;
      continue;
    }

    const auto d = static_cast<int>(in_stripe / unit);
    const auto in_shard = static_cast<std::uint32_t>(in_stripe % unit);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(data.size() - done, unit - in_shard));

    // Delta-parity read-modify-write of one data shard. All reads happen
    // before any write: computing a delta against zeros from a *failed*
    // read (rather than the true old bytes) would silently corrupt parity,
    // so a read failure aborts the op with the stripe untouched. The reads
    // are one wave and the writes a second.
    std::vector<std::byte> old_shard(unit);
    std::vector<std::vector<std::byte>> parity(
        static_cast<std::size_t>(m), std::vector<std::byte>(unit));
    {
      Wave reads(ds, meta.ino, stripe, prof);
      bool rfail = false;
      reads.read(static_cast<std::uint32_t>(d), old_shard, &rfail);
      if (rfail) return false;
      for (int p = 0; p < m; ++p) {
        reads.read(static_cast<std::uint32_t>(k + p),
                   parity[static_cast<std::size_t>(p)], &rfail);
        if (rfail) return false;
      }
    }

    std::vector<std::byte> new_shard = old_shard;
    std::memcpy(new_shard.data() + in_shard, data.data() + done, chunk);

    std::vector<std::byte> delta(unit);
    for (std::uint32_t i = 0; i < unit; ++i)
      delta[i] = old_shard[i] ^ new_shard[i];

    Wave writes(ds, meta.ino, stripe, prof);
    writes.write(static_cast<std::uint32_t>(d), new_shard);
    for (int p = 0; p < m; ++p) {
      rs.apply_delta(parity[static_cast<std::size_t>(p)], p, d, delta);
      writes.write(static_cast<std::uint32_t>(k + p),
                   parity[static_cast<std::size_t>(p)]);
    }
    done += chunk;
  }
  return true;
}

// ------------------------------------------------------------ replication

bool replicated_write(DataServers& ds, const FileMeta& meta,
                      std::uint64_t offset, std::span<const std::byte> data,
                      OpProfile& prof) {
  DPC_CHECK(meta.redundancy == Redundancy::kReplication);
  const std::uint32_t unit = meta.stripe_unit;
  std::size_t done = 0;
  std::vector<std::byte> shard(unit);
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t stripe = pos / unit;
    const auto in_unit = static_cast<std::uint32_t>(pos % unit);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(data.size() - done, unit - in_unit));
    std::span<const std::byte> payload;
    if (chunk == unit) {
      payload = data.subspan(done, unit);
    } else {
      // Partial unit: read-merge through the read engine — merging into
      // zeros from a failed read would wipe the rest of the unit.
      if (!replicated_read(ds, meta, stripe * unit, shard, prof)) return false;
      std::memcpy(shard.data() + in_unit, data.data() + done, chunk);
      payload = shard;
    }
    Wave copies(ds, meta.ino, stripe, prof);
    for (std::uint32_t r = 0; r < meta.replicas; ++r) copies.write(r, payload);
    done += chunk;
  }
  return true;
}

// ------------------------------------------------------------ read engines
//
// One engine per redundancy scheme (DESIGN.md §5.6). Each stripe (or
// replica group) is a fan-out on a local timeline: every attempt is
// *staged* via probe_read_shard (outcome and cost known, nothing charged),
// completion events are ordered, and only the attempts that finished by the
// winning time commit their costs. An attempt still in flight when the op
// completes is a cancelled loser — it charges nothing, exactly like a real
// cancellation releasing the slot. Without a health board, roles and
// replicas are tried in index order and nothing is speculative; a board
// ranks them by health and lets laggards be hedged (DESIGN.md §5.7).

namespace {

constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max();

/// A shard read staged on the fan-out timeline.
struct Attempt {
  bool issued = false;
  bool speculative = false;  ///< budgeted hedge (vs primary / mandatory)
  bool winner = false;       ///< one of the shards the op completed with
  sim::Nanos start{};        ///< when the attempt launched
  DataServers::ShardAttempt a;
  std::span<std::byte> buf;  ///< the whole shard: in dst, or in scratch
};

/// When the attempt's outcome is known: answers (clean, hole, corrupt) and
/// deadline timeouts at start+latency; breaker/quarantine fast-fails
/// immediately (latency is zero).
std::int64_t done_at(const Attempt& at) {
  return at.start.ns + at.a.latency.ns;
}

/// Maps server → position in the board's healthiest-first ranking.
std::vector<int> rank_by_health(const fault::HealthBoard& board, int servers) {
  std::vector<int> rank(static_cast<std::size_t>(servers), 0);
  const std::vector<int> order = board.ranked();
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  return rank;
}

/// Stripe-unit buffers for shards that cannot land straight in the
/// caller's dst (partial chunks, recovery reads), allocated on first use.
class Scratch {
 public:
  Scratch(std::size_t slots, std::uint32_t unit) : slots_(slots), unit_(unit) {}
  std::span<std::byte> slot(std::size_t i) {
    if (!bytes_)
      bytes_ = std::make_unique_for_overwrite<std::byte[]>(slots_ * unit_);
    return {bytes_.get() + i * unit_, unit_};
  }

 private:
  std::size_t slots_;
  std::uint32_t unit_;
  std::unique_ptr<std::byte[]> bytes_;
};

/// Without a board there is no hedging to count.
const DataServers::HedgeCounters kNoHedgeCounters{};

}  // namespace

bool striped_read(DataServers& ds, const ec::ReedSolomon& rs,
                  const FileMeta& meta, std::uint64_t offset,
                  std::span<std::byte> dst, OpProfile& prof,
                  bool* reconstructed) {
  DPC_CHECK(meta.redundancy == Redundancy::kErasure);
  fault::HealthBoard* board = ds.health();
  const DataServers::HedgeCounters& hc =
      board != nullptr ? ds.hedge_counters() : kNoHedgeCounters;
  const std::uint32_t unit = meta.stripe_unit;
  const int k = meta.k;
  const int m = meta.m;
  const int total = k + m;
  DPC_CHECK(rs.data_shards() == k && rs.parity_shards() == m);
  const std::uint64_t stripe_bytes = std::uint64_t{unit} * k;
  if (reconstructed != nullptr) *reconstructed = false;

  /// Per role: the stripe's attempt, and the chunk of dst it serves.
  struct Role {
    Attempt at;
    bool needed = false;
    std::uint32_t in_shard = 0;
    std::uint32_t chunk = 0;
    std::size_t dst_at = 0;
  };
  std::vector<Role> roles(static_cast<std::size_t>(total));
  Scratch scratch(static_cast<std::size_t>(total), unit);

  std::size_t done = 0;
  while (done < dst.size()) {
    const std::uint64_t stripe = (offset + done) / stripe_bytes;
    std::fill(roles.begin(), roles.end(), Role{});

    // Which data roles this stripe contributes, and where each chunk lands:
    // a whole unit straight into dst, a partial one via its scratch slot.
    std::size_t local = done;
    while (local < dst.size() && (offset + local) / stripe_bytes == stripe) {
      const std::uint64_t in_stripe = (offset + local) % stripe_bytes;
      const auto d = static_cast<std::size_t>(in_stripe / unit);
      Role& r = roles[d];
      r.needed = true;
      r.in_shard = static_cast<std::uint32_t>(in_stripe % unit);
      r.chunk = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(dst.size() - local, unit - r.in_shard));
      r.dst_at = local;
      r.at.buf = r.chunk == unit ? dst.subspan(local, unit) : scratch.slot(d);
      local += r.chunk;
    }

    // Primary wave: the needed data shards, fanned out at t = 0. A primary
    // on an already-quarantined server is *known suspect before issue* —
    // whether the gate skips it or lets a reintegration probe through, the
    // covering extras launch immediately (t = 0) and race the probe instead
    // of waiting out its deadline.
    bool any_primary_failed = false;
    bool any_suspect = false;
    sim::Nanos t1{};  // all-primaries completion: slowest usable arrival
    std::uint64_t primaries = 0;
    for (int d = 0; d < k; ++d) {
      Attempt& at = roles[static_cast<std::size_t>(d)].at;
      if (!roles[static_cast<std::size_t>(d)].needed) continue;
      if (board != nullptr &&
          board->quarantined(
              ds.server_of(meta.ino, stripe, static_cast<std::uint32_t>(d))))
        any_suspect = true;
      at.a = ds.probe_read_shard(meta.ino, stripe,
                                 static_cast<std::uint32_t>(d), at.buf);
      at.issued = true;
      ++primaries;
      if (at.a.failed)
        any_primary_failed = true;
      else
        t1 = std::max(t1, at.a.latency);
    }
    if (board != nullptr) board->note_primary(static_cast<int>(primaries));
    if (hc.primary != nullptr) hc.primary->add(primaries);

    // Extra wave. Mandatory when a primary failed — degraded recovery needs
    // parity regardless of budget, issued once the failure is known.
    // Speculative (board only) when every primary is alive but the slowest
    // lags past the hedge delay: reconstruction from the healthiest k
    // shards races the straggler, gated by the token budget.
    int extra_target = 0;
    bool speculative = false;
    sim::Nanos extra_start{};
    if (any_primary_failed) {
      int clean = 0;
      sim::Nanos known{kInfNs};  // first failure-known time starts recovery
      for (const Role& r : roles) {
        if (!r.at.issued) continue;
        if (r.at.a.ok) ++clean;
        if (r.at.a.failed) known = std::min(known, r.at.a.latency);
      }
      extra_target = std::max(0, k - clean);
      extra_start = any_suspect ? sim::Nanos{} : known;
    } else if (board != nullptr) {
      const sim::Nanos hedge_delay = board->hedge_delay();
      if (t1 > hedge_delay) {
        int clean_fast = 0;
        for (const Role& r : roles)
          if (r.at.issued && r.at.a.ok && r.at.a.latency <= hedge_delay)
            ++clean_fast;
        const int want = k - clean_fast;
        if (want > 0 && board->try_hedge(want)) {
          extra_target = want;
          speculative = true;
          extra_start = hedge_delay;
        } else if (want > 0 && hc.denied != nullptr) {
          hc.denied->add(static_cast<std::uint64_t>(want));
        }
      }
    }

    int issued_extra = 0;
    if (extra_target > 0) {
      std::vector<int> cands;
      for (int r = 0; r < total; ++r)
        if (!roles[static_cast<std::size_t>(r)].at.issued) cands.push_back(r);
      if (board != nullptr) {
        const std::vector<int> rank = rank_by_health(*board, ds.servers());
        std::stable_sort(cands.begin(), cands.end(), [&](int x, int y) {
          return rank[static_cast<std::size_t>(ds.server_of(
                     meta.ino, stripe, static_cast<std::uint32_t>(x)))] <
                 rank[static_cast<std::size_t>(ds.server_of(
                     meta.ino, stripe, static_cast<std::uint32_t>(y)))];
        });
      }
      for (std::size_t ci = 0;
           ci < cands.size() && issued_extra < extra_target; ++ci) {
        const auto ri = static_cast<std::size_t>(cands[ci]);
        Attempt& at = roles[ri].at;
        at.buf = scratch.slot(ri);
        at.start = extra_start;
        at.speculative = speculative;
        at.a = ds.probe_read_shard(meta.ino, stripe,
                                   static_cast<std::uint32_t>(cands[ci]),
                                   at.buf);
        at.issued = true;
        ++issued_extra;
        if (speculative && hc.issued != nullptr) hc.issued->add();
        // Mandatory recovery replaces a dead/hole extra with the next
        // candidate — it needs k clean shards, not k attempts.
        if (!speculative && !at.a.ok) ++extra_target;
      }
    }

    // Completion: T1 = all primaries arrive; T2 = k-th clean shard arrives
    // (reconstruction possible). First to happen wins. With no extras the
    // clean shards are primaries only, which cannot beat T1.
    const std::int64_t t1_eff = any_primary_failed ? kInfNs : t1.ns;
    std::int64_t t2 = kInfNs;
    std::vector<std::pair<std::int64_t, int>> clean_arrivals;
    if (issued_extra > 0) {
      for (int r = 0; r < total; ++r) {
        const Attempt& at = roles[static_cast<std::size_t>(r)].at;
        if (at.issued && at.a.ok) clean_arrivals.emplace_back(done_at(at), r);
      }
      std::sort(clean_arrivals.begin(), clean_arrivals.end());
      if (static_cast<int>(clean_arrivals.size()) >= k)
        t2 = clean_arrivals[static_cast<std::size_t>(k) - 1].first;
    }
    const std::int64_t finish = std::min(t1_eff, t2);
    if (finish == kInfNs) {
      // Unrecoverable this pass: every attempt ran to completion, nothing
      // won. Charge them all and let the caller retry / fail the op.
      for (const Role& r : roles)
        if (r.at.issued) DataServers::commit_attempt(r.at.a, prof);
      return false;
    }

    Wave wave(ds, meta.ino, stripe, prof);
    const bool via_t2 = t2 < t1_eff;
    if (via_t2) {
      for (int i = 0; i < k; ++i) {
        const int r = clean_arrivals[static_cast<std::size_t>(i)].second;
        roles[static_cast<std::size_t>(r)].at.winner = true;
      }
    } else {
      for (Role& r : roles) r.at.winner = r.needed;
    }

    bool hedge_won = false;
    for (const Role& r : roles) {
      const Attempt& at = r.at;
      if (!at.issued) continue;
      if (at.winner) {
        wave.add(at.a.charge);
        if (via_t2 && at.speculative) hedge_won = true;
      } else if (done_at(at) <= finish) {
        // Completed (or failed) before the op finished: its cost is real.
        wave.add(at.a.charge);
        if (at.speculative && hc.wasted != nullptr) hc.wasted->add();
      } else {
        // Still in flight at completion: cancelled, charges nothing.
        if (hc.cancelled != nullptr) hc.cancelled->add();
      }
    }
    if (hedge_won && hc.won != nullptr) hc.won->add();

    if (via_t2) {
      // Reconstruct the stripe from exactly the k winning clean shards; the
      // rebuilt needed roles land in their buffers (dst for whole units).
      std::vector<std::span<std::byte>> views;
      views.reserve(static_cast<std::size_t>(total));
      std::unique_ptr<bool[]> present =
          std::make_unique<bool[]>(static_cast<std::size_t>(total));
      for (int r = 0; r < total; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        Attempt& at = roles[ri].at;
        if (at.buf.empty()) at.buf = scratch.slot(ri);
        views.push_back(at.buf);
        present[ri] = at.winner;
      }
      rs.reconstruct(views,
                     std::span<const bool>(present.get(),
                                           static_cast<std::size_t>(total)));
      if (reconstructed != nullptr) *reconstructed = true;
      // Repair-in-place only shards that provably rotted *and* whose read
      // completed before the op did (a cancelled read never saw the rot).
      // Holes stay holes (materializing them would turn them into data
      // behind the MDS's back), and lost shards stay lost.
      for (int r = 0; r < total; ++r) {
        const Attempt& at = roles[static_cast<std::size_t>(r)].at;
        if (at.issued && at.a.corrupt && done_at(at) <= finish)
          ds.repair_shard(meta.ino, stripe, static_cast<std::uint32_t>(r),
                          at.buf, prof);
      }
    }
    for (const Role& r : roles)
      if (r.needed && r.chunk != unit)
        std::memcpy(dst.data() + r.dst_at, r.at.buf.data() + r.in_shard,
                    r.chunk);
    wave.close(sim::Nanos{finish});
    done = local;
  }
  return true;
}

bool replicated_read(DataServers& ds, const FileMeta& meta,
                     std::uint64_t offset, std::span<std::byte> dst,
                     OpProfile& prof) {
  DPC_CHECK(meta.redundancy == Redundancy::kReplication);
  fault::HealthBoard* board = ds.health();
  const DataServers::HedgeCounters& hc =
      board != nullptr ? ds.hedge_counters() : kNoHedgeCounters;
  const std::uint32_t unit = meta.stripe_unit;
  std::vector<std::uint32_t> order(meta.replicas);
  std::vector<Attempt> atts(meta.replicas);
  Scratch scratch(meta.replicas, unit);
  std::size_t done = 0;
  while (done < dst.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t stripe = pos / unit;
    const auto in_unit = static_cast<std::uint32_t>(pos % unit);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dst.size() - done, unit - in_unit));

    // Replica copies in index order, or healthiest-first with a board; the
    // first is the primary.
    for (std::uint32_t r = 0; r < meta.replicas; ++r) order[r] = r;
    sim::Nanos hedge_delay{kInfNs};
    if (board != nullptr) {
      const std::vector<int> rank = rank_by_health(*board, ds.servers());
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t x, std::uint32_t y) {
                         return rank[static_cast<std::size_t>(
                                    ds.server_of(meta.ino, stripe, x))] <
                                rank[static_cast<std::size_t>(
                                    ds.server_of(meta.ino, stripe, y))];
                       });
      hedge_delay = board->hedge_delay();
    }

    std::size_t issued = 0;
    sim::Nanos now{};
    bool next_speculative = false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      Attempt& at = atts[i];
      at = Attempt{};
      // A whole unit from the primary lands straight in dst; every other
      // attempt gets its own slot, since a loser must not clobber the winner.
      at.buf = i == 0 && chunk == unit ? dst.subspan(done, unit)
                                       : scratch.slot(i);
      at.start = now;
      at.speculative = next_speculative;
      if (i == 0) {
        if (board != nullptr) board->note_primary(1);
        if (hc.primary != nullptr) hc.primary->add();
      } else if (next_speculative && hc.issued != nullptr) {
        hc.issued->add();
      }
      at.a = ds.probe_read_shard(meta.ino, stripe, order[i], at.buf);
      ++issued;
      // A hole is usable: genuinely absent units read as zeros.
      const bool usable = at.a.ok || at.a.hole;
      if (usable && at.a.latency <= hedge_delay) break;  // fast enough
      if (i + 1 >= order.size()) break;
      if (!usable) {
        // Failure known: the next replica is mandatory, not budgeted.
        now = at.start + at.a.latency;
        next_speculative = false;
        continue;
      }
      // Alive but lagging: hedge to the next-best replica if budget allows.
      if (board->try_hedge(1)) {
        now = at.start + hedge_delay;
        next_speculative = true;
        continue;
      }
      if (hc.denied != nullptr) hc.denied->add();
      break;  // budget exhausted — wait out the slow replica
    }

    std::int64_t finish = kInfNs;
    std::size_t win = issued;
    for (std::size_t i = 0; i < issued; ++i) {
      const Attempt& at = atts[i];
      if (!(at.a.ok || at.a.hole)) continue;
      if (done_at(at) < finish) {
        finish = done_at(at);
        win = i;
      }
    }
    if (win == issued) {
      for (std::size_t i = 0; i < issued; ++i)
        DataServers::commit_attempt(atts[i].a, prof);
      return false;  // no replica readable
    }
    Wave wave(ds, meta.ino, stripe, prof);
    for (std::size_t i = 0; i < issued; ++i) {
      const Attempt& at = atts[i];
      if (i == win) {
        wave.add(at.a.charge);
        if (at.speculative && hc.won != nullptr) hc.won->add();
      } else if (done_at(at) <= finish) {
        wave.add(at.a.charge);
        if (at.speculative && hc.wasted != nullptr) hc.wasted->add();
      } else {
        if (hc.cancelled != nullptr) hc.cancelled->add();
      }
    }
    wave.close(sim::Nanos{finish});
    const std::span<std::byte> got = atts[win].buf;
    if (got.data() != dst.data() + done)
      std::memcpy(dst.data() + done, got.data() + in_unit, chunk);
    done += chunk;
  }
  return true;
}

}  // namespace dpc::dfs
