#include "core/dpc_system.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "ec/crc32c.hpp"
#include "sim/calib.hpp"
#include "sim/check.hpp"

namespace dpc::core {

namespace {

/// The fs-adapter maps file offset `lpn × kCachePage` onto cache page `lpn`.
constexpr std::uint32_t kCachePage = cache::kPageSize;

/// Tenant identity of this host thread, stamped into every Request it
/// builds. Thread-local (not per-call) so the fs-adapter API stays
/// unchanged for the common single-tenant case.
thread_local nvme::TenantId tl_tenant = 0;

std::uint64_t page_round(std::uint64_t n) { return (n + 4095) / 4096 * 4096; }

/// The fs-adapter segments I/O larger than one nvme-fs command: `one(at,
/// piece)` runs each `max_io`-sized piece of `buf` in order. Costs add up;
/// the first error or short piece (EOF) ends the walk.
template <class Buf, class One>
Io segmented(std::uint64_t ino, Buf buf, std::uint32_t max_io, One&& one) {
  Io total;
  total.ino = ino;
  total.cache_hit = true;
  for (std::uint64_t at = 0; at < buf.size(); at += max_io) {
    const auto n = std::min<std::uint64_t>(max_io, buf.size() - at);
    const Io part = one(at, buf.subspan(at, n));
    total.cost += part.cost;
    total.cache_hit = total.cache_hit && part.cache_hit;
    if (!part.ok()) {
      total.err = part.err;
      return total;
    }
    total.bytes += part.bytes;
    if (part.bytes < n) break;
  }
  return total;
}

/// Host memory needed for the queue slots, rings and the hybrid cache.
std::size_t host_region_size(const DpcOptions& o) {
  // wbuf + rbuf (each max_write/max_read = max_io + header page, plus the
  // integrity trailer, page-rounded) + 2 PRP list pages — mirrors
  // QueuePair's slot layout.
  const std::uint64_t slot =
      page_round(o.max_io + 4096 + nvme::kPayloadCrcBytes) * 2 + 2 * 4096;
  std::uint64_t total = std::uint64_t{static_cast<std::uint64_t>(o.queues)} *
                        o.queue_depth * slot;
  total += std::uint64_t{static_cast<std::uint64_t>(o.queues)} *
           (o.queue_depth * 64ULL + o.queue_depth * 16ULL + 8192);
  if (o.enable_cache)
    total += cache::CacheLayout::footprint_for(o.cache_geo);
  return total + (8 << 20);  // slack
}

/// Hybrid-cache backend → KVFS pages.
class KvfsCacheBackend final : public cache::CacheBackend {
 public:
  explicit KvfsCacheBackend(kvfs::Kvfs& fs) : fs_(&fs) {}

  bool read_page(std::uint64_t inode, std::uint64_t lpn,
                 std::span<std::byte> dst, sim::Nanos& cost) override {
    auto res = fs_->read(inode, lpn * kCachePage, dst);
    cost += res.cost;
    return res.ok() && res.value > 0;
  }
  bool write_page(std::uint64_t inode, std::uint64_t lpn,
                  std::span<const std::byte> src,
                  sim::Nanos& cost) override {
    // Note on ordering: a flush may land before the adapter's async size
    // update and transiently grow the file to the page boundary; the
    // in-flight truncate/size RPC serializes after it on the inode lock
    // and restores the exact size (and zeroes the boundary tail). The
    // adapter also drops/zeroes cached pages *before* issuing a truncate,
    // so no stale page can regrow the file afterwards.
    auto res = fs_->write(inode, lpn * kCachePage, src);
    cost += res.cost;
    if (res.err == ENOENT) return true;  // racing unlink: drop the page
    if (res.ok() && (written_.empty() || written_.back() != inode))
      written_.push_back(inode);
    // Transient KVFS failure (injected or real): report it so the flusher
    // keeps the page dirty and retries on a later pass.
    return res.ok();
  }
  /// A page overwrite leaves its file's mtime in the KVFS attr cache: put
  /// it once per file the pass wrote, not once per page.
  void end_pass(sim::Nanos& cost) override {
    std::sort(written_.begin(), written_.end());
    written_.erase(std::unique(written_.begin(), written_.end()),
                   written_.end());
    for (const std::uint64_t inode : written_)
      cost += fs_->sync_mtime(inode).cost;
    written_.clear();
  }

 private:
  kvfs::Kvfs* fs_;
  /// Inodes the current pass wrote (passes are serialized by the
  /// control plane's pass lock).
  std::vector<std::uint64_t> written_;
};

}  // namespace

DpcSystem::DpcSystem(const DpcOptions& opts)
    : opts_(opts),
      latency_{&registry_.histogram("latency/meta_ns"),
               &registry_.histogram("latency/read_ns"),
               &registry_.histogram("latency/write_ns")},
      cache_hit_path_ns_(&registry_.histogram("cache/hit_path_ns")),
      cache_miss_path_ns_(&registry_.histogram("cache/miss_path_ns")),
      restart_ns_(&registry_.histogram("recovery/restart_ns")),
      nvme_retries_(&registry_.counter("retry/attempts")),
      nvme_retry_exhausted_(&registry_.counter("retry/exhausted")),
      nvme_throttled_(&registry_.counter("retry/throttled")),
      host_integrity_errors_(
          &registry_.counter("nvme.host/integrity_errors")),
      pump_conflicts_(&registry_.counter("core/pump_conflicts")) {
  DPC_CHECK(opts.queues >= 1 && opts.queue_depth >= 2);
  // Segmentation steps by max_io, and one command's payload plus its header
  // page and CRC trailer must fit the INI's one-page PRP list.
  DPC_CHECK(opts.max_io >= 1 &&
            std::uint64_t{opts.max_io} + nvme::kPageSize +
                    nvme::kPayloadCrcBytes <=
                std::uint64_t{nvme::kPageSize / sizeof(std::uint64_t)} *
                    nvme::kPageSize);

  if (opts.qos.enabled)
    qos_ = std::make_unique<dpu::QosManager>(opts.qos, registry_);

  host_mem_ = std::make_unique<pcie::MemoryRegion>("host-dram",
                                                   host_region_size(opts));
  host_alloc_ = std::make_unique<pcie::RegionAllocator>(*host_mem_);
  dpu_ = std::make_unique<dpu::Dpu>();
  dma_ = std::make_unique<pcie::DmaEngine>(*host_mem_, dpu_->bar());

  // NVM write-ahead durability tier: on-DPU PMEM log device + WAL. The
  // media lives outside every restart path — restart_dpu() recovers *from*
  // it, so these are constructed once and never reset.
  if (opts.enable_nvm_wal) {
    nvm_dev_ = std::make_unique<nvm::NvmDevice>(opts.nvm_log_bytes,
                                                opts.fault, &registry_);
    wal_ =
        std::make_unique<nvm::WriteAheadLog>(*nvm_dev_, registry_, opts.fault);
  }

  // Backends.
  if (opts.shared_store == nullptr) {
    kv_store_ = std::make_unique<kv::KvStore>();
  }
  kv::KvStore& store =
      opts.shared_store != nullptr ? *opts.shared_store : *kv_store_;
  // Corruption sites (bit-rot / torn writes) fire inside the store we own;
  // a shared store's owner decides its own injector.
  if (kv_store_ != nullptr && opts.fault != nullptr)
    kv_store_->attach_fault(opts.fault);
  remote_kv_ = std::make_unique<kv::RemoteKv>(store, opts.fault, &registry_,
                                              opts.kv_retry, opts.kv_breaker);
  kvfs_ = std::make_unique<kvfs::Kvfs>(
      *remote_kv_, kvfs::KvfsOptions{opts.fault, wal_.get()}, &registry_);
  if (qos_) kvfs_->attach_qos(qos_.get());
  if (opts.with_dfs) {
    mds_ = std::make_unique<dfs::MdsCluster>();
    data_servers_ = std::make_unique<dfs::DataServers>(
        sim::calib::kDataServers, opts.fault, &registry_);
    dfs_client_ = std::make_unique<dfs::DfsClient>(
        1, *mds_, *data_servers_, dfs::ClientConfig::dpc_offloaded(),
        &registry_);
  }

  // Hybrid cache.
  if (opts.enable_cache) {
    cache_layout_ =
        std::make_unique<cache::CacheLayout>(opts.cache_geo, *host_alloc_);
    host_cache_ = std::make_unique<cache::HostCachePlane>(
        *host_mem_, *cache_layout_, &registry_);
    cache_backend_ = std::make_unique<KvfsCacheBackend>(*kvfs_);
    cache_ctl_ = std::make_unique<cache::DpuCacheControl>(
        *dma_, *cache_layout_, *cache_backend_, opts.cache_ctl, &registry_,
        opts.fault);
    if (qos_) cache_ctl_->attach_qos(qos_.get());
    if (wal_) cache_ctl_->attach_wal(wal_.get());
  }

  // Background integrity scrubber (DPU-side poller once start_dpu runs).
  if (opts.enable_scrubber) {
    scrubber_ =
        std::make_unique<dpu::Scrubber>(opts.scrub, registry_, opts.fault);
    scrubber_->attach_kv(&store);
    if (opts.with_dfs) scrubber_->attach_dfs(data_servers_.get(), mds_.get());
    if (qos_) scrubber_->attach_qos(qos_.get());
  }

  // Dispatch + transport.
  dispatch_ = std::make_unique<IoDispatch>(*kvfs_, dfs_client_.get(),
                                           cache_ctl_.get(), registry_,
                                           qos_.get(), wal_.get());
  for (int q = 0; q < opts.queues; ++q) {
    nvme::QpConfig qc;
    qc.qid = static_cast<std::uint16_t>(q);
    qc.depth = opts.queue_depth;
    qc.max_write = opts.max_io + 4096;
    qc.max_read = opts.max_io + 4096;
    qps_.push_back(std::make_unique<nvme::QueuePair>(qc, *host_alloc_,
                                                     dpu_->bar_alloc()));
    qtraces_.push_back(
        std::make_unique<obs::QueueTraces>(registry_, opts.queue_depth));
    inis_.push_back(std::make_unique<nvme::IniDriver>(*dma_, *qps_.back(),
                                                      qtraces_.back().get()));
    tgts_.push_back(std::make_unique<nvme::TgtDriver>(
        *dma_, *qps_.back(), dispatch_->handler(), qtraces_.back().get(),
        opts.fault, qos_.get()));
    pump_mu_.push_back(std::make_unique<sim::AnnotatedMutex>(
        "dpc.pump", sim::LockRank::kSystem));
  }
}

DpcSystem::~DpcSystem() { stop_dpu(); }

void DpcSystem::start_dpu() {
  if (workers_running_.load(std::memory_order_acquire)) return;
  workers_ = std::make_unique<dpu::WorkerPool>();
  // Graceful degradation: with QoS on, background pollers (flusher,
  // scrubber) run on surplus capacity only — the pool skips them while the
  // staging queues sit above the admission high-water mark.
  if (qos_) {
    dpu::QosManager* q = qos_.get();
    workers_->set_background_gate([q] { return q->overloaded(); });
  }
  for (std::size_t q = 0; q < tgts_.size(); ++q) {
    workers_->add_poller([this, q] {
      sim::LockGuard lock(*pump_mu_[q]);
      return tgts_[q]->process_available(64).processed;
    });
  }
  if (cache_ctl_) {
    cache::DpuCacheControl* ctl = cache_ctl_.get();
    workers_->add_poller([ctl] { return ctl->poll(); }, /*background=*/true);
  }
  if (scrubber_) {
    dpu::Scrubber* s = scrubber_.get();
    workers_->add_poller([s] { return s->poll(); }, /*background=*/true);
  }
  workers_->start(opts_.dpu_workers);
  workers_running_.store(true, std::memory_order_release);
}

void DpcSystem::stop_dpu() {
  if (!workers_running_.load(std::memory_order_acquire)) return;
  workers_running_.store(false, std::memory_order_release);
  workers_.reset();
}

namespace {

/// Holds every pump lock, in index order (same rank, consistent order —
/// acyclic), releasing in reverse on every exit path — including a
/// CrashException unwinding out of a recovery step.
struct PumpFreeze {
  explicit PumpFreeze(std::vector<std::unique_ptr<sim::AnnotatedMutex>>& mus)
      NO_THREAD_SAFETY_ANALYSIS : mus(&mus) {
    for (auto& mu : mus) mu->lock();
  }
  ~PumpFreeze() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = mus->rbegin(); it != mus->rend(); ++it) (*it)->unlock();
  }
  PumpFreeze(const PumpFreeze&) = delete;
  PumpFreeze& operator=(const PumpFreeze&) = delete;
  std::vector<std::unique_ptr<sim::AnnotatedMutex>>* mus;
};

/// Scope flag for the restart window. Declared *after* the PumpFreeze so it
/// clears before the freeze releases — pump() can never observe it set on
/// any exit path, including a CrashException unwinding a recovery step.
struct RestartWindow {
  explicit RestartWindow(std::atomic<bool>& f) : flag(&f) {
    flag->store(true, std::memory_order_release);
  }
  ~RestartWindow() { flag->store(false, std::memory_order_release); }
  RestartWindow(const RestartWindow&) = delete;
  RestartWindow& operator=(const RestartWindow&) = delete;
  std::atomic<bool>* flag;
};

}  // namespace

// Pointer-loop locking over pump_mu_ — opt the definition out of the
// static analysis; the runtime lock-rank detector still covers it.
DpcSystem::RestartReport DpcSystem::restart_dpu() NO_THREAD_SAFETY_ANALYSIS {
  RestartReport rep;
  const bool was_running = workers_running_.load(std::memory_order_acquire);
  stop_dpu();
  {
    // Freeze every TGT consumer for the whole power cycle. The workers are
    // stopped, but a caller waiting out the stop pumps inline; without the
    // freeze it could drive its TgtDriver mid-reset and replay stale SQEs
    // against a half-rewound ring. DPC_CHECK_MUTATE
    // restart-no-freeze skips the freeze so dpc_check can prove the race
    // is real (a pump caller observes a half-rewound ring).
    std::optional<PumpFreeze> freeze;
    if (!sim::schedhook::mutate("restart-no-freeze")) freeze.emplace(pump_mu_);
    RestartWindow window(restart_active_);
    sim::schedhook::point("core.restart_begin");
    // ① Controller reset, per queue pair — TGT side only for now. It rewinds
    // the ring indices the INI's doorbell zeroing would otherwise
    // desynchronize. The INI aborts come *last* (step ⑤): aborted waiters
    // retry immediately, and they must wake into a recovered controller, not
    // one whose keyspace repair is still in flight.
    for (std::size_t q = 0; q < tgts_.size(); ++q) {
      tgts_[q]->reset();
      ++rep.queues_reset;
    }
    // ② Lift the crash latch so the recovery passes below can run.
    if (opts_.fault != nullptr) opts_.fault->clear_crash();
    // ③④ may themselves hit an armed crash point (crash *during* WAL
    // replay or during the post-recovery drain). The latch is set again;
    // report the cycle as interrupted and let the caller power-cycle once
    // more — replay is idempotent, so the retry converges.
    try {
      // ③ Square the keyspace: NVM-log replay of acked-but-undrained
      // pages, then fsck repair as the backstop for rot. (Every KVFS
      // mutation is one atomic batch: no torn op is left to roll.)
      rep.fs = kvfs_->recover();
      rep.cost += rep.fs.cost;
      // ④ Rebuild the DPU-side cache control state from the surviving
      // host-DRAM data plane, then push down whatever was dirty at the
      // crash.
      if (cache_ctl_) {
        const auto rebuilt = cache_ctl_->rebuild();
        rep.rebuilt_pages = static_cast<std::uint32_t>(rebuilt.pages);
        rep.cost += rebuilt.cost;
        const auto flushed = cache_ctl_->flush_pass();
        rep.reflushed_pages = flushed.pages;
        rep.cost += flushed.cost;
      }
    } catch (const fault::CrashException&) {
      rep.interrupted = true;
    }
    // ⑤ Host-side controller reset: every in-flight cid gets a synthetic
    // abort so blocked callers requeue through the normal retry path.
    for (auto& ini : inis_)
      rep.aborted_cids =
          static_cast<std::uint16_t>(rep.aborted_cids + ini->reset());
    restart_ns_->record(rep.cost);
    // Bracket the window with a second decision point: the checker gets a
    // preemption opportunity at both edges of the frozen region, which is
    // what lets it drive a pump-mode caller into the gap when the freeze
    // mutation is armed.
    sim::schedhook::point("core.restart_end");
  }
  if (was_running && !rep.interrupted) start_dpu();
  return rep;
}

void DpcSystem::wipe_host_cache() {
  {
    sim::LockGuard lock(size_mu_);
    size_cache_.clear();
  }
  if (cache_layout_) cache_layout_->format(*host_mem_);
}

void DpcSystem::set_thread_tenant(nvme::TenantId tenant) {
  tl_tenant = tenant;
}

nvme::TenantId DpcSystem::thread_tenant() { return tl_tenant; }

int DpcSystem::queue_for_this_thread() {
  thread_local int tl_queue = -1;
  if (tl_queue < 0)
    tl_queue = next_queue_.fetch_add(1, std::memory_order_relaxed) %
               opts_.queues;
  return tl_queue;
}

int DpcSystem::pump(int q) {
  sim::LockGuard lock(*pump_mu_[static_cast<std::size_t>(q)]);
  // Under the real freeze this load can never see true: restart_dpu() holds
  // every pump lock for the whole window. A nonzero counter is therefore a
  // hard protocol violation (the dpc_check restart_vs_pump invariant).
  if (restart_active_.load(std::memory_order_acquire)) pump_conflicts_->add();
  const int n =
      tgts_[static_cast<std::size_t>(q)]->process_available(64).processed;
  if (cache_ctl_) cache_ctl_->poll();
  return n;
}

DpcSystem::CallResult DpcSystem::call(const nvme::IniDriver::Request& req,
                                      std::span<std::byte> payload) {
  const int q = queue_for_this_thread();
  nvme::IniDriver& ini = *inis_[static_cast<std::size_t>(q)];
  const nvme::TgtDriver& tgt = *tgts_[static_cast<std::size_t>(q)];

  CallResult out;
  out.cost += sim::calib::kSyscallVfs + sim::calib::kFsAdapterOp;
  const std::uint64_t salt = call_seq_.fetch_add(1, std::memory_order_relaxed);

  for (int attempt = 1;; ++attempt) {
    const auto submitted = ini.submit(req);
    out.cost += submitted.cost;
    // The fence orders the doorbell store before the idle_passes() read, a
    // store-buffering pair with the fence after TgtDriver's bump: the
    // second pass counted from `idle0` began after the doorbell.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t idle0 = tgt.idle_passes();

    // Synchronous completion, one loss rule for both modes: the command is
    // lost once its queue's TGT has finished two idle passes since the
    // doorbell (the first may have checked for work before it). The
    // mode is re-read each round, so a caller waiting across stop_dpu()
    // pumps for itself; the pump lock keeps it off a worker's TGT.
    // DPC_CHECK_MUTATE loss-one-idle-pass: trust one idle pass, which may
    // have checked for work before the doorbell; dpc_check must catch it.
    const std::uint64_t lost_after =
        sim::schedhook::mutate("loss-one-idle-pass") ? 1 : 2;
    std::optional<nvme::Completion> got;
    for (;;) {
      if ((got = ini.try_take(submitted.cid))) break;
      if (tgt.idle_passes() - idle0 >= lost_after) {
        got = ini.try_take(submitted.cid);
        break;
      }
      if (workers_running_.load(std::memory_order_acquire)) {
        sim::schedhook::spin("core.call_wait");
        std::this_thread::yield();
      } else if (pump(q) == 0) {
        sim::schedhook::spin("core.call_wait");
      }
    }

    // Lost: reclaim the CID. abort() returns a completion that raced in,
    // else synthesizes kAbortedByRequest. The loss rule only fires once the
    // TGT holds nothing of this command, so no CQE for it can follow; the
    // driver's late-CQE guard ("nvme.ini/late_cqes") stays as the backstop
    // that would keep such a CQE off the reused CID.
    const nvme::Completion done = got ? *got : ini.abort(submitted.cid);
    if (!got) out.cost += sim::calib::kNvmeCommandTimeout;

    if (nvme::is_retryable(done.status)) {
      if (attempt < opts_.nvme_retry.max_attempts) {
        ini.release(submitted.cid);
        nvme_retries_->add();
        sim::Nanos backoff = opts_.nvme_retry.backoff(attempt, salt);
        if (done.status == nvme::Status::kThrottled) {
          // Admission rejection: the CQE result dword carries the device's
          // retry-after hint (ns). Honor it as a floor under the policy's
          // own backoff so a throttled tenant never hammers the doorbell
          // faster than the DPU asked.
          nvme_throttled_->add();
          backoff = std::max(
              backoff, sim::Nanos{static_cast<std::int64_t>(done.result)});
        }
        out.cost += backoff;
        continue;
      }
      nvme_retry_exhausted_->add();
    }

    out.status = done.status;
    out.result = done.result;
    out.attempts = attempt;
    // Device-reported service time (transport DMAs + backend) + host-side
    // completion handling complete the op's modelled latency.
    out.cost += sim::Nanos{done.service_ns} + sim::calib::kHostNvmeCompletion;
    if (!payload.empty() && done.status == nvme::Status::kSuccess) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(payload.size(), done.result));
      if (n > 0) {
        // Host half of the integrity envelope: the TGT stamped a CRC32C
        // trailer right behind the payload (same data DMA). Verify it
        // before a single payload byte escapes; a mismatch is surfaced as
        // the typed integrity status, which is never retried — transport
        // bit-rot is indistinguishable from damage at rest, so recovery is
        // pushed up to redundancy (EC reconstruct) or the caller's EIO.
        auto wire = ini.read_payload(submitted.cid,
                                     done.result + nvme::kPayloadCrcBytes);
        std::uint32_t want = 0;
        std::memcpy(&want, wire.data() + done.result,
                    nvme::kPayloadCrcBytes);
        if (ec::crc32c(wire.first(done.result)) != want) {
          host_integrity_errors_->add();
          out.status = nvme::Status::kDataIntegrityError;
          out.result = 0;
        } else {
          std::memcpy(payload.data(), wire.data(), n);
          out.payload_bytes = n;
        }
      }
    }
    ini.release(submitted.cid);
    if (qos_) qos_->record_latency(thread_tenant(), out.cost);
    return out;
  }
}

std::string DpcSystem::latency_summary() const {
  static const char* names[] = {"meta", "read", "write"};
  std::string out;
  for (std::size_t c = 0; c < latency_.size(); ++c) {
    const auto& h = *latency_[c];
    if (h.count() == 0) continue;
    out += std::string(names[c]) + ": n=" + std::to_string(h.count()) +
           " mean=" + std::to_string(h.mean().us()) +
           "us p50=" + std::to_string(h.percentile(50).us()) +
           "us p99=" + std::to_string(h.percentile(99).us()) + "us  ";
  }
  return out;
}

// ------------------------------------------------------- completion rule

bool DpcSystem::complete(Io& io, const CallResult& res,
                         std::optional<OpClass> cls) {
  io.cost += res.cost;
  io.status = res.status;
  io.attempts = res.attempts;
  if (res.status == nvme::Status::kSuccess)
    io.err = 0;
  else if (res.status == nvme::Status::kFsError)
    io.err = static_cast<int>(res.result);
  else
    io.err = EIO;
  if (cls) latency_[static_cast<std::size_t>(*cls)]->record(io.cost);
  return io.ok();
}

nvme::IniDriver::Request DpcSystem::inline_request(
    nvme::DispatchTarget target, nvme::InlineOp op, std::uint64_t ino,
    std::uint64_t offset) {
  nvme::IniDriver::Request r(thread_tenant());
  r.target = target;
  r.inline_op = op;
  r.inode = ino;
  r.offset = offset;
  return r;
}

Io DpcSystem::header_call(nvme::DispatchTarget target, const FileRequest& req,
                          FileResponse* out, std::optional<OpClass> cls) {
  const auto enc = req.encode();
  nvme::IniDriver::Request r(thread_tenant());
  r.target = target;
  r.inline_op = nvme::InlineOp::kNone;
  r.write_hdr = enc;
  r.read_hdr_cap = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(0xFFFF, response_capacity(0)));
  // readdir replies can be large; give them data capacity too.
  r.read_data_cap = req.op == FileOp::kReaddir ? opts_.max_io : 0;

  const std::size_t cap = std::size_t{r.read_hdr_cap} + r.read_data_cap;
  const auto buf = std::make_unique_for_overwrite<std::byte[]>(cap);
  const auto res = call(r, {buf.get(), cap});
  Io io;
  if (!complete(io, res, cls)) return io;
  if (res.payload_bytes == 0) {
    io.err = EIO;
    return io;
  }
  FileResponse resp = FileResponse::decode({buf.get(), res.payload_bytes});
  io.err = resp.err;
  io.ino = resp.ino;
  if (out) *out = std::move(resp);
  return io;
}

std::optional<std::uint64_t> DpcSystem::fetch_size(Io& io, std::uint64_t ino) {
  FileRequest req;
  req.op = FileOp::kGetattr;
  req.parent = ino;
  FileResponse resp;
  const Io side = header_call(nvme::DispatchTarget::kStandalone, req, &resp,
                              std::nullopt);
  io.cost += side.cost;
  if (!side.ok() || !resp.attr) return std::nullopt;
  return resp.attr->size;
}

// ------------------------------------------------- standalone namespace

Io DpcSystem::create(std::uint64_t parent, const std::string& name,
                     std::uint32_t mode) {
  FileRequest req;
  req.op = FileOp::kCreate;
  req.parent = parent;
  req.name = name;
  req.mode = mode;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::mkdir(std::uint64_t parent, const std::string& name,
                    std::uint32_t mode) {
  FileRequest req;
  req.op = FileOp::kMkdir;
  req.parent = parent;
  req.name = name;
  req.mode = mode;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::lookup(std::uint64_t parent, const std::string& name) {
  FileRequest req;
  req.op = FileOp::kLookup;
  req.parent = parent;
  req.name = name;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::resolve(const std::string& path) {
  FileRequest req;
  req.op = FileOp::kResolve;
  req.name = path;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::unlink(std::uint64_t parent, const std::string& name) {
  FileRequest req;
  req.op = FileOp::kUnlink;
  req.parent = parent;
  req.name = name;
  Io io = header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
  // The reply names the inode only when its last link went: then, and only
  // then, are its cached pages (dirty ones included) and size view garbage.
  // Another name may still reach it otherwise.
  if (io.ok() && io.ino != 0) {
    if (host_cache_) host_cache_->invalidate_above(io.ino, 0);
    sim::LockGuard lock(size_mu_);
    size_cache_.erase(io.ino);
  }
  return io;
}

Io DpcSystem::rmdir(std::uint64_t parent, const std::string& name) {
  FileRequest req;
  req.op = FileOp::kRmdir;
  req.parent = parent;
  req.name = name;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::rename(std::uint64_t old_parent, const std::string& old_name,
                     std::uint64_t new_parent, const std::string& new_name) {
  FileRequest req;
  req.op = FileOp::kRename;
  req.parent = old_parent;
  req.aux = new_parent;
  req.name = old_name;
  req.name2 = new_name;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::link(std::uint64_t ino, std::uint64_t new_parent,
                   const std::string& name) {
  FileRequest req;
  req.op = FileOp::kLink;
  req.parent = ino;
  req.aux = new_parent;
  req.name = name;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::symlink(const std::string& target, std::uint64_t parent,
                      const std::string& name) {
  FileRequest req;
  req.op = FileOp::kSymlink;
  req.parent = parent;
  req.name = name;
  req.name2 = target;
  return header_call(nvme::DispatchTarget::kStandalone, req, nullptr);
}

Io DpcSystem::readlink(std::uint64_t ino, std::string* target_out) {
  DPC_CHECK(target_out != nullptr);
  FileRequest req;
  req.op = FileOp::kReadlink;
  req.parent = ino;
  FileResponse resp;
  Io io = header_call(nvme::DispatchTarget::kStandalone, req, &resp);
  if (io.ok()) {
    if (resp.entries.empty()) {
      io.err = EIO;
      return io;
    }
    *target_out = std::move(resp.entries[0].name);
  }
  return io;
}

Io DpcSystem::getattr(std::uint64_t ino, kvfs::Attr* attr_out) {
  FileRequest req;
  req.op = FileOp::kGetattr;
  req.parent = ino;
  FileResponse resp;
  Io io = header_call(nvme::DispatchTarget::kStandalone, req, &resp);
  if (io.ok() && attr_out) {
    if (!resp.attr) {
      io.err = EIO;
      return io;
    }
    *attr_out = *resp.attr;
  }
  return io;
}

Io DpcSystem::readdir(std::uint64_t ino, std::vector<kvfs::DirEntry>* out) {
  DPC_CHECK(out != nullptr);
  FileRequest req;
  req.op = FileOp::kReaddir;
  req.parent = ino;
  FileResponse resp;
  Io io = header_call(nvme::DispatchTarget::kStandalone, req, &resp);
  if (io.ok()) *out = std::move(resp.entries);
  return io;
}

// ------------------------------------------------------ standalone data

Io DpcSystem::read(std::uint64_t ino, std::uint64_t offset,
                   std::span<std::byte> dst, bool direct) {
  if (dst.size() > opts_.max_io) {
    return segmented(ino, dst, opts_.max_io,
                     [&](std::uint64_t at, std::span<std::byte> piece) {
                       return read(ino, offset + at, piece, direct);
                     });
  }
  Io io;
  io.ino = ino;
  const bool page_aligned =
      offset % kCachePage == 0 && dst.size() % kCachePage == 0;

  // fs-adapter: "For file read requests, fs-adapter will first search the
  // hybrid cache space and then issue the requests to DPU if the cache is
  // not hit" (§3.1). Hits are clamped to the adapter's size view so reads
  // past EOF come back short, exactly as the DPU path would return them.
  if (!direct && host_cache_ && page_aligned && !dst.empty()) {
    std::optional<std::uint64_t> known;
    {
      sim::LockGuard lock(size_mu_);
      const auto it = size_cache_.find(ino);
      if (it != size_cache_.end()) known = it->second;
    }
    if (!known) {
      known = fetch_size(io, ino);
      if (known) {
        sim::LockGuard lock(size_mu_);
        auto& slot = size_cache_[ino];
        slot = std::max(slot, *known);
      }
    }
    // Unknown file: let the DPU path produce the proper errno.
    const std::uint64_t size = known.value_or(0);
    const std::uint64_t readable = offset >= size ? 0 : size - offset;
    const auto want =
        static_cast<std::uint64_t>(std::min<std::uint64_t>(dst.size(),
                                                           readable));
    bool all_hit = known && (want > 0 || readable == 0);
    for (std::uint64_t at = 0; at < want; at += kCachePage) {
      const auto span = std::min<std::uint64_t>(kCachePage, want - at);
      if (span < kCachePage) {
        // Boundary page: read it whole from the cache, take the prefix.
        std::vector<std::byte> page(kCachePage);
        if (!host_cache_->read(ino, (offset + at) / kCachePage, page)) {
          all_hit = false;
          break;
        }
        std::memcpy(dst.data() + at, page.data(), span);
      } else if (!host_cache_->read(ino, (offset + at) / kCachePage,
                                    dst.subspan(at, kCachePage))) {
        all_hit = false;
        break;
      }
    }
    if (all_hit) {
      io.bytes = static_cast<std::uint32_t>(want);
      io.cache_hit = true;
      io.cost += sim::calib::kSyscallVfs + sim::calib::kFsAdapterOp;
      latency_[static_cast<std::size_t>(OpClass::kRead)]->record(io.cost);
      cache_hit_path_ns_->record(io.cost);
      return io;
    }
  }

  auto r = inline_request(nvme::DispatchTarget::kStandalone,
                          nvme::InlineOp::kRead, ino, offset);
  r.read_data_cap = static_cast<std::uint32_t>(dst.size());
  const auto res = call(r, dst);
  if (!complete(io, res, OpClass::kRead)) return io;
  io.bytes = res.result;
  if (io.bytes < dst.size())
    std::memset(dst.data() + io.bytes, 0, dst.size() - io.bytes);

  // Opportunistic clean fill so re-reads hit host memory.
  if (!direct && host_cache_ && page_aligned) {
    for (std::uint64_t at = 0; at + kCachePage <= io.bytes; at += kCachePage) {
      host_cache_->fill_clean(ino, (offset + at) / kCachePage,
                              dst.subspan(at, kCachePage));
    }
    cache_miss_path_ns_->record(io.cost);
  }
  return io;
}

Io DpcSystem::write(std::uint64_t ino, std::uint64_t offset,
                    std::span<const std::byte> src, bool direct) {
  if (src.size() > opts_.max_io) {
    return segmented(ino, src, opts_.max_io,
                     [&](std::uint64_t at, std::span<const std::byte> piece) {
                       return write(ino, offset + at, piece, direct);
                     });
  }
  Io io;
  io.ino = ino;
  const bool page_aligned =
      offset % kCachePage == 0 && src.size() % kCachePage == 0;

  // §3.1: "For write requests, the data will be cached in the hybrid cache
  // space directly if the DIRECT_IO flag is not specified."
  if (!direct && host_cache_ && page_aligned && !src.empty()) {
    bool all_cached = true;
    for (std::uint64_t at = 0; at < src.size(); at += kCachePage) {
      const auto wres = host_cache_->write(ino, (offset + at) / kCachePage,
                                           src.subspan(at, kCachePage));
      if (wres != cache::HostCachePlane::WriteResult::kOk) {
        all_cached = false;
        break;
      }
    }
    if (all_cached) {
      io.bytes = static_cast<std::uint32_t>(src.size());
      io.cache_hit = true;
      io.cost = sim::calib::kSyscallVfs + sim::calib::kFsAdapterOp;
      // Writes absorbed by host memory still need the file size to grow so
      // getattr/read bounds stay correct before the flush lands. The
      // fs-adapter tracks the size it has already published and sends one
      // truncate only on actual growth: a side command whose cost this
      // write pays and whose status it ignores, as it ignores the getattr's.
      const std::uint64_t end = offset + src.size();
      bool grow = false;
      {
        sim::LockGuard lock(size_mu_);
        auto [it, fresh] = size_cache_.try_emplace(ino, 0);
        if (fresh) it->second = fetch_size(io, ino).value_or(0);
        if (end > it->second) {
          it->second = end;
          grow = true;
        }
      }
      if (grow) {
        const auto r = inline_request(nvme::DispatchTarget::kStandalone,
                                      nvme::InlineOp::kTruncate, ino, end);
        io.cost += call(r).cost;
      }
      latency_[static_cast<std::size_t>(OpClass::kWrite)]->record(io.cost);
      cache_hit_path_ns_->record(io.cost);
      return io;
    }
    // Cache full — the DPU is evicting; fall through to write-through.
  }

  auto r = inline_request(nvme::DispatchTarget::kStandalone,
                          nvme::InlineOp::kWrite, ino, offset);
  r.write_data = src;
  const auto res = call(r);
  if (!complete(io, res, OpClass::kWrite)) return io;
  io.bytes = res.result;
  {
    // Write-through grew the file in KVFS directly; keep our size view in
    // sync so a later cached write can't issue a shrinking truncate.
    sim::LockGuard lock(size_mu_);
    auto& known = size_cache_[ino];
    known = std::max(known, offset + src.size());
  }
  // DPC_CHECK_MUTATE writethrough-invalidate: skip the invalidation below;
  // dpc_check arms this and must observe a stale cached page.
  if (host_cache_ && page_aligned &&
      !sim::schedhook::mutate("writethrough-invalidate")) {
    // Keep the cache coherent with the backend. A direct write bypasses the
    // cache; a buffered write lands here only when its bucket had no free
    // entry, and a DPU prefetch may have filled the page from the backend
    // after that check but before this write reached the backend. Either
    // way a cached copy is now older than the backend. A prefetch that
    // read the backend before the write holds the bucket lock until it
    // publishes, so this invalidation always sees (and drops) its page.
    for (std::uint64_t at = 0; at < src.size(); at += kCachePage)
      host_cache_->invalidate(ino, (offset + at) / kCachePage);
  }
  return io;
}

Io DpcSystem::truncate(std::uint64_t ino, std::uint64_t new_size) {
  // Keep the hybrid cache and the adapter's size view coherent: drop pages
  // fully past the new end and zero the cached boundary page's tail (the
  // DPU-side truncate zeroes the backend copy).
  if (host_cache_) {
    host_cache_->invalidate_above(ino, (new_size + kCachePage - 1) /
                                           kCachePage);
    const auto tail = static_cast<std::uint32_t>(new_size % kCachePage);
    if (tail != 0) host_cache_->zero_tail(ino, new_size / kCachePage, tail);
  }
  {
    sim::LockGuard lock(size_mu_);
    size_cache_[ino] = new_size;
  }
  const auto res = call(inline_request(nvme::DispatchTarget::kStandalone,
                                      nvme::InlineOp::kTruncate, ino,
                                      new_size));
  Io io;
  io.ino = ino;
  complete(io, res, OpClass::kMeta);
  return io;
}

Io DpcSystem::fsync(std::uint64_t ino) {
  const auto res = call(inline_request(nvme::DispatchTarget::kStandalone,
                                      nvme::InlineOp::kFsync, ino, 0));
  Io io;
  io.ino = ino;
  complete(io, res, OpClass::kMeta);
  return io;
}

// --------------------------------------------------------------- DFS ops

Io DpcSystem::dfs_create(const std::string& path, std::uint64_t prealloc) {
  DPC_CHECK_MSG(dfs_client_ != nullptr, "DpcSystem built without DFS");
  FileRequest req;
  req.op = FileOp::kCreate;
  req.name = path;
  req.aux = prealloc;
  return header_call(nvme::DispatchTarget::kDistributed, req, nullptr);
}

Io DpcSystem::dfs_open(const std::string& path) {
  DPC_CHECK_MSG(dfs_client_ != nullptr, "DpcSystem built without DFS");
  FileRequest req;
  req.op = FileOp::kOpen;
  req.name = path;
  return header_call(nvme::DispatchTarget::kDistributed, req, nullptr);
}

Io DpcSystem::dfs_read(std::uint64_t ino, std::uint64_t offset,
                       std::span<std::byte> dst) {
  if (dst.size() > opts_.max_io) {
    return segmented(ino, dst, opts_.max_io,
                     [&](std::uint64_t at, std::span<std::byte> piece) {
                       return dfs_read(ino, offset + at, piece);
                     });
  }
  auto r = inline_request(nvme::DispatchTarget::kDistributed,
                          nvme::InlineOp::kRead, ino, offset);
  r.read_data_cap = static_cast<std::uint32_t>(dst.size());
  const auto res = call(r, dst);
  Io io;
  io.ino = ino;
  if (complete(io, res, OpClass::kRead)) io.bytes = res.result;
  return io;
}

Io DpcSystem::dfs_write(std::uint64_t ino, std::uint64_t offset,
                        std::span<const std::byte> src) {
  if (src.size() > opts_.max_io) {
    return segmented(ino, src, opts_.max_io,
                     [&](std::uint64_t at, std::span<const std::byte> piece) {
                       return dfs_write(ino, offset + at, piece);
                     });
  }
  auto r = inline_request(nvme::DispatchTarget::kDistributed,
                          nvme::InlineOp::kWrite, ino, offset);
  r.write_data = src;
  const auto res = call(r);
  Io io;
  io.ino = ino;
  if (complete(io, res, OpClass::kWrite)) io.bytes = res.result;
  return io;
}

// ---------------------------------------------------------- introspection

const cache::HostCacheStats* DpcSystem::cache_stats() const {
  return host_cache_ ? &host_cache_->stats() : nullptr;
}

const cache::ControlPlaneStats* DpcSystem::control_stats() const {
  return cache_ctl_ ? &cache_ctl_->stats() : nullptr;
}

}  // namespace dpc::core
