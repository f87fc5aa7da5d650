// NVMe command structures and the nvme-fs vendor command encoding of §3.2.
//
// The paper augments the NVMe protocol with a bidirectional vendor command:
//
//   * Opcode (DW0[7:0]) = 0xA3 — bits[1:0] = 11b (bidirectional transfer),
//     bits[6:2] = 01000b (function), bit 7 = 1b (vendor/customized).
//   * DW0[10]   — request type for IO_Dispatch: 0 = standalone (KVFS),
//                 1 = distributed (DFS client).
//   * DW0[14]   — PSDT for the *write* direction: 0 = PRP, 1 = SGL.
//   * DW0[15]   — PSDT for the *read* direction:  0 = PRP, 1 = SGL.
//   * DW2–5     — PRP Write entries (locates the host write buffer).
//   * DW6–9     — PRP Read entries (locates the host read buffer).
//   * DW10      — bits[23:0] Write_len: payload bytes host → DPU;
//                 bits[31:24] tenant id (reproduction extension, see below).
//   * DW11      — Read_len:  payload bytes DPU → host.
//   * DW13      — WH_len (low 16) and RH_len (high 16): bytes taken by the
//                 write-side and read-side file headers inside the buffers.
//
// Reproduction extension (in the same spirit — §3.2 is explicit that DPC
// modifies the SQE structure): simple data-path operations on an already
// open inode (read / write / fsync / truncate) are carried *inline* in
// otherwise-unused SQE fields — op in DW0[13:11], inode in NSID+DW12,
// offset in DW14+DW15 — so that neither direction needs a header in the
// payload buffers. This is what makes an 8 KB file *read* cost the same
// 4 DMA operations as the paper's 8 KB write (Fig. 4): SQE fetch, PRP-list
// fetch, one payload DMA, CQE. Metadata operations (open/create/stat/...)
// put a serialized header in the write buffer and flag WH_len.
//
// PRP is the default (PSDT bits 0); this reproduction implements the PRP
// path and rejects SGL.
//
// Tenancy extension (one DPU fronting many mounts): every
// nvme-fs command carries the issuing tenant's id in DW10[31:24] so the
// DPU-side QoS layer (src/dpu/qos.*) can schedule, rate-limit, and shed per
// tenant. Write_len shrinks to 24 bits — the per-command payload cap is
// ~1 MB + one header page, far below the 16 MB the field still addresses
// (encode_nvme_fs enforces it). Over-budget commands complete with the
// retryable Status::kThrottled whose CQE result dword carries a modelled
// retry-after hint in nanoseconds.
#pragma once

#include <cstdint>
#include <span>

#include "sim/check.hpp"

namespace dpc::nvme {

inline constexpr std::uint8_t kNvmeFsOpcode = 0xA3;
inline constexpr std::uint32_t kPageSize = 4096;

/// Tenant identity carried on the wire in DW10[31:24]. Tenant 0 is the
/// default ("the host kernel") so a stack that never configures QoS is
/// single-tenant with zero ceremony.
using TenantId = std::uint8_t;
/// Tenants the QoS layer tracks individually; wire ids are taken modulo
/// this, so an id outside the table aliases onto a tracked slot instead of
/// escaping accounting.
inline constexpr std::uint32_t kMaxTenants = 16;
/// DW10 bits available to Write_len once the tenant byte is carved out.
inline constexpr std::uint32_t kMaxWriteLen = (1u << 24) - 1;

/// Submission queue entry — 16 dwords / 64 bytes, as on the wire.
struct Sqe {
  std::uint32_t dw0 = 0;        // opcode | req-type | psdt | cid
  std::uint32_t nsid = 0;       // DW1  (inline inode low 32 bits)
  std::uint64_t prp_write1 = 0; // DW2-3
  std::uint64_t prp_write2 = 0; // DW4-5
  std::uint64_t prp_read1 = 0;  // DW6-7
  std::uint64_t prp_read2 = 0;  // DW8-9
  std::uint32_t write_len = 0;  // DW10
  std::uint32_t read_len = 0;   // DW11
  std::uint32_t dw12 = 0;       // inline inode high 32 bits
  std::uint32_t dw13 = 0;       // WH_len | RH_len << 16
  std::uint32_t dw14 = 0;       // inline offset low 32 bits
  std::uint32_t dw15 = 0;       // inline offset high 32 bits
};
static_assert(sizeof(Sqe) == 64, "SQE must be 64 bytes");

/// Completion queue entry — 4 dwords / 16 bytes.
struct Cqe {
  std::uint32_t result = 0;     // DW0: command-specific (bytes produced)
  std::uint32_t dw1 = 0;
  std::uint16_t sq_head = 0;    // DW2
  std::uint16_t sq_id = 0;
  std::uint16_t cid = 0;        // DW3
  std::uint16_t status = 0;     // bit0 = phase tag, bits[15:1] = status code
};
static_assert(sizeof(Cqe) == 16, "CQE must be 16 bytes");

enum class Status : std::uint16_t {
  kSuccess = 0,
  kInvalidOpcode = 1,
  kInvalidField = 2,
  kDataTransferError = 4,   ///< transient transfer fault — retryable
  kInternalError = 6,
  kAbortedByRequest = 7,    ///< host-initiated abort (timeout) — retryable
  /// Payload failed its end-to-end CRC32C (the 4-byte trailer the INI
  /// appends inside the data DMA). Deliberately NOT retryable: the bytes
  /// are provably damaged at rest or in the buffers, so resubmitting reads
  /// the same damage — recovery goes through redundancy (EC reconstruct)
  /// or surfaces EIO.
  kDataIntegrityError = 8,
  /// Admission control rejected the command (the DPU over its global
  /// queue/in-flight caps). Retryable:
  /// nothing was applied and the condition is transient by construction.
  /// The CQE result dword carries a modelled retry-after hint in
  /// nanoseconds that RetryPolicy-driven resubmitters honor as a backoff
  /// floor.
  kThrottled = 9,
  kFsError = 0x80,  ///< file-level error; CQE result carries -errno
};

/// True for statuses that indicate a transient transport/device condition
/// where resubmitting the same command is safe and may succeed.
/// kDataIntegrityError is excluded by design — see its comment.
constexpr bool is_retryable(Status st) {
  return st == Status::kDataTransferError ||
         st == Status::kAbortedByRequest || st == Status::kThrottled;
}

/// Bytes of the CRC32C trailer the INI appends to the write payload and the
/// TGT appends to the read payload — rides inside the same data DMA, so the
/// Fig. 4 DMA count is unchanged by the integrity envelope.
inline constexpr std::uint32_t kPayloadCrcBytes = 4;

/// Which offloaded stack IO_Dispatch should route the request to (DW0[10]).
enum class DispatchTarget : std::uint8_t {
  kStandalone = 0,  ///< KVFS
  kDistributed = 1, ///< DFS client
};

enum class Psdt : std::uint8_t { kPrp = 0, kSgl = 1 };

/// Inline data-path op carried in DW0[13:11] (reproduction extension).
enum class InlineOp : std::uint8_t {
  kNone = 0,      ///< header-carrying command: look at WH_len
  kRead = 1,
  kWrite = 2,
  kFsync = 3,
  kTruncate = 4,  ///< inline offset = new size
};

/// Decoded view of the nvme-fs vendor command.
struct NvmeFsCmd {
  DispatchTarget target = DispatchTarget::kStandalone;
  Psdt write_psdt = Psdt::kPrp;
  Psdt read_psdt = Psdt::kPrp;
  InlineOp inline_op = InlineOp::kNone;
  std::uint16_t cid = 0;
  TenantId tenant = 0;         ///< issuing tenant (DW10[31:24])
  std::uint64_t inode = 0;     ///< inline inode (data-path ops)
  std::uint64_t offset = 0;    ///< inline file offset (data-path ops)
  std::uint64_t prp_write1 = 0;
  std::uint64_t prp_write2 = 0;
  std::uint64_t prp_read1 = 0;
  std::uint64_t prp_read2 = 0;
  std::uint32_t write_len = 0;
  std::uint32_t read_len = 0;
  std::uint16_t write_hdr_len = 0;  ///< WH_len
  std::uint16_t read_hdr_len = 0;   ///< RH_len
};

/// Builds the on-wire SQE for an nvme-fs command.
Sqe encode_nvme_fs(const NvmeFsCmd& cmd);

/// Parses an SQE; DPC_CHECKs the opcode is 0xA3 with the bidirectional and
/// vendor bits set as §3.2 specifies.
NvmeFsCmd decode_nvme_fs(const Sqe& sqe);

/// True if the SQE carries the nvme-fs vendor opcode.
bool is_nvme_fs(const Sqe& sqe);

std::uint8_t opcode_of(const Sqe& sqe);
std::uint16_t cid_of(const Sqe& sqe);

/// Tenant id carried in DW10[31:24] — valid for nvme-fs SQEs; cheap enough
/// for the TGT ingest path to classify without a full decode.
inline TenantId tenant_of(const Sqe& sqe) {
  return static_cast<TenantId>(sqe.write_len >> 24);
}

/// Builds a completion for command `cid` with phase tag `phase`.
Cqe make_cqe(std::uint16_t cid, Status st, bool phase, std::uint32_t result,
             std::uint16_t sq_head, std::uint16_t sq_id);

inline Status status_of(const Cqe& cqe) {
  return static_cast<Status>(cqe.status >> 1);
}
inline bool phase_of(const Cqe& cqe) { return (cqe.status & 1u) != 0; }

}  // namespace dpc::nvme
