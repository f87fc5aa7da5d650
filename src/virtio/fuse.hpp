// Minimal FUSE wire protocol, shaped after <linux/fuse.h>, for the DPFS
// baseline (§2 M2 / Fig. 2): requests travel as
//   [fuse_in_header][op-specific arg][data?]           (driver → device)
//   [fuse_out_header][op-specific out / data?]         (device → driver)
// over a virtio-fs queue.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/check.hpp"

namespace dpc::virtio {

/// The opcodes the DPFS baseline's harness and tests send; values match
/// <linux/fuse.h>.
enum class FuseOpcode : std::uint32_t {
  kRead = 15,
  kWrite = 16,
  kDestroy = 38,
};

struct FuseInHeader {
  std::uint32_t len = 0;       ///< total request bytes incl. this header
  std::uint32_t opcode = 0;
  std::uint64_t unique = 0;    ///< request id, echoed in the reply
  std::uint64_t nodeid = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t pid = 0;
  std::uint32_t padding = 0;
};
static_assert(sizeof(FuseInHeader) == 40);

struct FuseOutHeader {
  std::uint32_t len = 0;  ///< total reply bytes incl. this header
  std::int32_t error = 0; ///< 0 or -errno
  std::uint64_t unique = 0;
};
static_assert(sizeof(FuseOutHeader) == 16);

struct FuseWriteIn {
  std::uint64_t fh = 0;
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t write_flags = 0;
  std::uint64_t lock_owner = 0;
  std::uint32_t flags = 0;
  std::uint32_t padding = 0;
};
static_assert(sizeof(FuseWriteIn) == 40);

struct FuseReadIn {
  std::uint64_t fh = 0;
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t read_flags = 0;
  std::uint64_t lock_owner = 0;
  std::uint32_t flags = 0;
  std::uint32_t padding = 0;
};
static_assert(sizeof(FuseReadIn) == 40);

struct FuseWriteOut {
  std::uint32_t size = 0;
  std::uint32_t padding = 0;
};

/// Serialization helper: append a trivially-copyable struct to a buffer.
template <typename T>
void append_pod(std::vector<std::byte>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

/// Deserialization helper: read a struct at `off`, checking bounds.
template <typename T>
T read_pod(std::span<const std::byte> buf, std::size_t off = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  DPC_CHECK_MSG(off + sizeof(T) <= buf.size(),
                "short FUSE message: need " << off + sizeof(T) << ", have "
                                            << buf.size());
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  return v;
}

}  // namespace dpc::virtio
