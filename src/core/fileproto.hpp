// File-semantic message protocol carried over nvme-fs: the header-carrying
// metadata operations. Data-path operations (read/write/fsync/truncate) ride
// inline in the SQE (§3.2 and nvme/spec.hpp); everything with a name travels
// as a serialized FileRequest in the write buffer's header area (WH_len
// bytes), and the reply comes back as a FileResponse in the read buffer's
// header area (RH_len bytes).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kvfs/types.hpp"

namespace dpc::core {

enum class FileOp : std::uint8_t {
  kLookup = 1,
  kCreate,
  kMkdir,
  kUnlink,
  kRmdir,
  kRename,
  kGetattr,
  kReaddir,
  kResolve,  ///< full-path resolution
  kOpen,     ///< path-based open (DFS)
  kLink,     ///< hard link: parent=target ino, aux=new parent, name=new name
  kSymlink,  ///< parent=dir, name=link name, name2=target text
  kReadlink, ///< parent=ino; reply entries[0].name carries the target
};

struct FileRequest {
  FileOp op = FileOp::kLookup;
  std::uint64_t parent = 0;
  std::uint64_t aux = 0;        ///< second parent (rename), flags, …
  std::uint32_t mode = 0;
  std::string name;             ///< or full path for kResolve/kOpen
  std::string name2;            ///< rename target name

  std::vector<std::byte> encode() const;
  static FileRequest decode(std::span<const std::byte> buf);
};

struct FileResponse {
  std::int32_t err = 0;         ///< 0 or positive errno
  /// The inode the op named or made. kUnlink: the removed inode when its
  /// last link went (the host drops its cached pages), else 0.
  std::uint64_t ino = 0;
  std::optional<kvfs::Attr> attr;
  /// kReaddir: serialized entries.
  std::vector<kvfs::DirEntry> entries;

  std::vector<std::byte> encode() const;
  static FileResponse decode(std::span<const std::byte> buf);
};

/// Upper bound on an encoded response for sizing read-header capacity.
std::uint32_t response_capacity(std::uint32_t max_dirents);

}  // namespace dpc::core
