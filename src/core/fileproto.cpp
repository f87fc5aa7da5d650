#include "core/fileproto.hpp"

#include <cstring>

#include "sim/check.hpp"

namespace dpc::core {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& buf) : buf_(&buf) {}
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto at = buf_->size();
    buf_->resize(at + sizeof(T));
    std::memcpy(buf_->data() + at, &v, sizeof(T));
  }
  void str(const std::string& s) {
    DPC_CHECK(s.size() <= UINT16_MAX);
    pod(static_cast<std::uint16_t>(s.size()));
    const auto at = buf_->size();
    buf_->resize(at + s.size());
    std::memcpy(buf_->data() + at, s.data(), s.size());
  }

 private:
  std::vector<std::byte>* buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    DPC_CHECK_MSG(at_ + sizeof(T) <= buf_.size(), "short file message");
    T v;
    std::memcpy(&v, buf_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  std::string str() {
    const auto n = pod<std::uint16_t>();
    DPC_CHECK_MSG(at_ + n <= buf_.size(), "short file message (string)");
    std::string s(reinterpret_cast<const char*>(buf_.data() + at_), n);
    at_ += n;
    return s;
  }

 private:
  std::span<const std::byte> buf_;
  std::size_t at_ = 0;
};

constexpr std::uint8_t kHasAttr = 1;
}  // namespace

std::vector<std::byte> FileRequest::encode() const {
  std::vector<std::byte> buf;
  buf.reserve(32 + name.size() + name2.size());
  Writer w(buf);
  w.pod(static_cast<std::uint8_t>(op));
  w.pod(parent);
  w.pod(aux);
  w.pod(mode);
  w.str(name);
  w.str(name2);
  return buf;
}

FileRequest FileRequest::decode(std::span<const std::byte> buf) {
  Reader r(buf);
  FileRequest req;
  req.op = static_cast<FileOp>(r.pod<std::uint8_t>());
  req.parent = r.pod<std::uint64_t>();
  req.aux = r.pod<std::uint64_t>();
  req.mode = r.pod<std::uint32_t>();
  req.name = r.str();
  req.name2 = r.str();
  return req;
}

std::vector<std::byte> FileResponse::encode() const {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.pod(err);
  w.pod(ino);
  w.pod(static_cast<std::uint8_t>(attr ? kHasAttr : 0));
  if (attr) w.pod(*attr);
  w.pod(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.str(e.name);
    w.pod(e.ino);
  }
  return buf;
}

FileResponse FileResponse::decode(std::span<const std::byte> buf) {
  Reader r(buf);
  FileResponse res;
  res.err = r.pod<std::int32_t>();
  res.ino = r.pod<std::uint64_t>();
  if (r.pod<std::uint8_t>() & kHasAttr) res.attr = r.pod<kvfs::Attr>();
  const auto n = r.pod<std::uint32_t>();
  res.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    kvfs::DirEntry e;
    e.name = r.str();
    e.ino = r.pod<std::uint64_t>();
    res.entries.push_back(std::move(e));
  }
  return res;
}

std::uint32_t response_capacity(std::uint32_t max_dirents) {
  // err + ino + flag + attr + count + per-entry (len + 1024 name + ino).
  return 4 + 8 + 1 + static_cast<std::uint32_t>(sizeof(kvfs::Attr)) + 4 +
         max_dirents * (2 + 1024 + 8);
}

}  // namespace dpc::core
