#include "kvfs/types.hpp"

#include <cstring>

#include "sim/check.hpp"

namespace dpc::kvfs {

namespace {
void append_be64(std::string& s, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    s.push_back(static_cast<char>((v >> shift) & 0xFF));
}
}  // namespace

std::string inode_key(Ino p_ino, std::string_view name) {
  DPC_CHECK_MSG(!name.empty() && name.size() <= kMaxNameLen,
                "invalid name length " << name.size());
  DPC_CHECK_MSG(name.find('/') == std::string_view::npos,
                "name contains '/'");
  std::string k;
  k.reserve(1 + 8 + name.size());
  k.push_back('D');
  append_be64(k, p_ino);
  k.append(name);
  return k;
}

std::string inode_key_prefix(Ino p_ino) {
  std::string k;
  k.reserve(9);
  k.push_back('D');
  append_be64(k, p_ino);
  return k;
}

std::string_view name_of_inode_key(std::string_view key) {
  DPC_CHECK(key.size() > 9 && key[0] == 'D');
  return key.substr(9);
}

namespace {
std::uint64_t read_be64(std::string_view key, std::size_t at) {
  DPC_CHECK(key.size() >= at + 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v = (v << 8) | static_cast<std::uint8_t>(key[at + static_cast<std::size_t>(i)]);
  return v;
}
}  // namespace

std::uint64_t id_of_tagged_key(std::string_view key) {
  DPC_CHECK(key.size() >= 9);
  return read_be64(key, 1);
}

Ino parent_of_inode_key(std::string_view key) {
  DPC_CHECK(key.size() > 9 && key[0] == 'D');
  return read_be64(key, 1);
}

namespace {
std::string tagged_key(char tag, std::uint64_t v) {
  std::string k;
  k.reserve(9);
  k.push_back(tag);
  append_be64(k, v);
  return k;
}
}  // namespace

std::string ino_counter_key() { return "C.ino"; }
std::string block_counter_key() { return "C.block"; }

std::string attr_key(Ino ino) { return tagged_key('A', ino); }
std::string small_key(Ino ino) { return tagged_key('S', ino); }
std::string extent_page_prefix(Ino ino) { return tagged_key('O', ino); }
std::string extent_page_key(Ino ino, std::uint32_t page) {
  std::string k = extent_page_prefix(ino);
  for (int shift = 24; shift >= 0; shift -= 8)
    k.push_back(static_cast<char>((page >> shift) & 0xFF));
  return k;
}
std::uint32_t page_of_extent_key(std::string_view key) {
  DPC_CHECK(key.size() == 13 && key[0] == 'O');
  std::uint32_t page = 0;
  for (std::size_t i = 9; i < key.size(); ++i)
    page = (page << 8) | static_cast<std::uint8_t>(key[i]);
  return page;
}
std::string block_key(std::uint64_t block_id) {
  return tagged_key('B', block_id);
}

kv::Bytes encode_ino(Ino ino) {
  kv::Bytes v(sizeof(Ino));
  std::memcpy(v.data(), &ino, sizeof(Ino));
  return v;
}

Ino decode_ino(const kv::Bytes& v) {
  DPC_CHECK(v.size() == sizeof(Ino));
  Ino ino;
  std::memcpy(&ino, v.data(), sizeof(Ino));
  return ino;
}

kv::Bytes encode_attr(const Attr& a) {
  kv::Bytes v(sizeof(Attr));
  std::memcpy(v.data(), &a, sizeof(Attr));
  return v;
}

Attr decode_attr(const kv::Bytes& v) {
  DPC_CHECK_MSG(v.size() == sizeof(Attr),
                "attribute value has " << v.size() << " bytes");
  Attr a;
  std::memcpy(&a, v.data(), sizeof(Attr));
  return a;
}

kv::Bytes encode_extent_page(const ExtentPage& page) {
  kv::Bytes v(sizeof(ExtentPage));
  std::memcpy(v.data(), page.data(), sizeof(ExtentPage));
  return v;
}

ExtentPage decode_extent_page(const kv::Bytes& v) {
  DPC_CHECK_MSG(v.size() == sizeof(ExtentPage),
                "extent page has " << v.size() << " bytes");
  ExtentPage page;
  std::memcpy(page.data(), v.data(), sizeof(ExtentPage));
  return page;
}

}  // namespace dpc::kvfs
