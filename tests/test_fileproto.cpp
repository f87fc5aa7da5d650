#include "core/fileproto.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"

namespace dpc::core {
namespace {

TEST(FileProto, RequestRoundTrip) {
  FileRequest req;
  req.op = FileOp::kRename;
  req.parent = 42;
  req.aux = 99;
  req.mode = 0755;
  req.name = "old-name";
  req.name2 = "new-name";
  const auto enc = req.encode();
  const auto back = FileRequest::decode(enc);
  EXPECT_EQ(back.op, FileOp::kRename);
  EXPECT_EQ(back.parent, 42u);
  EXPECT_EQ(back.aux, 99u);
  EXPECT_EQ(back.mode, 0755u);
  EXPECT_EQ(back.name, "old-name");
  EXPECT_EQ(back.name2, "new-name");
}

TEST(FileProto, EmptyAndLongNames) {
  FileRequest req;
  req.name = std::string(1024, 'n');
  req.name2 = "";
  const auto back = FileRequest::decode(req.encode());
  EXPECT_EQ(back.name.size(), 1024u);
  EXPECT_TRUE(back.name2.empty());
}

TEST(FileProto, BinaryNamesSurvive) {
  FileRequest req;
  req.name = std::string("\x00\xFF\x7F", 3);
  const auto back = FileRequest::decode(req.encode());
  EXPECT_EQ(back.name, req.name);
}

TEST(FileProto, ResponseRoundTripWithAttr) {
  FileResponse resp;
  resp.err = 13;
  resp.ino = 7;
  kvfs::Attr attr;
  attr.ino = 7;
  attr.size = 123456;
  attr.type = kvfs::FileType::kDirectory;
  resp.attr = attr;
  const auto back = FileResponse::decode(resp.encode());
  EXPECT_EQ(back.err, 13);
  EXPECT_EQ(back.ino, 7u);
  ASSERT_TRUE(back.attr.has_value());
  EXPECT_EQ(back.attr->size, 123456u);
  EXPECT_EQ(back.attr->type, kvfs::FileType::kDirectory);
}

TEST(FileProto, ResponseRoundTripWithEntries) {
  FileResponse resp;
  resp.entries.push_back({"alpha", 1});
  resp.entries.push_back({"beta", 2});
  const auto back = FileResponse::decode(resp.encode());
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].name, "alpha");
  EXPECT_EQ(back.entries[1].ino, 2u);
  EXPECT_FALSE(back.attr.has_value());
}

TEST(FileProto, ShortBufferRejected) {
  FileRequest req;
  req.name = "x";
  auto enc = req.encode();
  enc.resize(enc.size() - 1);
  EXPECT_THROW(FileRequest::decode(enc), dpc::CheckFailure);
  EXPECT_THROW(FileResponse::decode(std::vector<std::byte>(2)),
               dpc::CheckFailure);
}

TEST(FileProto, ResponseCapacityCoversWorstCase) {
  FileResponse resp;
  resp.attr = kvfs::Attr{};
  for (int i = 0; i < 100; ++i)
    resp.entries.push_back({std::string(1024, 'x'),
                            static_cast<std::uint64_t>(i)});
  EXPECT_LE(resp.encode().size(), response_capacity(100));
}

// Every opcode the DPU dispatcher switches on survives the wire with all
// of its fields, so no op is silently turned into another on the way.
class FileOpRoundTrip : public ::testing::TestWithParam<FileOp> {};

TEST_P(FileOpRoundTrip, KeepsOpAndFields) {
  FileRequest req;
  req.op = GetParam();
  req.parent = 0x0123456789ABCDEFULL;
  req.aux = static_cast<std::uint64_t>(GetParam()) << 32 | 7;
  req.mode = 0100644;
  req.name = "dir/name-" + std::to_string(static_cast<int>(GetParam()));
  req.name2 = "target";
  const auto enc = req.encode();
  const auto back = FileRequest::decode(enc);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.parent, req.parent);
  EXPECT_EQ(back.aux, req.aux);
  EXPECT_EQ(back.mode, req.mode);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.name2, req.name2);
  // Truncating the encoding anywhere is detected, never misparsed.
  EXPECT_THROW(FileRequest::decode(std::span{enc}.first(enc.size() - 1)),
               CheckFailure);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, FileOpRoundTrip,
    ::testing::Values(FileOp::kLookup, FileOp::kCreate, FileOp::kMkdir,
                      FileOp::kUnlink, FileOp::kRmdir, FileOp::kRename,
                      FileOp::kGetattr, FileOp::kReaddir, FileOp::kResolve,
                      FileOp::kOpen, FileOp::kLink, FileOp::kSymlink,
                      FileOp::kReadlink),
    [](const ::testing::TestParamInfo<FileOp>& info) {
      return "op" + std::to_string(static_cast<int>(info.param));
    });

}  // namespace
}  // namespace dpc::core
