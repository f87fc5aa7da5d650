// dpc_lint negative fixture: kvfs-commit.
//
// Every KVFS mutation is one guarded kv::Batch sent through Kvfs::commit:
// the op lands whole or not at all, between its crash points. A
// single-key RemoteKv put, sub-write or erase beside the batch is a
// finding — a crash or a failed attempt between the two tears the op.
#include <cstdint>
#include <string_view>

namespace dpc::lint_fixture {

// Stand-ins for kv::RemoteKv and kv::Batch.
struct Remote {
  bool put(std::string_view, std::string_view) { return true; }
  bool write_sub(std::string_view, std::uint64_t, std::string_view) {
    return true;
  }
  bool erase(std::string_view) { return true; }
  bool apply(int) { return true; }
};

struct Fs {
  Remote* store_ = nullptr;

  // An attr updated by a bare put after the data went out in a batch.
  void write_then_put_attr() {
    store_->apply(1);
    store_->put("attr", "size");  // expect: kvfs-commit
  }

  // A block overwritten in place outside the op's batch.
  void overwrite_outside_batch() {
    store_->write_sub("block", 0, "data");  // expect: kvfs-commit
  }

  // A data KV dropped on its own.
  void purge_outside_batch(Remote* kv) {
    kv->erase("small");  // expect: kvfs-commit
  }

  // Control: the whole op as one batch is the idiom and must NOT fire.
  void one_batch() { store_->apply(1); }
};

}  // namespace dpc::lint_fixture
