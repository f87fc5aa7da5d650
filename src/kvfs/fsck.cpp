#include "kvfs/fsck.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "kv/remote.hpp"
#include "sim/check.hpp"

namespace dpc::kvfs {

const char* to_string(FsckIssueKind k) {
  switch (k) {
    case FsckIssueKind::kDanglingDentry:
      return "dangling-dentry";
    case FsckIssueKind::kUnreachableInode:
      return "unreachable-inode";
    case FsckIssueKind::kMissingSmallData:
      return "missing-small-data";
    case FsckIssueKind::kMissingObject:
      return "missing-object";
    case FsckIssueKind::kMissingBlock:
      return "missing-block";
    case FsckIssueKind::kOrphanData:
      return "orphan-data";
    case FsckIssueKind::kOrphanBlock:
      return "orphan-block";
    case FsckIssueKind::kBadSmallSize:
      return "bad-small-size";
    case FsckIssueKind::kConflictingData:
      return "conflicting-data";
    case FsckIssueKind::kDirectoryHasData:
      return "directory-has-data";
    case FsckIssueKind::kBadLinkCount:
      return "bad-link-count";
    case FsckIssueKind::kBadSymlink:
      return "bad-symlink";
  }
  return "?";
}

std::size_t FsckReport::count(FsckIssueKind k) const {
  std::size_t n = 0;
  for (const auto& i : issues) n += i.kind == k ? 1 : 0;
  return n;
}

FsckReport fsck(const kv::KvStore& store) {
  FsckReport report;
  auto add = [&](FsckIssueKind kind, Ino ino,
                 std::string detail) -> FsckIssue& {
    FsckIssue is;
    is.kind = kind;
    is.ino = ino;
    is.detail = std::move(detail);
    report.issues.push_back(std::move(is));
    return report.issues.back();
  };

  // ---- gather the keyspace by flavor ----
  std::map<Ino, Attr> attrs;
  struct Dentry {
    Ino parent;
    std::string name;
    Ino ino;
  };
  std::vector<Dentry> dentries;
  std::map<Ino, std::uint64_t> small_sizes;
  // Each file's extent index, assembled from its pages.
  std::map<Ino, std::map<std::uint32_t, ExtentPage>> pages;
  std::map<std::uint64_t, std::uint64_t> block_sizes;  // id -> bytes

  store.scan_prefix("A", [&](std::string_view key, const kv::Bytes& v) {
    attrs.emplace(id_of_tagged_key(key), decode_attr(v));
    return true;
  });
  store.scan_prefix("D", [&](std::string_view key, const kv::Bytes& v) {
    dentries.push_back({parent_of_inode_key(key),
                        std::string(name_of_inode_key(key)), decode_ino(v)});
    return true;
  });
  store.scan_prefix("S", [&](std::string_view key, const kv::Bytes& v) {
    small_sizes.emplace(id_of_tagged_key(key), v.size());
    return true;
  });
  store.scan_prefix("O", [&](std::string_view key, const kv::Bytes& v) {
    pages[id_of_tagged_key(key)].emplace(page_of_extent_key(key),
                                         decode_extent_page(v));
    return true;
  });
  store.scan_prefix("B", [&](std::string_view key, const kv::Bytes& v) {
    block_sizes.emplace(id_of_tagged_key(key), v.size());
    return true;
  });

  report.inodes = attrs.size();
  report.blocks = block_sizes.size();

  // ---- dentry → attribute ----
  std::map<Ino, std::vector<const Dentry*>> children;
  std::map<Ino, std::uint32_t> subdir_count;
  std::map<Ino, std::uint32_t> ref_count;
  for (const auto& d : dentries) {
    if (!attrs.contains(d.ino)) {
      FsckIssue& is = add(
          FsckIssueKind::kDanglingDentry, d.ino,
          "entry '" + d.name + "' in dir " + std::to_string(d.parent) +
              " names a missing inode");
      is.parent = d.parent;
      is.name = d.name;
      continue;
    }
    children[d.parent].push_back(&d);
    ++ref_count[d.ino];
    if (attrs.at(d.ino).type == FileType::kDirectory)
      ++subdir_count[d.parent];
  }

  // ---- reachability from the root ----
  std::set<Ino> reachable{kRootIno};
  std::deque<Ino> frontier{kRootIno};
  while (!frontier.empty()) {
    const Ino dir = frontier.front();
    frontier.pop_front();
    const auto it = children.find(dir);
    if (it == children.end()) continue;
    for (const Dentry* d : it->second) {
      if (!reachable.insert(d->ino).second) continue;
      if (attrs.contains(d->ino) &&
          attrs.at(d->ino).type == FileType::kDirectory)
        frontier.push_back(d->ino);
    }
  }
  for (const auto& [ino, attr] : attrs) {
    if (!reachable.contains(ino)) {
      add(FsckIssueKind::kUnreachableInode, ino,
          attr.type == FileType::kDirectory ? "orphan directory"
                                            : "orphan file");
    }
  }

  // ---- per-inode data invariants ----
  std::set<std::uint64_t> referenced_blocks;
  for (const auto& [ino, attr] : attrs) {
    const bool has_small = small_sizes.contains(ino);
    const auto pages_it = pages.find(ino);
    const bool has_pages = pages_it != pages.end();
    // Page 0 is the promotion commit point: it alone makes a file big.
    const bool has_page0 = has_pages && pages_it->second.contains(0);
    if (attr.type == FileType::kDirectory) {
      ++report.directories;
      if (has_small || has_pages)
        add(FsckIssueKind::kDirectoryHasData, ino, "data KVs on a directory");
      const std::uint32_t expect =
          2 + (subdir_count.contains(ino) ? subdir_count.at(ino) : 0);
      if (attr.nlink != expect) {
        std::ostringstream os;
        os << "nlink " << attr.nlink << ", expected " << expect;
        add(FsckIssueKind::kBadLinkCount, ino, os.str()).aux = expect;
      }
      continue;
    }
    if (attr.type == FileType::kSymlink) {
      ++report.symlinks;
      const auto it = small_sizes.find(ino);
      if (it == small_sizes.end() || it->second != attr.size ||
          attr.size == 0) {
        add(FsckIssueKind::kBadSymlink, ino,
            "symlink target data missing or size mismatch");
      }
      if (has_pages)
        add(FsckIssueKind::kConflictingData, ino,
            "extent pages attached to a symlink");
      const std::uint32_t lrefs =
          ref_count.contains(ino) ? ref_count.at(ino) : 0;
      if (attr.nlink != lrefs) {
        std::ostringstream os;
        os << "symlink nlink " << attr.nlink << ", " << lrefs << " entries";
        add(FsckIssueKind::kBadLinkCount, ino, os.str()).aux = lrefs;
      }
      continue;
    }
    ++report.regular_files;
    report.data_bytes += attr.size;
    const std::uint32_t refs =
        ref_count.contains(ino) ? ref_count.at(ino) : 0;
    if (attr.nlink != refs) {
      std::ostringstream os;
      os << "file nlink " << attr.nlink << ", " << refs
         << " directory entries reference it";
      add(FsckIssueKind::kBadLinkCount, ino, os.str()).aux = refs;
    }
    if (has_small && has_pages)
      add(FsckIssueKind::kConflictingData, ino,
          "both small-file KV and extent pages present");
    else if (has_pages && !attr.big_file)
      add(FsckIssueKind::kConflictingData, ino,
          "extent pages present but big_file flag clear");
    else if (has_small && attr.big_file)
      add(FsckIssueKind::kConflictingData, ino,
          "small-file KV present but big_file flag set");
    if (attr.big_file) {
      ++report.big_files;
      if (!has_page0) {
        add(FsckIssueKind::kMissingObject, ino,
            "big_file set but no extent page 0");
        continue;
      }
      for (const auto& [page, ids] : pages_it->second) {
        for (const std::uint64_t id : ids) {
          if (id == 0) continue;  // hole
          referenced_blocks.insert(id);
          if (!block_sizes.contains(id)) {
            FsckIssue& is =
                add(FsckIssueKind::kMissingBlock, ino,
                    "block " + std::to_string(id) + " in extent page " +
                        std::to_string(page) + " referenced but absent");
            is.aux = id;
            is.page = page;
          }
        }
      }
    } else {
      ++report.small_files;
      if (attr.size > kSmallFileMax) {
        add(FsckIssueKind::kBadSmallSize, ino,
            "small file of " + std::to_string(attr.size) + " bytes");
      }
      if (attr.size > 0 && !has_small) {
        // Legal for fully-sparse files, but worth surfacing.
        add(FsckIssueKind::kMissingSmallData, ino,
            "non-empty small file without a data KV (sparse?)")
            .aux = attr.size;
      }
    }
  }

  // ---- orphans ----
  for (const auto& [ino, bytes] : small_sizes) {
    (void)bytes;
    if (!attrs.contains(ino))
      add(FsckIssueKind::kOrphanData, ino, "small-file KV without attribute");
  }
  // Blocks of attribute-less pages stay unreferenced → reported below.
  for (const auto& [ino, file_pages] : pages) {
    if (!attrs.contains(ino))
      add(FsckIssueKind::kOrphanData, ino,
          std::to_string(file_pages.size()) +
              " extent page(s) without attribute");
  }
  for (const auto& [id, bytes] : block_sizes) {
    (void)bytes;
    if (!referenced_blocks.contains(id))
      add(FsckIssueKind::kOrphanBlock, id,
          "block KV no reachable file object references");
  }

  return report;
}

// ----------------------------------------------------------------- repair

namespace {

/// Repair-side store access: fixes charge modelled remote round trips even
/// though recovery talks to the raw store (below fault injection).
struct Fixer {
  kv::KvStore& kv;
  FsckRepairReport& rep;

  std::optional<Attr> attr(Ino ino) {
    rep.cost += kv::RemoteKv::op_cost(true, sizeof(Attr));
    const auto v = kv.get(attr_key(ino));
    if (!v) return std::nullopt;
    return decode_attr(*v);
  }
  void put_attr(const Attr& a) {
    rep.cost += kv::RemoteKv::op_cost(false, sizeof(Attr));
    kv.put(attr_key(a.ino), encode_attr(a));
    ++rep.repairs;
  }
  void erase(const std::string& key) {
    rep.cost += kv::RemoteKv::op_cost(false, 0);
    if (kv.erase(key)) ++rep.repairs;
  }
  /// The file's extent pages, keyed by KV key (one scan round trip).
  std::vector<std::pair<std::string, ExtentPage>> pages(Ino ino) {
    std::vector<std::pair<std::string, ExtentPage>> out;
    kv.scan_prefix(extent_page_prefix(ino),
                   [&](std::string_view key, const kv::Bytes& v) {
                     out.emplace_back(std::string(key), decode_extent_page(v));
                     return true;
                   });
    rep.cost += kv::RemoteKv::op_cost(true, out.size() * sizeof(ExtentPage));
    return out;
  }
  /// Drops every extent page of the file and every block they reference.
  void erase_object(Ino ino) {
    for (const auto& [key, ids] : pages(ino)) {
      for (const std::uint64_t b : ids)
        if (b != 0) erase(block_key(b));
      erase(key);
    }
  }
};

/// Finds or creates /lost+found for reattaching orphan subtrees. Returns 0
/// when the name is taken by a non-directory (fix skipped; the operator
/// must intervene — never overwrite live data to make room).
Ino ensure_lost_found(Fixer& fx) {
  static constexpr std::string_view kName = "lost+found";
  fx.rep.cost += kv::RemoteKv::op_cost(true, 0);
  if (const auto v = fx.kv.get(inode_key(kRootIno, kName))) {
    const Ino ino = decode_ino(*v);
    const auto a = fx.attr(ino);
    return a && a->type == FileType::kDirectory ? ino : 0;
  }
  fx.rep.cost += kv::RemoteKv::op_cost(false, 0);
  const Ino ino = fx.kv.increment(ino_counter_key(), 1);
  Attr a;
  a.ino = ino;
  a.type = FileType::kDirectory;
  a.mode = 0700;
  a.nlink = 2;  // next pass recomputes against reattached subdirs
  fx.put_attr(a);
  fx.rep.cost += kv::RemoteKv::op_cost(false, 0);
  fx.kv.put(inode_key(kRootIno, kName), encode_ino(ino));
  ++fx.rep.repairs;
  return ino;
}

/// Applies the fix for one issue. Every fix re-probes the live keyspace
/// first: fixes earlier in the same pass may have already resolved (or
/// reshaped) the problem, and a stale fix must never touch a healthy inode.
void apply_fix(Fixer& fx, const FsckIssue& is,
               const std::set<Ino>& referenced) {
  kv::KvStore& kv = fx.kv;
  switch (is.kind) {
    case FsckIssueKind::kDanglingDentry: {
      const std::string key = inode_key(is.parent, is.name);
      fx.rep.cost += kv::RemoteKv::op_cost(true, 0);
      const auto v = kv.get(key);
      if (v && decode_ino(*v) == is.ino && !kv.contains(attr_key(is.ino)))
        fx.erase(key);
      return;
    }

    case FsckIssueKind::kUnreachableInode: {
      const auto a = fx.attr(is.ino);
      if (!a) return;
      // An unreachable inode some dentry still names sits inside an orphan
      // subtree: reattaching the subtree's *root* (which nothing names)
      // restores the whole tree, so leave the interior alone.
      if (referenced.contains(is.ino)) return;
      const bool empty_file = a->type == FileType::kRegular && a->size == 0 &&
                              !kv.contains(small_key(is.ino)) &&
                              fx.pages(is.ino).empty();
      if (empty_file) {
        fx.erase(attr_key(is.ino));
        return;
      }
      const Ino lf = ensure_lost_found(fx);
      if (lf == 0) return;
      fx.rep.cost += kv::RemoteKv::op_cost(false, 0);
      if (kv.put_if_absent(inode_key(lf, "ino" + std::to_string(is.ino)),
                           encode_ino(is.ino)))
        ++fx.rep.repairs;
      return;
    }

    case FsckIssueKind::kMissingSmallData: {
      auto a = fx.attr(is.ino);
      if (!a || a->big_file || a->size == 0 || kv.contains(small_key(is.ino)))
        return;
      // The bytes are unrecoverable; materialize the zeros reads already
      // return so the state is self-describing.
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(a->size, kSmallFileMax));
      const kv::Bytes zeros(n, std::byte{0});
      fx.rep.cost += kv::RemoteKv::op_cost(false, n);
      kv.put(small_key(is.ino), zeros);
      ++fx.rep.repairs;
      return;
    }

    case FsckIssueKind::kMissingObject: {
      auto a = fx.attr(is.ino);
      if (!a || !a->big_file || kv.contains(extent_page_key(is.ino, 0)))
        return;
      // Without page 0 the file is not big: drop the index remnant and the
      // blocks it names, which are unreachable anyway.
      fx.erase_object(is.ino);
      a->big_file = 0;
      a->size = 0;
      fx.put_attr(*a);
      return;
    }

    case FsckIssueKind::kMissingBlock: {
      // Rewrites only the page that holds the dead id.
      const std::string key = extent_page_key(is.ino, is.page);
      fx.rep.cost += kv::RemoteKv::op_cost(true, sizeof(ExtentPage));
      const auto v = kv.get(key);
      if (!v || kv.contains(block_key(is.aux))) return;
      ExtentPage ids = decode_extent_page(*v);
      bool changed = false;
      for (auto& b : ids) {
        if (b == is.aux) {
          b = 0;  // dead reference becomes a hole (reads as zeros)
          changed = true;
        }
      }
      if (!changed) return;
      fx.rep.cost += kv::RemoteKv::op_cost(false, sizeof(ExtentPage));
      kv.put(key, encode_extent_page(ids));
      ++fx.rep.repairs;
      return;
    }

    case FsckIssueKind::kOrphanData: {
      if (kv.contains(attr_key(is.ino))) return;
      fx.erase(small_key(is.ino));
      fx.erase_object(is.ino);
      return;
    }

    case FsckIssueKind::kOrphanBlock: {
      // `ino` holds the block id for this kind. A same-pass fix can
      // resurrect references (the conflicting-data fix completing an
      // interrupted promotion re-arms the owner's big_file flag), so
      // re-probe the live extent pages before erasing.
      bool referenced = false;
      kv.scan_prefix("O", [&](std::string_view, const kv::Bytes& v) {
        const ExtentPage ids = decode_extent_page(v);
        referenced = std::find(ids.begin(), ids.end(), is.ino) != ids.end();
        return !referenced;
      });
      fx.rep.cost += kv::RemoteKv::op_cost(true, 0);
      if (!referenced) fx.erase(block_key(is.ino));
      return;
    }

    case FsckIssueKind::kBadSmallSize: {
      auto a = fx.attr(is.ino);
      if (!a || a->big_file || a->size <= kSmallFileMax) return;
      fx.rep.cost += kv::RemoteKv::op_cost(true, 0);
      if (auto v = kv.get(small_key(is.ino));
          v && v->size() > kSmallFileMax) {
        v->resize(kSmallFileMax);
        fx.rep.cost += kv::RemoteKv::op_cost(false, v->size());
        kv.put(small_key(is.ino), *v);
        ++fx.rep.repairs;
      }
      a->size = kSmallFileMax;
      fx.put_attr(*a);
      return;
    }

    case FsckIssueKind::kConflictingData: {
      auto a = fx.attr(is.ino);
      if (!a) return;
      const bool has_small = kv.contains(small_key(is.ino));
      const bool has_page0 = kv.contains(extent_page_key(is.ino, 0));
      const bool has_pages = has_page0 || !fx.pages(is.ino).empty();
      fx.rep.cost += kv::RemoteKv::op_cost(true, 0) * 2;
      if (a->type == FileType::kSymlink) {
        if (has_pages) fx.erase_object(is.ino);  // never legal on symlinks
        return;
      }
      if (has_small && has_pages) {
        // Both present: the big_file flag says which one readers use; the
        // other is shadowed garbage.
        if (a->big_file)
          fx.erase(small_key(is.ino));
        else
          fx.erase_object(is.ino);
      } else if (has_page0 && !a->big_file) {
        // Tail of an interrupted promotion: page 0 took over but the flag
        // flip never landed. Flip it (the small KV is already gone).
        a->big_file = 1;
        fx.put_attr(*a);
      } else if (has_pages && !a->big_file) {
        fx.erase_object(is.ino);  // pages without a commit point: garbage
      } else if (has_small && a->big_file && !has_page0) {
        // Promotion that never built its object: the small KV is still
        // the only data. Un-promote.
        a->big_file = 0;
        a->size = std::min<std::uint64_t>(a->size, kSmallFileMax);
        fx.put_attr(*a);
      }
      return;
    }

    case FsckIssueKind::kDirectoryHasData: {
      const auto a = fx.attr(is.ino);
      if (!a || a->type != FileType::kDirectory) return;
      fx.erase(small_key(is.ino));
      fx.erase_object(is.ino);
      return;
    }

    case FsckIssueKind::kBadLinkCount: {
      auto a = fx.attr(is.ino);
      if (!a || a->nlink == is.aux) return;
      a->nlink = static_cast<std::uint32_t>(is.aux);
      fx.put_attr(*a);
      return;
    }

    case FsckIssueKind::kBadSymlink: {
      auto a = fx.attr(is.ino);
      if (!a || a->type != FileType::kSymlink) return;
      fx.rep.cost += kv::RemoteKv::op_cost(true, 0);
      const auto v = kv.get(small_key(is.ino));
      if (v && !v->empty()) {
        if (a->size != v->size()) {
          a->size = v->size();
          fx.put_attr(*a);
        }
        return;
      }
      // Target text is gone — the symlink is unrecoverable. Reap it; its
      // dentries turn dangling and the next pass drops them.
      fx.erase(small_key(is.ino));
      fx.erase(attr_key(is.ino));
      return;
    }
  }
}

}  // namespace

FsckRepairReport fsck_repair(kv::KvStore& store, obs::Registry* registry) {
  FsckRepairReport rep;
  // Fixes cascade across at most a few passes (reattach → recount links →
  // verify); the budget only guards against a pathological keyspace.
  constexpr std::uint32_t kMaxPasses = 8;
  Fixer fx{store, rep};

  while (rep.passes < kMaxPasses) {
    ++rep.passes;
    const FsckReport r = fsck(store);
    rep.cost += kv::RemoteKv::op_cost(true, 0) * store.size();
    if (r.clean()) {
      rep.clean = true;
      break;
    }
    // Which inodes some dentry still names — reattachment's guard against
    // flattening orphan subtrees into /lost+found.
    std::set<Ino> referenced;
    store.scan_prefix("D", [&](std::string_view, const kv::Bytes& v) {
      referenced.insert(decode_ino(v));
      return true;
    });

    const std::uint64_t before = rep.repairs;
    for (const FsckIssue& is : r.issues) apply_fix(fx, is, referenced);
    if (rep.repairs == before) break;  // stuck: don't spin on the unfixable
  }

  if (registry != nullptr && rep.repairs > 0)
    registry->counter("fsck/repairs").add(rep.repairs);
  return rep;
}

}  // namespace dpc::kvfs
