#include "durability/durability.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "durability/snapshot.h"

namespace ecc::durability {

namespace {

const char* Env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

TimePoint Stamp(const DurabilityOptions& opts) {
  return opts.now ? opts.now() : TimePoint{};
}

}  // namespace

Status EnsureDir(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty durability dir");
  // mkdir -p: create each prefix, tolerating the ones that already exist.
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir " + prefix + ": " +
                              std::strerror(errno));
    }
  }
  return Status::Ok();
}

DurabilityOptions DurabilityOptionsFromEnv(DurabilityOptions base) {
  if (const char* v = Env("ECC_DURABILITY_DIR")) base.dir = v;
  if (const char* v = Env("ECC_DURABILITY_FSYNC")) {
    base.fsync = !(v[0] == '0' && v[1] == '\0');
  }
  if (const char* v = Env("ECC_DURABILITY_SNAPSHOT_EVERY")) {
    const long long n = std::atoll(v);
    if (n > 0) base.snapshot_every_appends = static_cast<std::uint64_t>(n);
  }
  return base;
}

// --- NodeDurability --------------------------------------------------------

NodeDurability::NodeDurability(std::string dir, const DurabilityOptions& opts)
    : dir_(std::move(dir)), opts_(opts), wal_(dir_ + "/wal.ecc") {}

NodeDurability::~NodeDurability() { Detach(); }

Status NodeDurability::Attach(core::CacheNode* node) {
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (node->record_count() != 0) {
    return Status::FailedPrecondition("attach to a non-empty shard");
  }
  if (Status s = EnsureDir(dir_); !s.ok()) return s;

  // 1. Snapshot, if any.  A damaged snapshot is never served: fall back to
  //    the WAL alone (whatever was compacted away is lost, which the log
  //    records loudly).
  auto blob = LoadSnapshotFile(dir_);
  if (blob.ok()) {
    if (Status s = node->RestoreShard(*blob); !s.ok()) return s;
    recovered_.snapshot_records = node->record_count();
  } else if (blob.status().code() == StatusCode::kInvalidArgument) {
    ECC_LOG_WARN("durability: %s: %s (recovering from WAL only)",
                 dir_.c_str(), blob.status().message().c_str());
  } else if (blob.status().code() != StatusCode::kNotFound) {
    return blob.status();
  }

  // 2. WAL replay on top.  AlreadyExists is benign: a crash between the
  //    snapshot rename and the WAL reset leaves records in both.
  auto replayed = WriteAheadLog::Replay(
      wal_.path(), [node](const WalRecord& r) -> Status {
        switch (r.op) {
          case WalRecord::Op::kPut: {
            const Status s = node->Insert(r.key, r.value);
            if (s.ok() || s.code() == StatusCode::kAlreadyExists) {
              return Status::Ok();
            }
            return s;
          }
          case WalRecord::Op::kErase:
            node->Erase(r.key);
            return Status::Ok();
          case WalRecord::Op::kEraseRange:
            node->EraseRange(r.key, r.hi);
            return Status::Ok();
        }
        return Status::InvalidArgument("unknown wal op");
      });
  if (!replayed.ok()) return replayed.status();
  recovered_.wal_records = replayed->records;
  recovered_.wal_bytes_truncated = replayed->bytes_truncated;
  recovered_.torn = replayed->torn;
  appends_since_snapshot_ = replayed->records;

  // 3. Start mirroring.
  if (Status s = wal_.Open(); !s.ok()) return s;
  node_ = node;
  node_->BindMutationListener(this);
  return Status::Ok();
}

void NodeDurability::Detach() {
  const std::lock_guard<std::mutex> g(mutex_);
  if (node_ != nullptr) {
    node_->BindMutationListener(nullptr);
    node_ = nullptr;
  }
  if (wal_.is_open()) {
    if (opts_.fsync) (void)wal_.Sync();
    wal_.Close();
  }
}

void NodeDurability::AppendLocked(WalRecord::Op op, core::Key key,
                                  core::Key hi, std::string_view value) {
  if (!wal_.is_open()) return;
  const std::uint64_t before = wal_.bytes_appended();
  if (Status s = wal_.Append(op, key, hi, value); !s.ok()) {
    // A full disk must not take the cache down; it only loses durability.
    ECC_LOG_ERROR("durability: %s: %s", dir_.c_str(), s.message().c_str());
    return;
  }
  ++appends_since_snapshot_;
  ++batch_records_;
  batch_bytes_ += wal_.bytes_appended() - before;
  if (appends_since_snapshot_ >= opts_.snapshot_every_appends) {
    // Compact inline: the mutation callback runs on the thread that owns
    // the shard, so serializing the tree here is race-free even when
    // Tick() is driven from a different thread (the TCP fleet runner's
    // serve loop).
    if (Status s = CompactLocked(); !s.ok()) {
      ECC_LOG_ERROR("durability: compact %s: %s", dir_.c_str(),
                    s.message().c_str());
    }
  }
}

void NodeDurability::OnInsert(core::Key k, std::string_view v) {
  const std::lock_guard<std::mutex> g(mutex_);
  AppendLocked(WalRecord::Op::kPut, k, 0, v);
}

void NodeDurability::OnErase(core::Key k) {
  const std::lock_guard<std::mutex> g(mutex_);
  AppendLocked(WalRecord::Op::kErase, k, 0, {});
}

void NodeDurability::OnEraseRange(core::Key lo, core::Key hi) {
  const std::lock_guard<std::mutex> g(mutex_);
  AppendLocked(WalRecord::Op::kEraseRange, lo, hi, {});
}

void NodeDurability::OnRestore() {
  const std::lock_guard<std::mutex> g(mutex_);
  need_compact_ = true;
}

void NodeDurability::Tick() {
  const std::lock_guard<std::mutex> g(mutex_);
  if (batch_records_ > 0) {
    if (opts_.fsync) {
      if (Status s = wal_.Sync(); !s.ok()) {
        ECC_LOG_ERROR("durability: %s: %s", dir_.c_str(),
                      s.message().c_str());
      }
    }
    obs::Emit(opts_.obs.trace,
              obs::WalAppendEvent(Stamp(opts_),
                                  node_ != nullptr ? node_->id() : 0,
                                  batch_records_, batch_bytes_));
    batch_records_ = 0;
    batch_bytes_ = 0;
  }
  // Post-restore compaction (the WAL no longer matches the shard) only
  // happens here, and restores only occur in single-threaded maintenance
  // deployments — threshold compaction runs inline on the mutating thread.
  if (need_compact_) {
    if (Status s = CompactLocked(); !s.ok()) {
      ECC_LOG_ERROR("durability: compact %s: %s", dir_.c_str(),
                    s.message().c_str());
    }
  }
}

Status NodeDurability::Compact() {
  const std::lock_guard<std::mutex> g(mutex_);
  return CompactLocked();
}

Status NodeDurability::CompactLocked() {
  if (node_ == nullptr) return Status::FailedPrecondition("not attached");
  const std::string blob = node_->SerializeShard();
  if (Status s = WriteSnapshotFile(dir_, blob); !s.ok()) return s;
  if (Status s = wal_.Reset(); !s.ok()) return s;
  appends_since_snapshot_ = 0;
  batch_records_ = 0;
  batch_bytes_ = 0;
  need_compact_ = false;
  ++snapshots_;
  obs::Emit(opts_.obs.trace,
            obs::SnapshotEvent(Stamp(opts_), node_->id(),
                               node_->record_count(), blob.size()));
  return Status::Ok();
}

std::uint64_t NodeDurability::appends() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return wal_.appended();
}

std::uint64_t NodeDurability::snapshots() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return snapshots_;
}

// --- FleetDurability -------------------------------------------------------

/// Forwarding listener handed to ElasticCache.  The fleet keeps the real
/// NodeDurability; the handle's destruction (node deallocation) retires it.
class FleetDurability::Handle final : public core::ShardMutationListener {
 public:
  Handle(FleetDurability* fleet, core::NodeId id, NodeDurability* nd)
      : fleet_(fleet), id_(id), nd_(nd) {}
  ~Handle() override { fleet_->Retire(id_); }

  void OnInsert(core::Key k, std::string_view v) override {
    nd_->OnInsert(k, v);
  }
  void OnErase(core::Key k) override { nd_->OnErase(k); }
  void OnEraseRange(core::Key lo, core::Key hi) override {
    nd_->OnEraseRange(lo, hi);
  }
  void OnRestore() override { nd_->OnRestore(); }

 private:
  FleetDurability* fleet_;
  core::NodeId id_;
  NodeDurability* nd_;
};

FleetDurability::FleetDurability(DurabilityOptions opts)
    : opts_(std::move(opts)) {}

FleetDurability::~FleetDurability() = default;

std::string FleetDurability::NodeDir(core::NodeId id) const {
  return opts_.dir + "/node_" + std::to_string(id);
}

std::function<std::unique_ptr<core::ShardMutationListener>(core::NodeId,
                                                           core::CacheNode*)>
FleetDurability::Factory() {
  return [this](core::NodeId id, core::CacheNode* node)
             -> std::unique_ptr<core::ShardMutationListener> {
    if (!enabled()) return nullptr;
    auto nd = std::make_unique<NodeDurability>(NodeDir(id), opts_);
    if (Status s = nd->Attach(node); !s.ok()) {
      ECC_LOG_ERROR("durability: node %llu: %s",
                    static_cast<unsigned long long>(id),
                    s.message().c_str());
      return nullptr;
    }
    // Attach() bound `nd` as the node's listener; rebind to the handle so
    // the fleet hears about the node's teardown.
    NodeDurability* raw = nd.get();
    auto handle = std::make_unique<Handle>(this, id, raw);
    node->BindMutationListener(handle.get());
    const std::lock_guard<std::mutex> g(mutex_);
    active_[id] = std::move(nd);
    ++attached_;
    return handle;
  };
}

void FleetDurability::Tick() {
  std::vector<NodeDurability*> live;
  {
    const std::lock_guard<std::mutex> g(mutex_);
    live.reserve(active_.size());
    for (auto& [id, nd] : active_) live.push_back(nd.get());
  }
  for (NodeDurability* nd : live) nd->Tick();
}

void FleetDurability::Retire(core::NodeId id) {
  const std::lock_guard<std::mutex> g(mutex_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second->Detach();  // final fsync; files stay for salvage
  retired_dirs_.push_back(it->second->dir());
  active_.erase(it);
}

const std::unordered_map<core::Key, std::string>* FleetDurability::LoadRetired(
    const std::string& dir) {
  if (auto it = salvage_cache_.find(dir); it != salvage_cache_.end()) {
    return &it->second;
  }
  // Rebuild the retired shard off to the side; capacity is irrelevant here,
  // so give the scratch node effectively unbounded room.
  core::CacheNode scratch(/*id=*/0, /*instance=*/0, /*capacity_bytes=*/~0ull);
  NodeDurability nd(dir, opts_);
  if (Status s = nd.Attach(&scratch); !s.ok()) {
    ECC_LOG_WARN("durability: salvage %s: %s", dir.c_str(),
                 s.message().c_str());
    return &salvage_cache_[dir];  // cache the empty map; don't retry per key
  }
  nd.Detach();
  auto& map = salvage_cache_[dir];
  for (auto& [k, v] : scratch.SweepRange(0, ~0ull)) map[k] = std::move(v);
  return &map;
}

StatusOr<std::string> FleetDurability::SalvageValue(core::Key k) {
  const std::lock_guard<std::mutex> g(mutex_);
  // Newest retirement wins: a node retired later logged later writes.
  for (auto it = retired_dirs_.rbegin(); it != retired_dirs_.rend(); ++it) {
    const auto* map = LoadRetired(*it);
    if (auto found = map->find(k); found != map->end()) return found->second;
  }
  return Status::NotFound("no retired copy of key " + std::to_string(k));
}

std::uint64_t FleetDurability::attached() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return attached_;
}

std::uint64_t FleetDurability::retired() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return retired_dirs_.size();
}

}  // namespace ecc::durability
