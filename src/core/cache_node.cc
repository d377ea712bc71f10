#include "core/cache_node.h"

#include <cassert>

#include "common/digest.h"
#include "net/message.h"
#include "net/wire.h"

namespace ecc::core {

CacheNode::CacheNode(NodeId id, cloudsim::InstanceId instance,
                     std::uint64_t capacity_bytes)
    : id_(id), instance_(instance), capacity_bytes_(capacity_bytes) {
  InstallHandlers();
}

Status CacheNode::Insert(Key k, std::string v) {
  // Duplicate check precedes the capacity check: re-inserting a cached key
  // is AlreadyExists even on a full node (PUT stays idempotent).
  if (tree_.Contains(k)) {
    return Status::AlreadyExists("key " + std::to_string(k));
  }
  const std::size_t bytes = RecordSize(k, v);
  if (!CanFit(bytes)) {
    return Status::CapacityExceeded("node " + std::to_string(id_));
  }
  const bool inserted = tree_.Insert(k, std::move(v));
  assert(inserted);
  (void)inserted;
  used_bytes_ += bytes;
  if (mutations_ != nullptr) mutations_->OnInsert(k, *tree_.Find(k));
  return Status::Ok();
}

bool CacheNode::Erase(Key k) {
  const std::string* v = tree_.Find(k);
  if (v == nullptr) return false;
  const std::size_t bytes = RecordSize(k, *v);
  const bool erased = tree_.Erase(k);
  assert(erased);
  used_bytes_ -= bytes;
  if (mutations_ != nullptr) mutations_->OnErase(k);
  return erased;
}

RangeStats CacheNode::StatsInRange(Key lo, Key hi) const {
  RangeStats stats;
  tree_.ForEachInRange(lo, hi, [&stats](Key k, const std::string& v) {
    ++stats.records;
    stats.bytes += RecordSize(k, v);
  });
  return stats;
}

Key CacheNode::KeyAtRankInRange(Key lo, Key hi, std::size_t rank) const {
  Key found = 0;
  bool ok = false;
  std::size_t i = 0;
  tree_.ForEachInRange(lo, hi, [&](Key k, const std::string&) {
    if (i == rank) {
      found = k;
      ok = true;
    }
    ++i;
  });
  assert(ok && "rank out of range");
  (void)ok;
  return found;
}

std::size_t CacheNode::EraseRange(Key lo, Key hi) {
  // Recompute byte usage for the doomed range before deleting.
  const RangeStats stats = StatsInRange(lo, hi);
  const std::size_t removed = tree_.EraseRange(lo, hi);
  assert(removed == stats.records);
  used_bytes_ -= stats.bytes;
  if (removed > 0 && mutations_ != nullptr) mutations_->OnEraseRange(lo, hi);
  return removed;
}

RangeDigest CacheNode::DigestInRange(Key lo, Key hi) const {
  RangeDigest out;
  tree_.ForEachInRange(lo, hi, [&out](Key k, const std::string& v) {
    out.digest += common::DigestTerm(k, v);
    ++out.records;
  });
  return out;
}

namespace {
constexpr std::uint32_t kShardMagic = 0x45534844;  // "ESHD"
}  // namespace

std::string CacheNode::SerializeShard() const {
  net::WireWriter w;
  w.PutU32(kShardMagic);
  w.PutVarint(tree_.size());
  for (auto it = tree_.Begin(); it.valid(); it.Next()) {
    w.PutU64(it.key());
    w.PutBytes(it.value());
  }
  return w.TakeBuffer();
}

Status CacheNode::RestoreShard(std::string_view bytes) {
  net::WireReader r(bytes);
  std::uint32_t magic = 0;
  if (Status s = r.GetU32(magic); !s.ok()) return s;
  if (magic != kShardMagic) {
    return Status::InvalidArgument("not a shard snapshot");
  }
  std::uint64_t count = 0;
  if (Status s = r.GetVarint(count); !s.ok()) return s;
  if (count > r.remaining() / 9) {  // >= 9 wire bytes per record
    return Status::InvalidArgument("record count exceeds payload");
  }
  std::vector<std::pair<Key, std::string>> records;
  records.reserve(count);
  std::uint64_t bytes_needed = 0;
  Key prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Key k = 0;
    std::string v;
    if (Status s = r.GetU64(k); !s.ok()) return s;
    if (Status s = r.GetBytes(v); !s.ok()) return s;
    if (i > 0 && k <= prev) {
      return Status::InvalidArgument("snapshot keys not strictly sorted");
    }
    prev = k;
    bytes_needed += RecordSize(k, v);
    records.emplace_back(k, std::move(v));
  }
  if (!r.exhausted()) return Status::InvalidArgument("trailing bytes");
  if (bytes_needed > capacity_bytes_) {
    return Status::CapacityExceeded("snapshot larger than node capacity");
  }
  tree_.BulkLoad(std::move(records));
  used_bytes_ = bytes_needed;
  if (mutations_ != nullptr) mutations_->OnRestore();
  return Status::Ok();
}

void CacheNode::InstallHandlers() {
  rpc_.Handle(net::MsgType::kGetRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::GetRequest::Decode(m);
                if (!req.ok()) return req.status();
                return net::GetResponse::EncodeFrom(Find(req->key));
              });
  rpc_.Handle(net::MsgType::kPutRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::PutRequest::Decode(m);
                if (!req.ok()) return req.status();
                const Status s = Insert(req->key, std::move(req->value));
                net::PutResponse resp;
                resp.accepted = s.ok();
                resp.used_bytes = used_bytes_;
                // Duplicate keys count as accepted (idempotent PUT).
                if (s.code() == StatusCode::kAlreadyExists) {
                  resp.accepted = true;
                }
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kMigrateRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::MigrateRequest::Decode(m);
                if (!req.ok()) return req.status();
                net::MigrateResponse resp;
                for (auto& [key, value] : req->records) {
                  if (Insert(key, std::move(value)).ok()) ++resp.accepted;
                }
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kEraseRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::EraseRequest::Decode(m);
                if (!req.ok()) return req.status();
                net::EraseResponse resp;
                for (Key k : req->keys) {
                  if (Erase(k)) ++resp.erased;
                }
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kStatsRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::StatsRequest::Decode(m);
                if (!req.ok()) return req.status();
                net::StatsResponse resp;
                resp.records = record_count();
                resp.used_bytes = used_bytes_;
                resp.capacity_bytes = capacity_bytes_;
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kRangeStatsRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::RangeStatsRequest::Decode(m);
                if (!req.ok()) return req.status();
                const RangeStats stats = StatsInRange(req->lo, req->hi);
                net::RangeStatsResponse resp;
                resp.records = stats.records;
                resp.bytes = stats.bytes;
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kEraseRangeRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::EraseRangeRequest::Decode(m);
                if (!req.ok()) return req.status();
                net::EraseRangeResponse resp;
                resp.erased = EraseRange(req->lo, req->hi);
                return resp.Encode();
              });
  rpc_.Handle(net::MsgType::kDigestRequest,
              [this](const net::Message& m) -> StatusOr<net::Message> {
                rpc_ops_.Inc();
                auto req = net::DigestRequest::Decode(m);
                if (!req.ok()) return req.status();
                const RangeDigest d = DigestInRange(req->lo, req->hi);
                net::DigestResponse resp;
                resp.digest = d.digest;
                resp.records = d.records;
                return resp.Encode();
              });
}

}  // namespace ecc::core
