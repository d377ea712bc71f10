// Multi-process fleet runner: the cache as real processes over real TCP.
//
// The parent forks N node processes, each serving a CacheNode's RpcServer
// dispatch behind an epoll TcpServer on an ephemeral port (reported back
// over a pipe).  The parent then acts as coordinator: it opens one pooled
// TcpChannel per node and drives a put-then-get workload through
// CallWithRetry — the exact RPC layer the simulated cache uses — with
// rendezvous hashing for key placement and a probe-round failure detector
// (STATS round trips, N consecutive missed rounds = confirmed dead, the
// same semantics as recovery::FailureDetector).
//
// Crash tolerance: with --kill, one node process is SIGKILLed mid-serve.
// Calls to it fail over the retry budget as Unavailable (never SIGPIPE —
// that is the hardened write path), the detector confirms the death and
// removes the endpoint, and the workload completes against the survivors,
// counting the dead node's keys as honest misses.  This is the CI smoke:
//
//   fleet_runner --nodes 3 --ops 3000 --kill   # exit 0 = survived
//
// Chaos mode: with --chaos=<scenario>, every node sits behind a seeded
// ChaosProxy (net/chaos_proxy.h) and the workload switches to W=2
// replicated writes — a put is *acknowledged* only when both rendezvous
// owners accepted it — with primary->mirror failover reads.  An
// InvariantChecker (recovery/invariant_checker.h) audits every acked
// write and every served value; after the faults heal, a scrub pass
// repairs one-sided copies and the run asserts digest convergence plus
// zero lost acknowledged writes.  Scenarios:
//
//   partition-one              black-hole one node, heal, reconverge
//   flapping-link              partition toggles on and off repeatedly
//   slow-node                  delay+jitter on one node's wire
//   corrupt-wire               random byte flips on every link
//   partition-during-migration two-phase range migration, destination
//                              partitioned mid-copy: rollback, re-run
//
// Restart scenarios (durable WAL + warm rejoin; no proxies, so the parent
// stays single-threaded and can fork again mid-run).  Every node persists
// its shard under --durability-dir (or ECC_DURABILITY_DIR; auto-created
// when unset):
//
//   kill-restart-warm          SIGKILL one node mid-traffic, restart it
//                              from its WAL+snapshot, warm-rejoin via
//                              32-bucket digest anti-entropy; asserts the
//                              delta sync moved < 25% of the node's owed
//                              keyspace and zero acked writes were lost
//   double-crash-durable       SIGKILL *both* owners of a key arc at once
//                              (every in-memory copy gone), restart both;
//                              asserts zero unrecoverable keys — the acked
//                              writes come back from the WALs
//
// Every fault is drawn from ECC_CHAOS_SEED (or --seed); a failing run
// prints the seed so the exact fault schedule replays.
//
// Clean shutdown: SIGTERM to every child; each stops its TcpServer and
// exits 0; the parent reaps and verifies.
#include <ftw.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cache_node.h"
#include "durability/durability.h"
#include "net/chaos_proxy.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "obs/trace.h"
#include "recovery/invariant_checker.h"

namespace {

using ecc::Duration;
namespace durability = ecc::durability;
namespace net = ecc::net;
namespace obs = ecc::obs;
namespace recovery = ecc::recovery;

volatile sig_atomic_t g_node_stop = 0;
void OnTerm(int) { g_node_stop = 1; }

struct Options {
  std::size_t nodes = 3;
  std::size_t ops = 3000;
  std::size_t value_bytes = 256;
  std::uint64_t capacity_bytes = 64ull << 20;
  bool kill_one = false;
  std::size_t io_threads = 1;
  std::size_t probe_every_ops = 200;   // detector round cadence
  std::size_t suspect_threshold = 3;   // consecutive missed rounds
  std::string chaos;                   // empty => legacy (no-proxy) mode
  std::uint64_t chaos_seed = 0;        // resolved in main()
  /// Node shards persist under <dir>/node_<id> (WAL + snapshots).  Empty =
  /// durability off; restart scenarios auto-create a temp dir when unset.
  std::string durability_dir;
  bool owns_durability_dir = false;    // temp dir: removed on success
};

/// Child: serve one CacheNode over TCP until SIGTERM.  With a durability
/// dir the shard is recovered from its snapshot + WAL *before* the port is
/// reported (a restart is invisible to the coordinator except for the new
/// port), every mutation is WAL-mirrored, and the serve loop doubles as
/// the slice-boundary fsync tick.
[[noreturn]] void RunNode(std::size_t id, const Options& opts, int port_pipe) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the coordinator
  struct sigaction sa{};
  sa.sa_handler = OnTerm;
  ::sigaction(SIGTERM, &sa, nullptr);

  ecc::core::CacheNode node(id, /*instance=*/0, opts.capacity_bytes);
  obs::TraceLog trace{1 << 12};
  std::unique_ptr<durability::NodeDurability> durable;
  if (!opts.durability_dir.empty()) {
    durability::DurabilityOptions dopts;
    dopts.obs.trace = &trace;
    const auto t0 = std::chrono::steady_clock::now();
    dopts.now = [t0] {
      return ecc::TimePoint::FromMicros(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };
    durable = std::make_unique<durability::NodeDurability>(
        opts.durability_dir + "/node_" + std::to_string(id), dopts);
    if (auto s = durable->Attach(&node); !s.ok()) {
      std::fprintf(stderr, "node %zu: durability attach: %s\n", id,
                   s.ToString().c_str());
      ::_exit(3);
    }
    const auto& rec = durable->recover_stats();
    if (rec.snapshot_records + rec.wal_records > 0 || rec.torn) {
      std::fprintf(stderr,
                   "node %zu: recovered %llu snapshot + %llu WAL records%s\n",
                   id, static_cast<unsigned long long>(rec.snapshot_records),
                   static_cast<unsigned long long>(rec.wal_records),
                   rec.torn ? " (torn tail truncated)" : "");
    }
  }
  net::TcpServerOptions sopts;
  sopts.io_threads = opts.io_threads;
  net::TcpServer server(&node.rpc(), sopts);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "node %zu: %s\n", id, s.ToString().c_str());
    ::_exit(2);
  }
  const std::string report = std::to_string(server.port()) + "\n";
  if (::write(port_pipe, report.data(), report.size()) !=
      static_cast<ssize_t>(report.size())) {
    ::_exit(2);
  }
  ::close(port_pipe);
  while (g_node_stop == 0) {
    ::usleep(20 * 1000);
    if (durable != nullptr) durable->Tick();  // fsync the WAL append batch
  }
  server.Stop();
  if (durable != nullptr) {
    durable->Detach();  // final fsync; files stay for the next incarnation
    if (const char* dump = std::getenv("ECC_TRACE_DUMP")) {
      // Per-child file: concurrent children must not interleave writes.
      (void)trace.AppendJsonLinesToFile(std::string(dump) + ".node" +
                                        std::to_string(id));
    }
  }
  ::_exit(0);
}

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Endpoint {
  std::size_t node_id = 0;
  pid_t pid = -1;
  bool live = true;
  std::size_t missed_rounds = 0;
  // proxy before channel: the channel (which holds connections through the
  // proxy) must be destroyed first.
  std::unique_ptr<net::ChaosProxy> proxy;
  std::unique_ptr<net::TcpChannel> channel;
};

/// Rendezvous hashing: stable placement that only remaps a dead node's
/// keys onto survivors.
Endpoint* OwnerOf(std::vector<Endpoint>& fleet, std::uint64_t key) {
  Endpoint* best = nullptr;
  std::uint64_t best_w = 0;
  for (auto& ep : fleet) {
    if (!ep.live) continue;
    const std::uint64_t w = Mix(key * 0x100000001b3ull + ep.node_id);
    if (best == nullptr || w > best_w) {
      best = &ep;
      best_w = w;
    }
  }
  return best;
}

net::RetryPolicy WallClockPolicy() {
  net::RetryPolicy p;
  p.max_attempts = 3;
  p.attempt_timeout = Duration::Millis(20);  // real sleeps: keep them short
  p.initial_backoff = Duration::Millis(2);
  p.max_backoff = Duration::Millis(20);
  return p;
}

/// One detector round: a single STATS probe per live endpoint.  A node
/// missing `suspect_threshold` consecutive rounds is confirmed dead and
/// removed from placement.  Returns the number of confirmations.
std::size_t ProbeRound(std::vector<Endpoint>& fleet, const Options& opts) {
  std::size_t confirmed = 0;
  for (auto& ep : fleet) {
    if (!ep.live) continue;
    auto resp = ep.channel->Call(net::StatsRequest{}.Encode());
    if (resp.ok()) {
      ep.missed_rounds = 0;
      continue;
    }
    if (++ep.missed_rounds >= opts.suspect_threshold) {
      ep.live = false;
      ++confirmed;
      std::printf("coordinator: node %zu confirmed dead after %zu missed "
                  "rounds\n",
                  ep.node_id, ep.missed_rounds);
    }
  }
  return confirmed;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FLEET SMOKE FAILED: %s\n", what);
  return 1;
}

// ------------------------------------------------------------------------
// Fleet launch / shutdown, shared between the legacy smoke and chaos mode.
// ------------------------------------------------------------------------

/// Restart scenarios fork mid-run, so the parent must stay single-threaded:
/// they run without chaos proxies (the fault is the SIGKILL itself).
bool IsRestartScenario(const std::string& s) {
  return s == "kill-restart-warm" || s == "double-crash-durable";
}

bool IsChaosScenario(const std::string& s) {
  return s == "partition-one" || s == "flapping-link" || s == "slow-node" ||
         s == "corrupt-wire" || s == "partition-during-migration" ||
         IsRestartScenario(s);
}

bool UsesProxies(const Options& opts) {
  return !opts.chaos.empty() && !IsRestartScenario(opts.chaos);
}

int RemoveTreeCb(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

/// rm -rf for the auto-created durability dir (success path only).
void RemoveTree(const std::string& dir) {
  (void)::nftw(dir.c_str(), RemoveTreeCb, 16, FTW_DEPTH | FTW_PHYS);
}

/// Per-node fault plan.  Each node decorrelates from the run seed so the
/// schedule is a pure function of (seed, node, traffic).
net::ChaosPlan PlanFor(const Options& opts, std::size_t node,
                       std::size_t victim) {
  net::ChaosPlan plan;
  plan.seed = Mix(opts.chaos_seed ^ (node + 1));
  if (opts.chaos == "corrupt-wire") plan.corrupt_byte_p = 0.0003;
  if (opts.chaos == "slow-node" && node == victim) {
    plan.delay = Duration::Millis(15);
    plan.jitter = Duration::Millis(40);
  }
  return plan;
}

/// Fork one node process; hands back its pid and the read end of the port
/// pipe.  Returns non-zero on fork/pipe failure.
int SpawnNode(std::size_t id, const Options& opts, pid_t* pid, int* port_fd) {
  int fds[2];
  if (::pipe(fds) != 0) return Fail("pipe()");
  const pid_t p = ::fork();
  if (p < 0) return Fail("fork()");
  if (p == 0) {
    ::close(fds[0]);
    RunNode(id, opts, fds[1]);  // never returns
  }
  ::close(fds[1]);
  *pid = p;
  *port_fd = fds[0];
  return 0;
}

/// Read the child's "port\n" report with a poll() timeout.  A child that
/// crashes on startup closes the pipe (EOF) and a wedged child trips the
/// timeout — either way the parent reaps it with waitpid (no zombie) and
/// surfaces the exit status instead of hanging on a blocking read.
/// Returns the port, or -1 on failure.
int ReadPortReport(int fd, pid_t pid, std::size_t id) {
  char buf[16] = {0};
  std::size_t off = 0;
  for (;;) {
    struct pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, /*timeout_ms=*/10000);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) break;  // timeout or poll failure
    const ssize_t n = ::read(fd, buf + off, sizeof(buf) - 1 - off);
    if (n <= 0) break;  // EOF: the child died before reporting
    off += static_cast<std::size_t>(n);
    if (std::memchr(buf, '\n', off) != nullptr) break;
    if (off >= sizeof(buf) - 1) break;
  }
  ::close(fd);
  const int port = std::atoi(buf);
  if (port > 0) return port;
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) == 0) {
    ::kill(pid, SIGKILL);  // wedged: nothing to salvage
    (void)::waitpid(pid, &status, 0);
    std::fprintf(stderr, "node %zu: wedged before reporting a port\n", id);
  } else if (WIFEXITED(status)) {
    std::fprintf(stderr, "node %zu: exited %d before reporting a port\n", id,
                 WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    std::fprintf(stderr, "node %zu: killed by signal %d before reporting a "
                 "port\n",
                 id, WTERMSIG(status));
  }
  return -1;
}

/// One pooled coordinator channel to a node (or its proxy).
std::unique_ptr<net::TcpChannel> MakeChannel(const Options& opts,
                                             std::uint16_t port,
                                             std::size_t node_id) {
  net::TcpChannelOptions copts;
  copts.port = port;
  // Chaos runs burn the io timeout on every black-holed call, so it has
  // to be short; slow-node needs headroom above the shaped RTT.
  copts.io_timeout = opts.chaos.empty()         ? Duration::Millis(250)
                     : opts.chaos == "slow-node" ? Duration::Millis(100)
                                                 : Duration::Millis(40);
  auto ch = std::make_unique<net::TcpChannel>(copts);
  ch->BindInterceptor(nullptr, node_id);  // label the endpoint
  return ch;
}

/// Fork the node processes (before any thread exists), read their ports,
/// then stand up per-node chaos proxies (chaos mode) and channels.
int LaunchFleet(const Options& opts, std::vector<Endpoint>& fleet) {
  std::vector<int> port_pipes;
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    pid_t pid = -1;
    int port_fd = -1;
    if (const int rc = SpawnNode(i, opts, &pid, &port_fd); rc != 0) return rc;
    fleet.emplace_back();
    fleet.back().node_id = i;
    fleet.back().pid = pid;
    port_pipes.push_back(port_fd);
  }
  const std::size_t victim = opts.nodes - 1;
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    const int port = ReadPortReport(port_pipes[i], fleet[i].pid, i);
    if (port <= 0) return Fail("node did not report a port");
    std::uint16_t connect_port = static_cast<std::uint16_t>(port);
    if (UsesProxies(opts)) {
      fleet[i].proxy = std::make_unique<net::ChaosProxy>(
          "127.0.0.1", connect_port, PlanFor(opts, i, victim));
      if (auto s = fleet[i].proxy->Start(); !s.ok()) {
        std::fprintf(stderr, "proxy %zu: %s\n", i, s.ToString().c_str());
        return Fail("chaos proxy failed to start");
      }
      connect_port = fleet[i].proxy->port();
    }
    fleet[i].channel = MakeChannel(opts, connect_port, i);
    std::printf("coordinator: node %zu pid %d port %d%s\n", i,
                static_cast<int>(fleet[i].pid), port,
                fleet[i].proxy ? " (proxied)" : "");
  }
  return 0;
}

/// SIGTERM + reap.  `skip` (SIZE_MAX = none) is a node that was SIGKILLed
/// and should be reaped as such.
std::size_t ShutdownFleet(std::vector<Endpoint>& fleet, std::size_t skip) {
  std::size_t clean_exits = 0;
  for (auto& ep : fleet) {
    if (ep.node_id == skip) continue;
    ::kill(ep.pid, SIGTERM);
  }
  for (auto& ep : fleet) {
    int status = 0;
    if (::waitpid(ep.pid, &status, 0) != ep.pid) continue;
    if (ep.node_id == skip) {
      if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ++clean_exits;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      ++clean_exits;
    }
  }
  return clean_exits;
}

// ------------------------------------------------------------------------
// Chaos mode: W=2 replication + failover reads audited by the
// InvariantChecker, against a fleet of chaos-proxied nodes.
// ------------------------------------------------------------------------

struct ChaosCtx {
  const Options* opts = nullptr;
  std::vector<Endpoint>* fleet = nullptr;
  recovery::InvariantChecker checker;
  obs::TraceLog trace{1 << 15};
  net::RetryPolicy retry;
  net::RetryStats rpc_stats;
  /// Committed migration placements: key -> {primary id, mirror id}.
  /// Checked before rendezvous so a migrated range reads from its new home.
  std::unordered_map<std::uint64_t, std::array<std::size_t, 2>> placement;
  std::vector<std::uint64_t> issued_keys;
  std::size_t acked = 0;
  std::size_t put_failures = 0;
  std::size_t degraded_serves = 0;   // reads answered by the mirror
  std::size_t reads_unavailable = 0;
  std::size_t revivals = 0;
  std::size_t dead_confirmed = 0;
  std::size_t scrub_repairs = 0;
  /// Wall-clock trace stamps (micros since run start); shared by the
  /// checker binding and the coordinator's own events.
  std::function<ecc::TimePoint()> now = [] { return ecc::TimePoint{}; };
};

int FailChaos(const ChaosCtx& cx, const char* what) {
  std::fprintf(stderr, "CHAOS FLEET FAILED [%s]: %s\n",
               cx.opts->chaos.c_str(), what);
  std::fprintf(stderr,
               "replay: ECC_CHAOS_SEED=0x%llx fleet_runner --chaos=%s "
               "--nodes %zu --ops %zu\n",
               static_cast<unsigned long long>(cx.opts->chaos_seed),
               cx.opts->chaos.c_str(), cx.opts->nodes, cx.opts->ops);
  return 1;
}

/// Deterministic value for a key: replays, repairs, and ghost writes all
/// reproduce the same bytes, so a duplicate landing late is idempotent.
std::string ValueFor(std::uint64_t key, std::size_t bytes) {
  std::string v = "k" + std::to_string(key) + ":";
  const char fill = static_cast<char>('a' + (Mix(key) % 26));
  if (v.size() < bytes) v.append(bytes - v.size(), fill);
  return v;
}

std::size_t LiveCount(const std::vector<Endpoint>& fleet) {
  std::size_t n = 0;
  for (const auto& ep : fleet) n += ep.live ? 1 : 0;
  return n;
}

bool AllLive(const std::vector<Endpoint>& fleet) {
  return LiveCount(fleet) == fleet.size();
}

/// Top-2 live endpoints by rendezvous weight (primary first), unless a
/// committed migration override pins the key elsewhere.
std::vector<Endpoint*> Owners(ChaosCtx& cx, std::uint64_t key) {
  std::vector<Endpoint*> out;
  if (auto it = cx.placement.find(key); it != cx.placement.end()) {
    for (std::size_t id : it->second) {
      Endpoint& ep = (*cx.fleet)[id];
      if (ep.live) out.push_back(&ep);
    }
    return out;
  }
  Endpoint* a = nullptr;
  Endpoint* b = nullptr;
  std::uint64_t wa = 0, wb = 0;
  for (auto& ep : *cx.fleet) {
    if (!ep.live) continue;
    const std::uint64_t w = Mix(key * 0x100000001b3ull + ep.node_id);
    if (a == nullptr || w > wa) {
      b = a;
      wb = wa;
      a = &ep;
      wa = w;
    } else if (b == nullptr || w > wb) {
      b = &ep;
      wb = w;
    }
  }
  if (a != nullptr) out.push_back(a);
  if (b != nullptr) out.push_back(b);
  return out;
}

/// W=2 write: issue first, send to both owners, acknowledge only if every
/// owner accepted.  A timed-out replica leaves the write issued-not-acked —
/// if the bytes later land (ghost flush on heal), reading them is legal.
bool ReplicatedPut(ChaosCtx& cx, std::uint64_t key) {
  const std::string value = ValueFor(key, cx.opts->value_bytes);
  auto owners = Owners(cx, key);
  if (owners.empty()) {
    ++cx.put_failures;
    return false;
  }
  const auto seq = cx.checker.RecordIssued(key, value);
  cx.issued_keys.push_back(key);
  bool all_ok = true;
  for (auto* ep : owners) {
    auto resp = net::CallWithRetry(
        *ep->channel, net::PutRequest{key, value}.Encode(), cx.retry,
        &cx.rpc_stats);
    if (!resp.ok()) {
      all_ok = false;
      continue;
    }
    auto pr = net::PutResponse::Decode(*resp);
    if (!pr.ok() || !pr->accepted) all_ok = false;
  }
  const std::size_t want = std::min<std::size_t>(2, LiveCount(*cx.fleet));
  if (all_ok && owners.size() >= want) {
    cx.checker.RecordAcked(key, seq);
    ++cx.acked;
    return true;
  }
  ++cx.put_failures;
  return false;
}

enum class GetOutcome { kServed, kMiss, kUnavailable };

/// Primary read with mirror failover.  Only a *definitive* all-owners miss
/// is reported to the checker as absence; an unreachable owner means the
/// value may still exist, so the read is counted unavailable instead.
GetOutcome FailoverGet(ChaosCtx& cx, std::uint64_t key, bool observe,
                       std::string* out = nullptr) {
  auto owners = Owners(cx, key);
  bool errored = owners.empty();
  for (std::size_t i = 0; i < owners.size(); ++i) {
    auto resp = net::CallWithRetry(*owners[i]->channel,
                                   net::GetRequest{key}.Encode(), cx.retry,
                                   &cx.rpc_stats);
    if (!resp.ok()) {
      errored = true;
      continue;
    }
    auto gr = net::GetResponse::Decode(*resp);
    if (!gr.ok()) {
      errored = true;
      continue;
    }
    if (gr->found) {
      if (i > 0) ++cx.degraded_serves;
      if (observe) (void)cx.checker.Observe(key, true, gr->value);
      if (out != nullptr) *out = gr->value;
      return GetOutcome::kServed;
    }
  }
  if (errored) {
    ++cx.reads_unavailable;
    return GetOutcome::kUnavailable;
  }
  if (observe) (void)cx.checker.Observe(key, false, "");
  return GetOutcome::kMiss;
}

/// Detector round that also probes confirmed-dead endpoints: a partition
/// is not a crash, so a node answering again after heal is revived and
/// rejoins placement.
std::size_t ChaosProbeRound(ChaosCtx& cx) {
  std::size_t confirmed = 0;
  for (auto& ep : *cx.fleet) {
    auto resp = ep.channel->Call(net::StatsRequest{}.Encode());
    if (resp.ok()) {
      if (!ep.live) {
        ep.live = true;
        ++cx.revivals;
        std::printf("coordinator: node %zu revived (probe answered)\n",
                    ep.node_id);
      }
      ep.missed_rounds = 0;
      continue;
    }
    if (!ep.live) continue;
    if (++ep.missed_rounds >= cx.opts->suspect_threshold) {
      ep.live = false;
      ++confirmed;
      ++cx.dead_confirmed;
      std::printf("coordinator: node %zu confirmed dead after %zu missed "
                  "rounds\n",
                  ep.node_id, ep.missed_rounds);
    }
  }
  return confirmed;
}

void Quiesce(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Read one replica with an outer retry loop on top of CallWithRetry.
/// Returns false only if the copy stayed unreachable — the caller fails
/// the run (replayable via the printed seed) rather than guess.
bool ReadCopy(ChaosCtx& cx, Endpoint* ep, std::uint64_t key, bool* have,
              std::string* val) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto resp = net::CallWithRetry(*ep->channel, net::GetRequest{key}.Encode(),
                                   cx.retry, &cx.rpc_stats);
    if (!resp.ok()) continue;
    auto gr = net::GetResponse::Decode(*resp);
    if (!gr.ok()) continue;
    *have = gr->found;
    if (gr->found) *val = gr->value;
    return true;
  }
  return false;
}

/// Post-heal anti-entropy: read both copies of every issued key, repair
/// one-sided or divergent copies (primary wins), then fold the shared
/// digest over acked keys on each side and assert convergence.
int ScrubAndConverge(ChaosCtx& cx) {
  std::uint64_t dig_primary = 0;
  std::uint64_t dig_mirror = 0;
  for (const std::uint64_t key : cx.issued_keys) {
    auto owners = Owners(cx, key);
    if (owners.size() < 2) continue;  // guarded: scrub runs all-live
    std::array<bool, 2> have{false, false};
    std::array<std::string, 2> val;
    for (int i = 0; i < 2; ++i) {
      if (!ReadCopy(cx, owners[i], key, &have[i], &val[i])) {
        return FailChaos(cx, "scrub read stayed unavailable");
      }
    }
    bool repaired = false;
    if (have[0] && (!have[1] || val[1] != val[0])) {
      auto resp = net::CallWithRetry(*owners[1]->channel,
                                     net::PutRequest{key, val[0]}.Encode(),
                                     cx.retry, &cx.rpc_stats);
      if (!resp.ok()) return FailChaos(cx, "scrub repair put failed");
      repaired = true;
    } else if (!have[0] && have[1]) {
      auto resp = net::CallWithRetry(*owners[0]->channel,
                                     net::PutRequest{key, val[1]}.Encode(),
                                     cx.retry, &cx.rpc_stats);
      if (!resp.ok()) return FailChaos(cx, "scrub repair put failed");
      repaired = true;
    }
    if (repaired) {
      ++cx.scrub_repairs;
      for (int i = 0; i < 2; ++i) {
        if (!ReadCopy(cx, owners[i], key, &have[i], &val[i])) {
          return FailChaos(cx, "scrub re-read stayed unavailable");
        }
      }
    }
    if (cx.checker.Acked(key)) {
      if (have[0]) dig_primary += recovery::DigestTerm(key, val[0]);
      if (have[1]) dig_mirror += recovery::DigestTerm(key, val[1]);
    }
  }
  cx.checker.ObserveConvergence(dig_primary, dig_mirror);
  std::printf("chaos: scrub repaired %zu cop%s, digests %s\n",
              cx.scrub_repairs, cx.scrub_repairs == 1 ? "y" : "ies",
              dig_primary == dig_mirror ? "converged" : "DIVERGED");
  return 0;
}

/// Read back every issued key through the failover path, feeding the
/// checker.  Unavailable reads get extra whole-path retries; any key that
/// stays unreachable fails the run.
int FinalVerify(ChaosCtx& cx) {
  std::size_t unreachable = 0;
  for (const std::uint64_t key : cx.issued_keys) {
    GetOutcome outcome = GetOutcome::kUnavailable;
    for (int attempt = 0; attempt < 3 && outcome == GetOutcome::kUnavailable;
         ++attempt) {
      outcome = FailoverGet(cx, key, /*observe=*/true);
    }
    if (outcome == GetOutcome::kUnavailable) ++unreachable;
  }
  if (unreachable != 0) {
    return FailChaos(cx, "final verification reads stayed unavailable");
  }
  return 0;
}

constexpr std::size_t kMigrateBatch = 16;

/// Copy a batch of keys (values read through the normal failover path)
/// into `dest` as one MIGRATE rpc.  False on any read or transfer failure.
bool CopyBatch(ChaosCtx& cx, Endpoint& dest,
               const std::vector<std::uint64_t>& keys, std::size_t from,
               std::size_t to) {
  net::MigrateRequest req;
  for (std::size_t i = from; i < to; ++i) {
    std::string v;
    if (FailoverGet(cx, keys[i], /*observe=*/false, &v) != GetOutcome::kServed) {
      return false;
    }
    req.records.emplace_back(keys[i], v);
  }
  auto resp = net::CallWithRetry(*dest.channel, req.Encode(), cx.retry,
                                 &cx.rpc_stats);
  if (!resp.ok()) return false;
  auto mr = net::MigrateResponse::Decode(*resp);
  return mr.ok() && mr->accepted == to - from;
}

/// Two-phase range migration with the destination partitioned mid-copy:
/// the copy aborts, rolls back after heal (the erase also sweeps any ghost
/// batch the healed link flushed), re-runs, verifies, and only then
/// commits the placement override and drops the old mirror copies.
int RunMigrationPhase(ChaosCtx& cx) {
  std::vector<Endpoint>& fleet = *cx.fleet;
  const Options& opts = *cx.opts;
  const std::size_t dest = 1;
  const std::uint64_t range_hi = std::max<std::uint64_t>(opts.ops / 4, 8);

  // Keys to move: everything in [0, range_hi) the destination does not
  // already hold a replica of (erasing those on rollback would eat data).
  std::vector<std::uint64_t> move;
  for (std::uint64_t k = 0; k < range_hi; ++k) {
    auto owners = Owners(cx, k);
    bool already = false;
    for (auto* ep : owners) already |= ep->node_id == dest;
    if (!already) move.push_back(k);
  }
  if (move.empty()) return FailChaos(cx, "migration range mapped empty");
  std::printf("chaos: migrating %zu keys of range [0,%llu) to node %zu\n",
              move.size(), static_cast<unsigned long long>(range_hi), dest);

  // --- Attempt 1: partition the destination halfway through the copy ----
  const std::size_t cut = move.size() / 2;
  bool partitioned = false;
  bool aborted = false;
  for (std::size_t i = 0; i < move.size() && !aborted; i += kMigrateBatch) {
    if (!partitioned && i >= cut) {
      std::printf("chaos: partitioning destination mid-copy\n");
      fleet[dest].proxy->Partition();
      partitioned = true;
    }
    const std::size_t to = std::min(move.size(), i + kMigrateBatch);
    if (!CopyBatch(cx, fleet[dest], move, i, to)) aborted = true;
  }
  if (!partitioned || !aborted) {
    return FailChaos(cx, "copy was expected to abort under partition");
  }
  std::printf("chaos: copy aborted under partition; rolling back\n");

  // --- Heal, then roll back.  Erasing after the heal quiesce means the
  // ghost batch (buffered mid-partition, flushed on heal) is swept too. --
  fleet[dest].proxy->Heal();
  Quiesce(300);
  for (int r = 0; r < 10 && !AllLive(fleet); ++r) ChaosProbeRound(cx);
  if (!AllLive(fleet)) return FailChaos(cx, "destination never revived");
  net::EraseRequest rollback;
  rollback.keys = move;
  auto resp = net::CallWithRetry(*fleet[dest].channel, rollback.Encode(),
                                 cx.retry, &cx.rpc_stats);
  if (!resp.ok()) return FailChaos(cx, "rollback erase failed");
  auto er = net::EraseResponse::Decode(*resp);
  if (!er.ok()) return FailChaos(cx, "rollback erase undecodable");
  std::printf("chaos: rollback erased %llu partial cop%s\n",
              static_cast<unsigned long long>(er->erased),
              er->erased == 1 ? "y" : "ies");
  for (std::size_t i = 0; i < std::min<std::size_t>(move.size(), 20); ++i) {
    bool have = false;
    std::string v;
    if (!ReadCopy(cx, &fleet[dest], move[i], &have, &v)) {
      return FailChaos(cx, "rollback verification read failed");
    }
    if (have) return FailChaos(cx, "rollback left a partial copy behind");
  }

  // --- Attempt 2: clean copy, verify, commit -----------------------------
  for (std::size_t i = 0; i < move.size(); i += kMigrateBatch) {
    const std::size_t to = std::min(move.size(), i + kMigrateBatch);
    if (!CopyBatch(cx, fleet[dest], move, i, to)) {
      return FailChaos(cx, "post-heal migration copy failed");
    }
  }
  for (const std::uint64_t k : move) {
    bool have = false;
    std::string v;
    if (!ReadCopy(cx, &fleet[dest], k, &have, &v)) {
      return FailChaos(cx, "migration verify read failed");
    }
    if (!have || v != ValueFor(k, opts.value_bytes)) {
      return FailChaos(cx, "migrated copy missing or wrong");
    }
  }
  auto rs = net::CallWithRetry(
      *fleet[dest].channel, net::RangeStatsRequest{0, range_hi - 1}.Encode(),
      cx.retry, &cx.rpc_stats);
  if (!rs.ok()) return FailChaos(cx, "range-stats verify failed");
  auto rsr = net::RangeStatsResponse::Decode(*rs);
  if (!rsr.ok() || rsr->records < move.size()) {
    return FailChaos(cx, "destination holds fewer records than migrated");
  }

  // Commit: new primary = dest, new mirror = the old primary; the old
  // mirror copy is dropped so the replica count stays at two.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> mirror_drop;
  for (const std::uint64_t k : move) {
    auto owners = Owners(cx, k);  // still rendezvous: override not yet set
    if (owners.size() < 2) return FailChaos(cx, "owner pair vanished");
    cx.placement[k] = {dest, owners[0]->node_id};
    mirror_drop[owners[1]->node_id].push_back(k);
  }
  for (auto& [node_id, keys] : mirror_drop) {
    net::EraseRequest drop;
    drop.keys = keys;
    auto dresp = net::CallWithRetry(*fleet[node_id].channel, drop.Encode(),
                                    cx.retry, &cx.rpc_stats);
    if (!dresp.ok()) return FailChaos(cx, "old-mirror cleanup erase failed");
  }
  std::printf("chaos: migration committed (%zu keys now primary on node "
              "%zu)\n",
              move.size(), dest);

  // A short serve phase exercises the new placement before the scrub.
  for (std::size_t s = 0; s < opts.ops / 2; ++s) {
    (void)ReplicatedPut(cx, opts.ops + s);
    const std::uint64_t read_key =
        Mix(opts.chaos_seed ^ (s * 2654435761ull)) % (opts.ops + s + 1);
    (void)FailoverGet(cx, read_key, /*observe=*/true);
  }
  return 0;
}

int RunChaos(Options opts) {
  if (opts.nodes < 3) return Fail("chaos scenarios need --nodes >= 3");
  if (opts.chaos == "slow-node" && opts.ops > 100) {
    std::printf("chaos: slow-node clamps --ops to 100 (shaped RTTs are "
                "expensive)\n");
    opts.ops = 100;
  }
  // Short detector cycles: a black-holed call burns its whole io timeout,
  // so the run wants the partition confirmed (and routed around) fast.
  opts.probe_every_ops = std::max<std::size_t>(5, opts.ops / 100);
  std::printf("chaos: scenario=%s seed=0x%llx (replay with "
              "ECC_CHAOS_SEED=0x%llx)\n",
              opts.chaos.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed),
              static_cast<unsigned long long>(opts.chaos_seed));

  std::vector<Endpoint> fleet;
  if (const int rc = LaunchFleet(opts, fleet); rc != 0) return rc;

  ChaosCtx cx;
  cx.opts = &opts;
  cx.fleet = &fleet;
  cx.retry.max_attempts =
      (opts.chaos == "corrupt-wire" || opts.chaos == "slow-node") ? 3 : 2;
  cx.retry.attempt_timeout = Duration::Millis(5);
  cx.retry.initial_backoff = Duration::Millis(2);
  cx.retry.max_backoff = Duration::Millis(10);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& ep : fleet) ep.proxy->BindTrace(&cx.trace, ep.node_id);
  cx.now = [t0] {
    return ecc::TimePoint::FromMicros(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  cx.checker.BindTrace(&cx.trace, cx.now);

  // --- Load phase: replicate every key across its owner pair -------------
  for (std::uint64_t k = 0; k < opts.ops; ++k) ReplicatedPut(cx, k);
  const bool faults_from_start =
      opts.chaos == "corrupt-wire" || opts.chaos == "slow-node";
  if (faults_from_start ? cx.acked < opts.ops / 2 : cx.acked != opts.ops) {
    return FailChaos(cx, "load phase ack rate collapsed");
  }
  std::printf("chaos: load done, %zu/%zu writes acked\n", cx.acked, opts.ops);
  const std::size_t load_put_failures = cx.put_failures;

  // --- Fault phase -------------------------------------------------------
  const std::size_t victim = opts.nodes - 1;
  if (opts.chaos == "partition-during-migration") {
    if (const int rc = RunMigrationPhase(cx); rc != 0) return rc;
  } else {
    const std::size_t part_at = opts.ops / 3;
    const std::size_t heal_at = std::min(
        opts.ops - 1, part_at + std::max<std::size_t>(40, opts.ops / 6));
    const std::size_t flap_every = std::max<std::size_t>(30, opts.ops / 10);
    bool flap_down = false;
    for (std::size_t s = 0; s < opts.ops; ++s) {
      if (opts.chaos == "partition-one") {
        if (s == part_at) {
          std::printf("chaos: partitioning node %zu\n", victim);
          fleet[victim].proxy->Partition();
        }
        if (s == heal_at) {
          std::printf("chaos: healing node %zu\n", victim);
          fleet[victim].proxy->Heal();
          Quiesce(250);  // let buffered ghost writes land before moving on
        }
      } else if (opts.chaos == "flapping-link" && s >= opts.ops / 6 &&
                 s < (5 * opts.ops) / 6 && s % flap_every == 0) {
        flap_down = !flap_down;
        std::printf("chaos: link to node %zu %s\n", victim,
                    flap_down ? "down" : "up");
        if (flap_down) {
          fleet[victim].proxy->Partition();
        } else {
          fleet[victim].proxy->Heal();
          Quiesce(150);
        }
      }
      if (s % opts.probe_every_ops == 0) ChaosProbeRound(cx);
      ReplicatedPut(cx, opts.ops + s);  // fresh key: ghosts stay idempotent
      const std::uint64_t read_key =
          Mix(opts.chaos_seed ^ (s * 2654435761ull)) % (opts.ops + s + 1);
      (void)FailoverGet(cx, read_key, /*observe=*/true);
    }
  }

  // --- Heal everything and wait for the fleet to reconverge --------------
  for (auto& ep : fleet) ep.proxy->Heal();
  Quiesce(300);
  for (int r = 0; r < 10 && !AllLive(fleet); ++r) ChaosProbeRound(cx);
  if (!AllLive(fleet)) {
    return FailChaos(cx, "a node never revived after heal");
  }
  const std::size_t chaos_put_failures = cx.put_failures - load_put_failures;
  std::printf("chaos: fault phase done (acked=%zu put_failures=%zu "
              "degraded_serves=%zu reads_unavailable=%zu confirmed_dead=%zu "
              "revivals=%zu)\n",
              cx.acked, cx.put_failures, cx.degraded_serves,
              cx.reads_unavailable, cx.dead_confirmed, cx.revivals);

  // --- Scrub + convergence + full audit ----------------------------------
  if (const int rc = ScrubAndConverge(cx); rc != 0) return rc;
  if (const int rc = FinalVerify(cx); rc != 0) return rc;
  cx.checker.EmitSummary();
  const auto report = cx.checker.report();
  std::printf("chaos: %s\n", report.ToString().c_str());
  obs::MaybeDumpTraceFromEnv(cx.trace);

  const std::size_t clean_exits = ShutdownFleet(fleet, SIZE_MAX);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("chaos: %zu issued keys audited in %.2fs\n",
              cx.issued_keys.size(), secs);

  // --- Verdict -----------------------------------------------------------
  if (!report.ok()) return FailChaos(cx, "invariant violated (see report)");
  if (clean_exits != opts.nodes) {
    return FailChaos(cx, "a node did not shut down clean");
  }
  if (opts.chaos == "partition-one") {
    if (cx.dead_confirmed < 1) return FailChaos(cx, "partition undetected");
    if (cx.revivals < 1) return FailChaos(cx, "healed node never revived");
    if (cx.degraded_serves < 1) {
      return FailChaos(cx, "mirror never served during the partition");
    }
    if (fleet[victim].proxy->stats().partition_transitions < 2) {
      return FailChaos(cx, "proxy never transitioned partition state");
    }
  } else if (opts.chaos == "flapping-link") {
    if (fleet[victim].proxy->stats().partition_transitions < 4) {
      return FailChaos(cx, "link never flapped");
    }
    if (chaos_put_failures < 1) {
      return FailChaos(cx, "no write ever failed across the flaps");
    }
  } else if (opts.chaos == "slow-node") {
    if (cx.rpc_stats.retries == 0) {
      return FailChaos(cx, "shaped latency never forced a retry");
    }
  } else if (opts.chaos == "corrupt-wire") {
    std::uint64_t corrupted = 0;
    for (auto& ep : fleet) corrupted += ep.proxy->stats().bytes_corrupted;
    if (corrupted == 0) return FailChaos(cx, "corruption plan never fired");
    std::printf("chaos: %llu bytes corrupted on the wire, zero served\n",
                static_cast<unsigned long long>(corrupted));
  }
  std::printf("chaos: OK (%s survived, zero lost acked writes)\n",
              opts.chaos.c_str());
  return 0;
}

// ------------------------------------------------------------------------
// Restart scenarios: SIGKILL + durable recovery (WAL/snapshot) + warm
// rejoin.  No proxies — the fault is the kill itself, and a proxy-less
// parent stays single-threaded so the mid-run re-fork is safe.
// ------------------------------------------------------------------------

/// Top-2 rendezvous owners over the *whole* fleet, ignoring liveness: the
/// placement a key returns to once every node is back up.
std::array<std::size_t, 2> FullOwners(const std::vector<Endpoint>& fleet,
                                      std::uint64_t key) {
  std::size_t a = 0, b = 0;
  std::uint64_t wa = 0, wb = 0;
  bool have_a = false, have_b = false;
  for (const auto& ep : fleet) {
    const std::uint64_t w = Mix(key * 0x100000001b3ull + ep.node_id);
    if (!have_a || w > wa) {
      b = a;
      wb = wa;
      have_b = have_a;
      a = ep.node_id;
      wa = w;
      have_a = true;
    } else if (!have_b || w > wb) {
      b = ep.node_id;
      wb = w;
      have_b = true;
    }
  }
  return {a, b};
}

bool IsFullOwner(const std::vector<Endpoint>& fleet, std::uint64_t key,
                 std::size_t node) {
  const auto owners = FullOwners(fleet, key);
  return owners[0] == node || owners[1] == node;
}

/// A read proves nothing while every full-placement owner is dead: the
/// survivors answering "not found" is expected, not a lost ack.
bool AnyFullOwnerLive(const std::vector<Endpoint>& fleet, std::uint64_t key) {
  const auto owners = FullOwners(fleet, key);
  return fleet[owners[0]].live || fleet[owners[1]].live;
}

/// Fetch a key's value from any live node that holds it.  The warm-rejoin
/// delta source: after a double crash the only copy of a downtime write
/// may sit on a node that is no rendezvous owner at all.
bool FetchAnywhere(ChaosCtx& cx, std::uint64_t key, std::string* out) {
  for (auto& ep : *cx.fleet) {
    if (!ep.live) continue;
    bool have = false;
    std::string v;
    if (!ReadCopy(cx, &ep, key, &have, &v)) continue;
    if (have) {
      *out = std::move(v);
      return true;
    }
  }
  return false;
}

/// Reap a SIGKILLed child before its slot is re-forked (satellite: the old
/// code left zombies between kill and shutdown) and verify it actually
/// died by our signal, not some startup crash.
int ReapKilled(ChaosCtx& cx, Endpoint& ep) {
  int status = 0;
  if (::waitpid(ep.pid, &status, 0) != ep.pid) {
    return FailChaos(cx, "waitpid on the killed node failed");
  }
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr, "node %zu: unexpected exit status 0x%x\n",
                 ep.node_id, static_cast<unsigned>(status));
    return FailChaos(cx, "killed node did not die by SIGKILL");
  }
  ep.pid = -1;
  return 0;
}

/// Restart a node in place: same id, same durability dir, fresh ephemeral
/// port (hence a fresh channel).  The child replays its snapshot + WAL
/// before it reports the port, so an answering probe means "recovered".
int RestartNode(ChaosCtx& cx, Endpoint& ep) {
  const Options& opts = *cx.opts;
  pid_t pid = -1;
  int port_fd = -1;
  if (SpawnNode(ep.node_id, opts, &pid, &port_fd) != 0) {
    return FailChaos(cx, "restart fork failed");
  }
  const int port = ReadPortReport(port_fd, pid, ep.node_id);
  if (port <= 0) return FailChaos(cx, "restarted node reported no port");
  ep.pid = pid;
  ep.channel = MakeChannel(opts, static_cast<std::uint16_t>(port), ep.node_id);
  ep.live = true;
  ep.missed_rounds = 0;
  ++cx.revivals;
  std::printf("coordinator: node %zu restarted pid %d port %d\n", ep.node_id,
              static_cast<int>(pid), port);
  return 0;
}

constexpr std::size_t kRejoinBuckets = 32;

struct RejoinStats {
  std::size_t owed = 0;         ///< acked keys the node owns under full placement
  std::size_t transferred = 0;  ///< keys delta-synced from survivors
  std::size_t buckets_dirty = 0;
  std::uint64_t recovered = 0;  ///< records the node brought back from disk
};

/// Warm-rejoin anti-entropy for one restarted node: split the keyspace
/// into contiguous buckets, compare the node's DIGEST per bucket against
/// the coordinator's expected fold over acked keys it owns, and per-key
/// probe only the mismatched buckets, transferring just the keys the node
/// actually lost.  WAL recovery makes most buckets match — that is the
/// scenario's point, asserted as transferred < 25% of owed.
int WarmRejoin(ChaosCtx& cx, std::size_t victim, RejoinStats* out) {
  std::vector<Endpoint>& fleet = *cx.fleet;
  Endpoint& ep = fleet[victim];

  auto stats = net::CallWithRetry(*ep.channel, net::StatsRequest{}.Encode(),
                                  cx.retry, &cx.rpc_stats);
  if (stats.ok()) {
    if (auto sr = net::StatsResponse::Decode(*stats); sr.ok()) {
      out->recovered = sr->records;
    }
  }

  // The node's owed keyspace: every acked key whose full-fleet owner pair
  // contains it.  Issued-not-acked keys are excluded — their copies may
  // legitimately exist anywhere, so they only widen a digest mismatch into
  // a per-key probe, never into a blind transfer.
  std::uint64_t max_key = 0;
  for (const std::uint64_t k : cx.issued_keys) max_key = std::max(max_key, k);
  const std::uint64_t width = max_key / kRejoinBuckets + 1;
  std::array<std::uint64_t, kRejoinBuckets> want_digest{};
  std::array<std::vector<std::uint64_t>, kRejoinBuckets> want_keys;
  for (const std::uint64_t k : cx.issued_keys) {
    if (!cx.checker.Acked(k)) continue;
    if (!IsFullOwner(fleet, k, victim)) continue;
    const auto b = static_cast<std::size_t>(k / width);
    want_digest[b] +=
        recovery::DigestTerm(k, ValueFor(k, cx.opts->value_bytes));
    want_keys[b].push_back(k);
    ++out->owed;
  }

  for (std::size_t b = 0; b < kRejoinBuckets; ++b) {
    if (want_keys[b].empty()) continue;
    const std::uint64_t lo = b * width;
    auto resp = net::CallWithRetry(
        *ep.channel, net::DigestRequest{lo, lo + width - 1}.Encode(), cx.retry,
        &cx.rpc_stats);
    if (!resp.ok()) return FailChaos(cx, "rejoin digest rpc failed");
    auto dr = net::DigestResponse::Decode(*resp);
    if (!dr.ok()) return FailChaos(cx, "rejoin digest undecodable");
    if (dr->digest == want_digest[b] &&
        dr->records == want_keys[b].size()) {
      continue;  // bucket already warm: recovery covered it, nothing moves
    }
    ++out->buckets_dirty;
    for (const std::uint64_t k : want_keys[b]) {
      bool have = false;
      std::string v;
      if (!ReadCopy(cx, &ep, k, &have, &v)) {
        return FailChaos(cx, "rejoin probe read failed");
      }
      if (have) continue;
      std::string fresh;
      if (!FetchAnywhere(cx, k, &fresh)) {
        return FailChaos(cx, "delta-sync source read failed");
      }
      auto put = net::CallWithRetry(
          *ep.channel, net::PutRequest{k, fresh}.Encode(), cx.retry,
          &cx.rpc_stats);
      if (!put.ok()) return FailChaos(cx, "delta-sync put failed");
      ++out->transferred;
    }
  }
  obs::Emit(&cx.trace,
            obs::RejoinDeltaEvent(cx.now(), victim, out->owed,
                                  out->transferred, out->recovered));
  std::printf("chaos: node %zu warm rejoin: owed=%zu transferred=%zu "
              "dirty_buckets=%zu/%zu recovered=%llu\n",
              victim, out->owed, out->transferred, out->buckets_dirty,
              kRejoinBuckets, static_cast<unsigned long long>(out->recovered));
  return 0;
}

int RunRestartScenario(Options opts) {
  if (opts.nodes < 3) return Fail("restart scenarios need --nodes >= 3");
  const bool double_crash = opts.chaos == "double-crash-durable";
  if (opts.durability_dir.empty()) {
    char tmpl[] = "/tmp/ecc_fleet_dur.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return Fail("mkdtemp() failed");
    opts.durability_dir = tmpl;
    opts.owns_durability_dir = true;
  }
  opts.probe_every_ops = std::max<std::size_t>(5, opts.ops / 100);
  std::printf("chaos: scenario=%s seed=0x%llx durability=%s (replay with "
              "ECC_CHAOS_SEED=0x%llx)\n",
              opts.chaos.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed),
              opts.durability_dir.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed));

  std::vector<Endpoint> fleet;
  if (const int rc = LaunchFleet(opts, fleet); rc != 0) return rc;

  ChaosCtx cx;
  cx.opts = &opts;
  cx.fleet = &fleet;
  cx.retry.max_attempts = 2;
  cx.retry.attempt_timeout = Duration::Millis(5);
  cx.retry.initial_backoff = Duration::Millis(2);
  cx.retry.max_backoff = Duration::Millis(10);
  const auto t0 = std::chrono::steady_clock::now();
  cx.now = [t0] {
    return ecc::TimePoint::FromMicros(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  cx.checker.BindTrace(&cx.trace, cx.now);
  // The crashed shards survive on disk, so an acked write is *never*
  // excusable — even when every in-memory copy dies at once.
  cx.checker.SetDurableRestarts(true);

  // --- Load phase --------------------------------------------------------
  for (std::uint64_t k = 0; k < opts.ops; ++k) ReplicatedPut(cx, k);
  if (cx.acked != opts.ops) {
    return FailChaos(cx, "load phase ack rate collapsed");
  }
  std::printf("chaos: load done, %zu/%zu writes acked\n", cx.acked, opts.ops);

  // --- Fault phase: kill late (2/3 through the fresh-key traffic) so the
  // downtime window stays well inside the 25% delta-sync bound. ----------
  std::vector<std::size_t> victims;
  if (double_crash) {
    victims = {0, 1};
  } else {
    victims = {opts.nodes - 1};
  }
  const std::size_t kill_at = (2 * opts.ops) / 3;
  for (std::size_t s = 0; s < opts.ops; ++s) {
    if (s == kill_at) {
      for (const std::size_t v : victims) {
        std::printf("chaos: SIGKILL node %zu (pid %d)\n", v,
                    static_cast<int>(fleet[v].pid));
        ::kill(fleet[v].pid, SIGKILL);
      }
      if (double_crash) {
        // Every acked key whose full owner pair is exactly the victim pair
        // just lost all in-memory copies.  With durable restarts declared
        // the checker refuses the excuse: these stay live obligations.
        std::size_t doomed = 0;
        for (const std::uint64_t k : cx.issued_keys) {
          if (!cx.checker.Acked(k)) continue;
          const auto owners = FullOwners(fleet, k);
          if ((owners[0] == victims[0] && owners[1] == victims[1]) ||
              (owners[0] == victims[1] && owners[1] == victims[0])) {
            cx.checker.RecordUnrecoverable(k);
            ++doomed;
          }
        }
        std::printf("chaos: %zu acked keys lost every in-memory copy\n",
                    doomed);
        if (doomed == 0) {
          return FailChaos(cx, "victim pair owned no key arc (vacuous run)");
        }
      }
    }
    if (s % opts.probe_every_ops == 0) ChaosProbeRound(cx);
    ReplicatedPut(cx, opts.ops + s);
    const std::uint64_t read_key =
        Mix(opts.chaos_seed ^ (s * 2654435761ull)) % (opts.ops + s + 1);
    (void)FailoverGet(cx, read_key,
                      /*observe=*/AnyFullOwnerLive(fleet, read_key));
  }
  std::printf("chaos: fault phase done (acked=%zu put_failures=%zu "
              "degraded_serves=%zu reads_unavailable=%zu confirmed_dead=%zu)\n",
              cx.acked, cx.put_failures, cx.degraded_serves,
              cx.reads_unavailable, cx.dead_confirmed);

  // --- Reap the corpses, then restart them in place from their WALs -----
  for (const std::size_t v : victims) {
    if (const int rc = ReapKilled(cx, fleet[v]); rc != 0) return rc;
  }
  for (const std::size_t v : victims) {
    if (const int rc = RestartNode(cx, fleet[v]); rc != 0) return rc;
  }
  for (int r = 0; r < 10 && !AllLive(fleet); ++r) ChaosProbeRound(cx);
  if (!AllLive(fleet)) return FailChaos(cx, "a restarted node never answered");

  // --- Warm rejoin: digest anti-entropy + minimal delta sync -------------
  std::vector<RejoinStats> rejoin(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (const int rc = WarmRejoin(cx, victims[i], &rejoin[i]); rc != 0) {
      return rc;
    }
  }

  // --- Scrub + convergence + full audit ----------------------------------
  if (const int rc = ScrubAndConverge(cx); rc != 0) return rc;
  if (const int rc = FinalVerify(cx); rc != 0) return rc;
  cx.checker.EmitSummary();
  const auto report = cx.checker.report();
  std::printf("chaos: %s\n", report.ToString().c_str());
  obs::MaybeDumpTraceFromEnv(cx.trace);
  const std::size_t clean_exits = ShutdownFleet(fleet, SIZE_MAX);

  // --- Verdict ------------------------------------------------------------
  if (!report.ok()) return FailChaos(cx, "invariant violated (see report)");
  if (clean_exits != opts.nodes) {
    return FailChaos(cx, "a node did not shut down clean");
  }
  if (cx.dead_confirmed < victims.size()) {
    return FailChaos(cx, "the kill was never detected");
  }
  for (const auto& rj : rejoin) {
    if (rj.recovered == 0) {
      return FailChaos(cx, "restarted node recovered nothing from disk");
    }
    if (!double_crash && rj.owed > 0 && rj.transferred * 4 >= rj.owed) {
      return FailChaos(cx, "delta sync moved >= 25% of the rejoined keyspace");
    }
  }
  if (double_crash) {
    if (report.keys_durable_pending == 0) {
      return FailChaos(cx, "double crash never doomed a key arc");
    }
    if (report.keys_unrecoverable != 0) {
      return FailChaos(cx, "acked keys written off despite durable WALs");
    }
  }
  if (opts.owns_durability_dir) RemoveTree(opts.durability_dir);
  std::printf("chaos: OK (%s survived, zero lost acked writes)\n",
              opts.chaos.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--nodes") opts.nodes = std::strtoul(next(), nullptr, 10);
    else if (a == "--ops") opts.ops = std::strtoul(next(), nullptr, 10);
    else if (a == "--value-bytes")
      opts.value_bytes = std::strtoul(next(), nullptr, 10);
    else if (a == "--io-threads")
      opts.io_threads = std::strtoul(next(), nullptr, 10);
    else if (a == "--kill") opts.kill_one = true;
    else if (a == "--chaos") opts.chaos = next();
    else if (a.rfind("--chaos=", 0) == 0) opts.chaos = a.substr(8);
    else if (a == "--seed") opts.chaos_seed = std::strtoull(next(), nullptr, 0);
    else if (a.rfind("--seed=", 0) == 0)
      opts.chaos_seed = std::strtoull(a.c_str() + 7, nullptr, 0);
    else if (a == "--durability-dir") opts.durability_dir = next();
    else if (a.rfind("--durability-dir=", 0) == 0)
      opts.durability_dir = a.substr(17);
    else {
      std::fprintf(stderr,
                   "usage: fleet_runner [--nodes N] [--ops M] "
                   "[--value-bytes B] [--io-threads T] [--kill]\n"
                   "                    [--chaos=SCENARIO] [--seed S] "
                   "[--durability-dir DIR]\n"
                   "  scenarios: partition-one flapping-link slow-node "
                   "corrupt-wire partition-during-migration\n"
                   "             kill-restart-warm double-crash-durable\n");
      return 2;
    }
  }
  if (opts.nodes < 1) return 2;
  if (!opts.chaos.empty() && !IsChaosScenario(opts.chaos)) {
    std::fprintf(stderr, "unknown chaos scenario: %s\n", opts.chaos.c_str());
    return 2;
  }
  if (opts.durability_dir.empty()) {
    // Opt-in for any mode; restart scenarios fall back to a temp dir.
    if (const char* v = std::getenv("ECC_DURABILITY_DIR")) {
      opts.durability_dir = v;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);  // belt and braces; sends use MSG_NOSIGNAL

  if (!opts.chaos.empty()) {
    if (opts.chaos_seed == 0) {
      opts.chaos_seed = net::ChaosSeedFromEnv(0xc4a05u);
    }
    if (IsRestartScenario(opts.chaos)) {
      return RunRestartScenario(std::move(opts));
    }
    return RunChaos(std::move(opts));
  }

  // --- Legacy smoke: launch, load, optionally kill, serve, verify --------
  std::vector<Endpoint> fleet;
  if (const int rc = LaunchFleet(opts, fleet); rc != 0) return rc;

  const net::RetryPolicy retry = WallClockPolicy();
  const std::string value(opts.value_bytes, 'v');
  const auto t0 = std::chrono::steady_clock::now();

  // --- Load phase: put every key at its rendezvous owner -----------------
  std::size_t put_failures = 0;
  for (std::uint64_t k = 0; k < opts.ops; ++k) {
    Endpoint* owner = OwnerOf(fleet, k);
    auto resp = net::CallWithRetry(
        *owner->channel, net::PutRequest{k, value}.Encode(), retry);
    if (!resp.ok()) ++put_failures;
  }
  if (put_failures != 0) return Fail("puts failed against a healthy fleet");

  // --- Optionally murder a node mid-serve --------------------------------
  const std::size_t victim = opts.nodes - 1;
  bool killed = false;

  // --- Serve phase: read everything back, detector interleaved -----------
  std::size_t hits = 0, misses = 0, errors_after_removal = 0;
  std::size_t dead_confirmed = 0;
  for (std::uint64_t k = 0; k < opts.ops; ++k) {
    if (opts.kill_one && !killed && k == opts.ops / 3) {
      std::printf("coordinator: SIGKILL node %zu (pid %d)\n", victim,
                  static_cast<int>(fleet[victim].pid));
      ::kill(fleet[victim].pid, SIGKILL);
      killed = true;
    }
    if (k % opts.probe_every_ops == 0) {
      dead_confirmed += ProbeRound(fleet, opts);
    }
    Endpoint* owner = OwnerOf(fleet, k);
    if (owner == nullptr) return Fail("no live nodes left");
    auto resp = net::CallWithRetry(
        *owner->channel, net::GetRequest{k}.Encode(), retry);
    if (!resp.ok()) {
      // Unavailable while the victim is dying-but-undetected is expected;
      // errors against a confirmed-live owner are not.
      if (!owner->live) ++errors_after_removal;
      ++misses;
      continue;
    }
    auto decoded = net::GetResponse::Decode(*resp);
    if (decoded.ok() && decoded->found) {
      ++hits;
    } else {
      ++misses;
    }
  }
  // The detector may still owe the victim its confirmation.
  for (std::size_t r = 0; r < opts.suspect_threshold + 1 && killed &&
                          dead_confirmed == 0;
       ++r) {
    dead_confirmed += ProbeRound(fleet, opts);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- Clean shutdown ----------------------------------------------------
  const std::size_t clean_exits =
      ShutdownFleet(fleet, killed ? victim : SIZE_MAX);

  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  std::printf(
      "fleet: %zu node(s), %zu ops x2 phases in %.2fs (%.0f op/s wall)\n",
      opts.nodes, opts.ops, secs,
      static_cast<double>(2 * opts.ops) / secs);
  std::printf("fleet: hit_rate=%.3f hits=%zu misses=%zu\n", hit_rate, hits,
              misses);

  // --- Smoke assertions --------------------------------------------------
  if (clean_exits != opts.nodes) return Fail("a node did not shut down clean");
  if (opts.kill_one) {
    if (dead_confirmed != 1) return Fail("victim never confirmed dead");
    if (errors_after_removal != 0) {
      return Fail("errors against live nodes after failover");
    }
    // Rendezvous keeps the survivors' keys in place: with n nodes, only
    // ~1/n of the serve phase (after the kill point) can miss.
    if (opts.nodes > 1 && hit_rate < 0.5) {
      return Fail("hit rate collapsed after a single node loss");
    }
    std::printf("fleet: survived the kill (confirmed=%zu, hit_rate=%.3f)\n",
                dead_confirmed, hit_rate);
  } else {
    if (hits != opts.ops) return Fail("lossless fleet missed a key");
  }
  std::printf("fleet: OK\n");
  return 0;
}
