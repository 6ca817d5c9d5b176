// papyrusd end-to-end benchmark.
//
// Drives an in-process PapyrusDaemon through its public API, as one
// closed-loop client: PapyrusDaemon::Start, every checkin/submit through
// HandleLine (the wire entry point papyrusd serves), then a drain of the
// whole queue that ends in a daemon crash injected through
// DaemonOptions::crash_plan, and a recovery by a new daemon on the same
// root. One process per workload; one engine thread
// (SessionConfig::worker_threads = 1, PAPYRUS_TEST_WORKERS cleared).
//
//   papyrus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --work DIR
//
// --trace 0 times the drain RunOne by RunOne (Drain() is exactly that
// loop) and prints the end-to-end metrics. --trace 1 drains the same
// inputs by calling the layers' public functions in RunOne's order,
// timing each, and prints the per-layer metrics. Either run also drains
// the workload's reference sessions crash-free through the other path
// and checks that both give byte-identical session sections. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Disk cost is counted, not timed: fsync is interposed below (counted;
// the file descriptor is validated but nothing is flushed), and bytes
// written come from /proc/self/io.

#include <fcntl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/clock.h"
#include "checks.h"
#include "obs/metrics.h"
#include "server/daemon.h"
#include "server/queue.h"
#include "server/session_manager.h"
#include "server/wire.h"

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();
std::atomic<int64_t> g_fsyncs{0};

}  // namespace

// libpapyrus is linked statically, so this definition takes every fsync
// the library issues. Flushing is left out on purpose: disk cost is
// reported as the exact count, never as time.
extern "C" int fsync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0;
}

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using papyrus::ManualClock;
using papyrus::obs::MetricsRegistry;
using papyrus::server::DaemonCrashPlan;
using papyrus::server::DaemonOptions;
using papyrus::server::ManagedSession;
using papyrus::server::PapyrusDaemon;

/// The daemon's LRU cap on hosted sessions while draining.
constexpr int kMaxOpenSessions = 64;
/// The recovering daemon's cap: reopening every session of a workload
/// with more sessions than this also evicts (and checkpoints) sessions.
constexpr int kRecoveryOpenSessions = 16;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Draws in [lo, lo + span).
int64_t Draw(uint64_t* state, int64_t lo, int64_t span) {
  return lo + static_cast<int64_t>(Next(state) % static_cast<uint64_t>(span));
}

// ---------------------------------------------------------------------------
// Workloads

/// One wire line and the session it addresses.
struct Line {
  std::string text;
  std::string session;
  bool submit = false;  // else a checkin, which opens the session
};

struct Workload {
  std::string name;
  std::vector<std::string> sessions;  // name order
  std::vector<Line> lines;            // checkins, then submits
  std::map<std::string, int> tasks_per_session;
  std::map<std::string, std::string> warm_to_cold;
  /// Sessions of the smaller crash-free reference run: enough to cover
  /// every mechanism the workload stresses (deep threads, warm/cold
  /// pairs), a fraction of the cost.
  std::set<std::string> reference;
  int tasks = 0;
};

std::string Name(char prefix, int i, int width) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%c%0*d", prefix, width, i);
  return buf;
}

void AddSubmit(Workload* w, const std::string& line,
               const std::string& session) {
  w->lines.push_back({line, session, true});
  ++w->tasks_per_session[session];
  ++w->tasks;
}

/// A behavioural spec plus simulator commands, then `tasks`
/// Structure_Synthesis runs with distinct seeds on one design thread.
std::vector<std::string> SynthesisLines(uint64_t* rng, int tasks) {
  std::vector<std::string> lines = {
      "checkin ~path=/proj/spec ~type=behav ~inputs=" +
          std::to_string(Draw(rng, 4, 9)) +
          " ~outputs=" + std::to_string(Draw(rng, 4, 9)) +
          " ~complexity=" + std::to_string(Draw(rng, 8, 9)) +
          " ~seed=" + std::to_string(Draw(rng, 1, 1000000)),
      "checkin ~path=/proj/sim.cmd ~type=text ~text=run%20" +
          std::to_string(Draw(rng, 50, 150))};
  int64_t seed = Draw(rng, 1, 1000000);
  for (int k = 0; k < tasks; ++k) {
    std::string s = "s" + std::to_string(k);
    lines.push_back(
        "submit ~thread=synth ~template=Structure_Synthesis"
        " ~in=/proj/spec ~in=/proj/sim.cmd ~out=" + s + ".layout ~out=" +
        s + ".stats ~seed=" + std::to_string(seed + k));
  }
  return lines;
}

/// Lines of SynthesisLines addressed to `session`.
void AddSessionLines(Workload* w, const std::string& session,
                     const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    std::size_t space = line.find(' ');
    std::string addressed = line.substr(0, space) + " ~session=" + session +
                            line.substr(space);
    if (line.rfind("submit", 0) == 0) {
      AddSubmit(w, addressed, session);
    } else {
      w->lines.push_back({addressed, session, false});
    }
  }
}

/// A few sessions under the LRU cap, each growing one design thread by
/// hundreds of tasks: Tcl/TDL evaluation, OCT commit, WAL group commit,
/// generation compaction and history-replay recovery.
Workload DeepHistory(uint64_t seed) {
  Workload w;
  w.name = "deep_history";
  uint64_t rng = seed ^ 0x64656570ULL;
  constexpr int kSessions = 4;
  constexpr int kTasksPerSession = 256;
  for (int i = 0; i < kSessions; ++i) {
    std::string s = Name('d', i, 1);
    w.sessions.push_back(s);
    if (i == 0) w.reference.insert(s);
    AddSessionLines(&w, s, SynthesisLines(&rng, kTasksPerSession));
  }
  return w;
}

/// A cold pass of sessions commits flows; an equal set of fresh
/// sessions resubmits the same inputs and is served from the shared
/// artifact store. Cold names sort first, so each round-robin rotation
/// commits a cold task before its warm twin is claimed. Twelve pairs
/// keep session creation, whose file-system cost swings with the host,
/// a small share of the set-up, and still overflow the recovering
/// daemon's cap.
Workload WarmRerun(uint64_t seed) {
  Workload w;
  w.name = "warm_rerun";
  uint64_t rng = seed ^ 0x7761726dULL;
  constexpr int kPairs = 12;
  constexpr int kTasksPerSession = 43;
  std::vector<std::vector<std::string>> flows;
  for (int i = 0; i < kPairs; ++i) {
    flows.push_back(SynthesisLines(&rng, kTasksPerSession));
    AddSessionLines(&w, Name('c', i, 2), flows.back());
  }
  for (int i = 0; i < kPairs; ++i) {
    AddSessionLines(&w, Name('w', i, 2), flows[i]);
    w.warm_to_cold[Name('w', i, 2)] = Name('c', i, 2);
    if (i % 4 == 0) {
      w.reference.insert(Name('w', i, 2));
      w.reference.insert(Name('c', i, 2));
    }
  }
  for (const auto& [s, n] : w.tasks_per_session) w.sessions.push_back(s);
  return w;
}

/// The workload restricted to its reference sessions.
Workload Subset(const Workload& w) {
  Workload r;
  r.name = w.name;
  for (const std::string& s : w.sessions) {
    if (w.reference.count(s) != 0) r.sessions.push_back(s);
  }
  for (const Line& line : w.lines) {
    if (w.reference.count(line.session) == 0) continue;
    if (line.submit) {
      AddSubmit(&r, line.text, line.session);
    } else {
      r.lines.push_back(line);
    }
  }
  for (const auto& [warm, cold] : w.warm_to_cold) {
    if (w.reference.count(warm) != 0) r.warm_to_cold[warm] = cold;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Measurements

int64_t WriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t TreeBytes(const std::string& root) {
  int64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

/// Wall time the traced run attributes to each layer, plus the counts
/// read from the program's MetricsRegistry. Sums over the timed rounds
/// and the reference sessions' final checkpoints.
struct Layers {
  double wire_s = 0, claim_s = 0, decode_s = 0, open_s = 0, execute_s = 0,
         wal_s = 0, compact_s = 0, complete_s = 0, drain_s = 0;
  int64_t lines = 0, tasks = 0, opens = 0, wal_commits = 0,
          compactions = 0, sections_written = 0, payload_us = 0,
          cas_hits = 0, cas_published = 0, elided = 0, spawns = 0;
  // Generation compactions forced by Checkpoint (no Save compactions on
  // a workload whose sessions never reach the snapshot interval).
  double checkpoint_s = 0;
  int64_t checkpoints = 0, checkpoint_sections = 0;
  double recover_start_s = 0, recover_open_s = 0;
  int64_t recoveries = 0, recover_opens = 0, wal_replayed = 0;
};

/// One round's end-to-end figures.
struct Round {
  double drain_s = 0, recover_s = 0;
  int committed = 0;
  std::vector<double> latencies_ms;
  int64_t fsyncs = 0, write_bytes = 0, store_bytes = 0, virtual_micros = 0;
  std::vector<TaskCost> costs;
  std::vector<std::string> claims;
  std::map<std::string, std::vector<int64_t>> submitted;
  /// The task the crash interrupted, and the submitted ids each session's
  /// ledger lacked when recovery reopened it.
  papyrus::server::ClaimRecord crashed;
  std::map<std::string, std::vector<int64_t>> unapplied;
  bool recommitted = false;
};

int64_t CounterValue(MetricsRegistry& registry, const char* name) {
  return registry.FindOrCreateCounter(name)->value();
}

int64_t PayloadMicros(MetricsRegistry& registry) {
  return registry
      .FindOrCreateHistogram(papyrus::obs::kExecWallLatency,
                             papyrus::obs::WallLatencyBucketBounds())
      ->sum();
}

DaemonOptions Options(const std::string& root, ManualClock* clock,
                      MetricsRegistry* metrics, DaemonCrashPlan* crash) {
  DaemonOptions options;
  options.root = root;
  options.session.worker_threads = 1;
  options.max_open_sessions = kMaxOpenSessions;
  options.clock = clock;
  options.metrics = metrics;
  options.crash_plan = crash;
  return options;
}

/// A daemon with the clock and metrics registry it spans incarnations
/// with; members are destroyed bottom-up, so the daemon goes first.
struct Daemon {
  std::unique_ptr<ManualClock> clock = std::make_unique<ManualClock>(0);
  std::unique_ptr<MetricsRegistry> registry =
      std::make_unique<MetricsRegistry>();
  std::unique_ptr<PapyrusDaemon> daemon;
};

/// Start plus every wire line. Records the queue id of every submit.
std::string Setup(const Workload& w, const DaemonOptions& options,
                  Daemon* d, Round* round, Layers* layers) {
  auto started = PapyrusDaemon::Start(options);
  if (!started.ok()) return "start: " + started.status().ToString();
  d->daemon = std::move(*started);
  for (const Line& line : w.lines) {
    double t0 = Now();
    std::string response = d->daemon->HandleLine(line.text);
    if (layers != nullptr) layers->wire_s += Now() - t0;
    auto parsed = papyrus::server::WireMessage::Parse(response);
    if (!parsed.ok() || parsed->verb != "ok") {
      return "wire: " + line.text + " -> " + response;
    }
    if (line.submit) {
      round->submitted[line.session].push_back(
          std::stoll(*parsed->Find("id")));
    }
  }
  if (layers != nullptr) layers->lines += static_cast<int64_t>(w.lines.size());
  return "";
}

/// The untraced drain: RunOne until the injected crash, timing each task
/// from claim to queue completion and recording its tool spawns and
/// virtual time for the warm-rerun check.
std::string TimedDrain(PapyrusDaemon* d, MetricsRegistry* registry,
                       int tasks, Round* round) {
  auto* spawns = registry->FindOrCreateCounter(papyrus::obs::kSpriteSpawns);
  const auto& log = d->queue().claim_log();
  double start = Now();
  double end = start;
  for (;;) {
    int64_t spawns0 = spawns->value();
    int64_t virtual0 = d->clock().NowMicros();
    double t0 = Now();
    auto ran = d->RunOne();
    double t1 = Now();
    if (!ran.ok()) {
      if (d->crashed()) break;
      return "drain: " + ran.status().ToString();
    }
    if (!*ran) break;
    end = t1;
    round->latencies_ms.push_back((t1 - t0) * 1e3);
    round->costs.push_back({log.back().session, spawns->value() - spawns0,
                            d->clock().NowMicros() - virtual0});
  }
  round->drain_s = end - start;
  round->committed = static_cast<int>(round->latencies_ms.size());
  if (!d->crashed() || round->committed != tasks - 1) {
    return "drain: expected a crash at task " + std::to_string(tasks) +
           ", ran " + std::to_string(round->committed);
  }
  return "";
}

/// One task through the layers RunOne calls, in its order, each timed.
/// Returns "" when the queue had nothing claimable (*ran = false).
std::string LayeredRunOne(Daemon* d, int64_t lease_micros, Layers* layers,
                          bool* ran, std::vector<TaskCost>* costs) {
  PapyrusDaemon& daemon = *d->daemon;
  auto& queue = daemon.queue();
  papyrus::server::ClaimPolicy policy;
  policy.fair = true;
  double t0 = Now();
  queue.ExpireLeases();
  auto claimed = queue.Claim(daemon.owner(), lease_micros, policy);
  double t1 = Now();
  if (!claimed.ok()) return "claim: " + claimed.status().ToString();
  *ran = claimed->has_value();
  if (!*ran) return "";
  const papyrus::server::QueueTask task = **claimed;
  auto desc = papyrus::server::TaskDescription::Decode(task.description);
  double t2 = Now();
  if (!desc.ok()) return "decode: " + desc.status().ToString();
  int hosted = daemon.open_sessions();
  auto session = daemon.OpenSession(desc->session);
  double t3 = Now();
  if (!session.ok()) return "open: " + session.status().ToString();
  // Both workloads stay under the drain daemon's LRU cap, so a real open
  // (not a hit on a hosted session) always grows the hosted set.
  bool opened = daemon.open_sessions() > hosted;
  ManagedSession* s = *session;
  if (s->HasApplied(task.id)) return "drain: task already applied";
  auto* spawns =
      d->registry->FindOrCreateCounter(papyrus::obs::kSpriteSpawns);
  int64_t spawns0 = spawns->value();
  int64_t virtual0 = s->session().clock().NowMicros();
  auto node = s->Execute(task.id, *desc);
  double t4 = Now();
  if (!node.ok()) return "execute: " + node.status().ToString();
  int64_t delta = s->session().clock().NowMicros() - virtual0;
  if (delta > 0) daemon.clock().AdvanceMicros(delta);
  MetricsRegistry& own = s->session().metrics();
  int64_t sections0 =
      CounterValue(own, papyrus::obs::kSnapshotSectionsWritten);
  int64_t generation0 = s->generation();
  auto saved = s->Save();
  double t5 = Now();
  if (!saved.ok()) return "save: " + saved.ToString();
  auto done = queue.Complete(task.id, daemon.owner());
  double t6 = Now();
  if (!done.ok()) return "complete: " + done.ToString();

  layers->claim_s += t1 - t0;
  layers->decode_s += t2 - t1;
  layers->open_s += t3 - t2;
  layers->execute_s += t4 - t3;
  if (s->generation() != generation0) {
    layers->compact_s += t5 - t4;
    ++layers->compactions;
    layers->sections_written +=
        CounterValue(own, papyrus::obs::kSnapshotSectionsWritten) - sections0;
  } else {
    layers->wal_s += t5 - t4;
    ++layers->wal_commits;
  }
  layers->complete_s += t6 - t5;
  layers->opens += opened ? 1 : 0;
  layers->spawns += spawns->value() - spawns0;
  ++layers->tasks;
  costs->push_back({desc->session, spawns->value() - spawns0, delta});
  return "";
}

/// The traced drain: every task but the last through LayeredRunOne, the
/// last through RunOne, whose crash plan fires after its execution.
std::string TracedDrain(Daemon* d, int64_t lease_micros, int tasks,
                        Round* round, Layers* layers) {
  MetricsRegistry* registry = d->registry.get();
  int64_t hits0 = CounterValue(*registry, papyrus::obs::kCasHits);
  int64_t published0 = CounterValue(*registry, papyrus::obs::kCasPublished);
  int64_t elided0 = CounterValue(*registry, papyrus::obs::kStepsElided);
  int64_t payload0 = PayloadMicros(*registry);
  double start = Now();
  for (int i = 0; i < tasks - 1; ++i) {
    bool ran = false;
    std::string error =
        LayeredRunOne(d, lease_micros, layers, &ran, &round->costs);
    if (!error.empty()) return error;
    if (!ran) return "drain: queue ran dry before the last task";
  }
  layers->drain_s += Now() - start;
  layers->cas_hits += CounterValue(*registry, papyrus::obs::kCasHits) - hits0;
  layers->cas_published +=
      CounterValue(*registry, papyrus::obs::kCasPublished) - published0;
  layers->elided +=
      CounterValue(*registry, papyrus::obs::kStepsElided) - elided0;
  layers->payload_us += PayloadMicros(*registry) - payload0;
  auto last = d->daemon->RunOne();
  if (last.ok() || !d->daemon->crashed()) {
    return "drain: the crash plan did not fire on the last task";
  }
  round->committed = tasks - 1;
  return "";
}

/// A new daemon on the crashed root: start, reopen every session, finish
/// the queue.
std::string Recover(const Workload& w, const DaemonOptions& options,
                    Daemon* d, Round* round, Layers* layers) {
  double t0 = Now();
  auto started = PapyrusDaemon::Start(options);
  double t1 = Now();
  if (!started.ok()) return "restart: " + started.status().ToString();
  d->daemon = std::move(*started);
  int64_t replayed = 0;
  for (const std::string& name : w.sessions) {
    auto session = d->daemon->OpenSession(name);
    if (!session.ok()) return "reopen: " + session.status().ToString();
    replayed += CounterValue((*session)->session().metrics(),
                             papyrus::obs::kWalReplayedRecords);
    for (int64_t id : round->submitted[name]) {
      if (!(*session)->HasApplied(id)) round->unapplied[name].push_back(id);
    }
  }
  double t2 = Now();
  auto drained = d->daemon->Drain();
  double t3 = Now();
  if (!drained.ok()) return "recovery drain: " + drained.ToString();
  round->recover_s = t3 - t0;
  auto crashed = d->daemon->OpenSession(round->crashed.session);
  if (!crashed.ok()) return "reopen: " + crashed.status().ToString();
  round->recommitted = (*crashed)->HasApplied(round->crashed.id);
  if (layers != nullptr) {
    layers->recover_start_s += t1 - t0;
    layers->recover_open_s += t2 - t1;
    layers->recover_opens += static_cast<int64_t>(w.sessions.size());
    layers->wal_replayed += replayed;
    ++layers->recoveries;
  }
  return "";
}

QueueCounts Counts(PapyrusDaemon& d) {
  auto& q = d.queue();
  return {q.DoneCount(), q.FailedCount(), q.PendingCount() + q.ClaimedCount()};
}

/// Every session's sections after a forced compaction, read through its
/// manifest, and (for warm_rerun) the content hashes of its
/// tool-produced objects.
std::string Fingerprint(const Workload& w, PapyrusDaemon* d,
                        Sections* sections,
                        std::map<std::string, Outputs>* outputs,
                        Layers* layers) {
  for (const std::string& name : w.sessions) {
    auto session = d->OpenSession(name);
    if (!session.ok()) return "fingerprint: " + session.status().ToString();
    ManagedSession* s = *session;
    MetricsRegistry& own = s->session().metrics();
    int64_t written0 =
        CounterValue(own, papyrus::obs::kSnapshotSectionsWritten);
    double t0 = Now();
    auto checkpointed = s->Checkpoint();
    if (layers != nullptr) {
      layers->checkpoint_s += Now() - t0;
      ++layers->checkpoints;
      layers->checkpoint_sections +=
          CounterValue(own, papyrus::obs::kSnapshotSectionsWritten) -
          written0;
    }
    if (!checkpointed.ok()) return "checkpoint: " + checkpointed.ToString();
    auto* store = s->session().store();
    for (const auto& [section, file] : store->CurrentSectionFiles()) {
      auto text = store->ReadSection(section);
      if (!text.ok()) return "section: " + text.status().ToString();
      (*sections)[name + "/" + section] = *text;
    }
    bool warm_pair = w.warm_to_cold.count(name) != 0;
    for (const auto& [warm, cold] : w.warm_to_cold) {
      warm_pair = warm_pair || cold == name;
    }
    if (!warm_pair) continue;
    auto& db = s->session().database();
    std::vector<papyrus::oct::ObjectId> produced;
    db.ForEach([&](const papyrus::oct::ObjectRecord& record) {
      if (!record.creator_tool.empty() && !record.reclaimed) {
        produced.push_back(record.id);
      }
    });
    for (const auto& id : produced) {
      auto hash = db.ContentHash(id);
      if (!hash.ok()) return "hash: " + hash.status().ToString();
      (*outputs)[name][id.ToString()] = *hash;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// One run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;
};

/// Where the previous run's work directory waits to be deleted. Creating
/// files on the development host's ext4 costs several times more for a
/// while after a bulk delete, so a run deletes its predecessor's roots
/// only once its own cold set-up is timed, and leaves its own behind.
std::string StaleDir(const Args& args) { return args.work + ".stale"; }

struct Result {
  std::vector<Round> rounds;
  Layers layers;
  double setup_s = 0;
  double peak_rss_mb = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "deep_history") return DeepHistory(seed);
  return WarmRerun(seed);
}

void Fail(Result* r, const std::string& error) {
  if (!error.empty()) r->errors.push_back(error);
}

/// One timed round: setup, drain ending in the injected crash, recovery.
/// The recovered daemon is handed back in *kept.
bool RunRound(const Workload& w, const Args& args, int index, Result* r,
              Daemon* kept) {  Round round;
  std::string root = args.work + "/round" + std::to_string(index);
  Daemon d;
  // Crash points draw before_execute, after_execute, after_save per
  // task; the traced run's layered tasks never draw, so its single
  // RunOne crashes at draw 2. Both crash after executing the last task.
  DaemonCrashPlan crash(
      std::vector<int64_t>{args.trace ? 2 : 3LL * w.tasks - 1});
  DaemonOptions options =
      Options(root, d.clock.get(), d.registry.get(), &crash);
  Layers* layers = args.trace ? &r->layers : nullptr;
  int64_t fsyncs0 = g_fsyncs.load();
  int64_t written0 = WriteBytes();
  std::string error = Setup(w, options, &d, &round, layers);
  if (index == 0) {
    r->setup_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - kProcessStart)
                     .count();
    std::error_code ec;
    fs::remove_all(StaleDir(args), ec);
  }
  if (error.empty()) {
    error = args.trace ? TracedDrain(&d, options.lease_micros, w.tasks,
                                     &round, layers)
                       : TimedDrain(d.daemon.get(), d.registry.get(),
                                    w.tasks, &round);
  }
  if (error.empty()) {
    for (const auto& claim : d.daemon->queue().claim_log()) {
      round.claims.push_back(claim.session);
    }
    round.crashed = d.daemon->queue().claim_log().back();
    d.daemon.reset();  // the crash: nothing more reaches the disk
    options.crash_plan = nullptr;
    options.max_open_sessions = kRecoveryOpenSessions;
    error = Recover(w, options, &d, &round, layers);
  }
  Fail(r, error);
  if (!error.empty()) return false;
  round.fsyncs = g_fsyncs.load() - fsyncs0;
  round.write_bytes = WriteBytes() - written0;
  round.store_bytes = TreeBytes(root);
  round.virtual_micros = d.clock->NowMicros();
  QueueCounts counts = Counts(*d.daemon);
  if (counts.done != w.tasks || counts.failed != 0 || counts.unresolved != 0) {
    Fail(r, "round " + std::to_string(index) + ": queue done=" +
                std::to_string(counts.done) + " failed=" +
                std::to_string(counts.failed));
  }
  Fail(r, CheckFairness(round.claims, w.tasks_per_session));
  Fail(r, CheckRecovery(round.unapplied, round.crashed.session,
                        round.crashed.id, round.recommitted));
  r->failed += counts.failed;
  *kept = std::move(d);
  r->rounds.push_back(std::move(round));
  return true;
}

/// The same inputs, crash-free, through the other drain path: the
/// layered calls for an untraced run, Drain() for a traced one.
std::string Reference(const Workload& w, const Args& args,
                      std::map<std::string, std::vector<int64_t>>* submitted,
                      Sections* sections,
                      std::map<std::string, Outputs>* outputs,
                      std::vector<TaskCost>* costs) {
  Daemon d;
  DaemonOptions options = Options(args.work + "/reference", d.clock.get(),
                                  d.registry.get(), nullptr);
  Round round;
  std::string error = Setup(w, options, &d, &round, nullptr);
  if (!error.empty()) return error;
  if (args.trace) {
    auto drained = d.daemon->Drain();
    if (!drained.ok()) return "reference drain: " + drained.ToString();
  } else {
    Layers scratch;
    for (bool ran = true; ran;) {
      error = LayeredRunOne(&d, options.lease_micros, &scratch, &ran, costs);
      if (!error.empty()) return error;
    }
  }
  QueueCounts counts = Counts(*d.daemon);
  error = Fingerprint(w, d.daemon.get(), sections, outputs, nullptr);
  if (!error.empty()) return error;
  *submitted = round.submitted;
  return CheckExactlyOnce(counts, w.tasks, round.submitted, *sections);
}

/// Queue ids are global, so the same task has another id in the smaller
/// reference run. Maps the ids in the reference's ledger lines onto the
/// full run's, by each session's submission order; line order is kept,
/// since both runs number a session's tasks in the same order.
void RenumberLedgers(const std::map<std::string, std::vector<int64_t>>& from,
                     const std::map<std::string, std::vector<int64_t>>& to,
                     Sections* sections) {
  for (const auto& [session, ids] : from) {
    auto it = sections->find(session + "/state");
    auto target = to.find(session);
    if (it == sections->end() || target == to.end() ||
        target->second.size() != ids.size()) {
      continue;  // left as is: the comparison reports the mismatch
    }
    std::map<std::string, std::string> id_map;
    for (size_t k = 0; k < ids.size(); ++k) {
      id_map[std::to_string(ids[k])] = std::to_string(target->second[k]);
    }
    std::istringstream in(it->second);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.rfind("applied ", 0) == 0) {
        std::size_t end = line.find(' ', 8);
        auto mapped = id_map.find(line.substr(8, end - 8));
        if (mapped != id_map.end()) {
          line = "applied " + mapped->second + line.substr(end);
        }
      }
      out += line + "\n";
    }
    it->second = out;
  }
}

Result RunAll(const Args& args, const Workload& w) {
  Result r;
  std::error_code ec;
  if (fs::exists(args.work, ec)) {
    fs::remove_all(StaleDir(args), ec);
    fs::rename(args.work, StaleDir(args), ec);
  }
  fs::create_directories(args.work, ec);
  Daemon last;
  double start = Now();
  // Whole rounds until the time is up, at least two; the last one's
  // recovered daemon stays open for the checks. Round 0 is the cold
  // set-up and a warm-up: the timed figures come from rounds 1 on, which
  // all start right after the previous round's root was deleted, so
  // they see the same file-system state whatever ran before this
  // process. The roots of the last round and the reference run stay
  // behind for the next run to delete (StaleDir).
  for (int i = 0; i < 2 || Now() - start < args.seconds; ++i) {
    if (i > 0) {
      last.daemon.reset();
      fs::remove_all(args.work + "/round" + std::to_string(i - 1), ec);
    }
    if (!RunRound(w, args, i, &r, &last)) return r;
    if (i == 0) r.layers = Layers();
  }
  r.peak_rss_mb = PeakRssMb();

  // Checks on the last round's recovered root, against a smaller
  // crash-free run of the reference sessions through the other path.
  Workload ref = Subset(w);
  const Round& final_round = r.rounds.back();
  Sections recovered;
  std::map<std::string, Outputs> outputs;
  Fail(&r, Fingerprint(ref, last.daemon.get(), &recovered, &outputs,
                       args.trace ? &r.layers : nullptr));
  std::map<std::string, std::vector<int64_t>> ledgers;
  for (const std::string& s : ref.sessions) {
    ledgers[s] = final_round.submitted.at(s);
  }
  Fail(&r, CheckExactlyOnce(Counts(*last.daemon), w.tasks, ledgers,
                            recovered));
  last.daemon.reset();
  Sections reference;
  std::map<std::string, Outputs> reference_outputs;
  std::vector<TaskCost> reference_costs;
  std::map<std::string, std::vector<int64_t>> reference_ids;
  Fail(&r, Reference(ref, args, &reference_ids, &reference, &reference_outputs,
                     &reference_costs));
  RenumberLedgers(reference_ids, ledgers, &reference);
  Fail(&r, CheckSameSections(reference, recovered));
  if (!w.warm_to_cold.empty()) {
    for (const Round& round : r.rounds) {
      Fail(&r, CheckWarmCosts(round.costs, w.warm_to_cold));
    }
    Fail(&r, CheckWarmOutputs(ref.warm_to_cold, outputs));
    Fail(&r, CheckWarmOutputs(ref.warm_to_cold, reference_outputs));
    if (!args.trace) {
      Fail(&r, CheckWarmCosts(reference_costs, ref.warm_to_cold));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Report

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Result& r, const Workload& w) {
  std::vector<double> rates, recover, fsyncs, written, stored, virt,
      latencies;
  for (size_t i = 1; i < r.rounds.size(); ++i) {
    const Round& round = r.rounds[i];
    rates.push_back(round.committed / round.drain_s);
    recover.push_back(round.recover_s);
    fsyncs.push_back(static_cast<double>(round.fsyncs) / w.tasks);
    written.push_back(static_cast<double>(round.write_bytes) / w.tasks);
    stored.push_back(static_cast<double>(round.store_bytes) / w.tasks);
    virt.push_back(static_cast<double>(round.virtual_micros) / 1e6 / w.tasks);
    latencies.insert(latencies.end(), round.latencies_ms.begin(),
                     round.latencies_ms.end());
  }
  return {
      {"setup_s", r.setup_s, "s"},
      {"tasks_per_s", Median(rates), "tasks/s"},
      {"task_p50_ms", Percentile(latencies, 0.50), "ms"},
      {"task_p99_ms", Percentile(latencies, 0.99), "ms"},
      {"recover_s", Median(recover), "s"},
      {"fsyncs_per_task", Median(fsyncs), "count"},
      {"write_bytes_per_task", Median(written), "bytes"},
      {"store_bytes_per_task", Median(stored), "bytes"},
      {"virtual_s_per_task", Median(virt), "virtual_s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Layers& l) {
  auto per = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  double tasks = static_cast<double>(l.tasks);
  double attributed = l.claim_s + l.decode_s + l.open_s + l.execute_s +
                      l.wal_s + l.compact_s + l.complete_s;
  int64_t generations = l.compactions + l.checkpoints;
  return {
      {"wire.us_per_line", per(l.wire_s * 1e6, l.lines), "us"},
      {"queue.claim_us_per_task", per(l.claim_s * 1e6, l.tasks), "us"},
      {"wire.decode_us_per_task", per(l.decode_s * 1e6, l.tasks), "us"},
      {"session.open_us_per_task", per(l.open_s * 1e6, l.tasks), "us"},
      {"session.opens_per_task", per(l.opens, l.tasks), "count"},
      {"execute.us_per_task", per(l.execute_s * 1e6, l.tasks), "us"},
      {"cadtools.payload_us_per_task", per(l.payload_us, l.tasks), "us"},
      {"wal.commit_us", per(l.wal_s * 1e6, l.wal_commits), "us"},
      {"wal.commits_per_task", per(l.wal_commits, l.tasks), "count"},
      {"engine.compact_ms",
       per((l.compact_s + l.checkpoint_s) * 1e3, generations), "ms"},
      {"engine.generations_per_task",
       per(l.compactions, l.tasks), "count"},
      {"engine.sections_written_per_generation",
       per(l.sections_written + l.checkpoint_sections, generations), "count"},
      {"queue.complete_us_per_task", per(l.complete_s * 1e6, l.tasks), "us"},
      {"cas.hits_per_task", per(l.cas_hits, l.tasks), "count"},
      {"cas.published_per_task", per(l.cas_published, l.tasks), "count"},
      {"cache.steps_elided_per_task", per(l.elided, l.tasks), "count"},
      {"sprite.spawns_per_task", per(l.spawns, l.tasks), "count"},
      {"recover.start_ms", per(l.recover_start_s * 1e3, l.recoveries), "ms"},
      {"recover.open_ms_per_session",
       per(l.recover_open_s * 1e3, l.recover_opens), "ms"},
      {"recover.wal_replayed_records", per(l.wal_replayed, l.recoveries),
       "count"},
      {"traced.drain_us_per_task", per(l.drain_s * 1e6, l.tasks), "us"},
      {"traced.unattributed_us_per_task",
       tasks > 0 ? (l.drain_s - attributed) * 1e6 / tasks : 0.0, "us"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--work") args.work = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if ((args.workload != "deep_history" && args.workload != "warm_rerun") ||
      args.work.empty()) {
    std::fprintf(stderr,
                 "usage: papyrus_perfbench --workload deep_history|warm_rerun"
                 " --seed N --seconds S --trace 0|1 --work DIR\n");
    return 2;
  }
  ::unsetenv("PAPYRUS_TEST_WORKERS");
  Workload w = MakeWorkload(args.workload, args.seed);
  Result r = RunAll(args, w);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (r.rounds.size() < 2) return 1;
  std::vector<Metric> metrics =
      args.trace ? PerLayer(r.layers) : EndToEnd(r, w);
  std::fprintf(stderr, "%s seed=%llu trace=%d rounds=%zu tasks/round=%d\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, r.rounds.size(), w.tasks);
  std::string json = "{\"correct\": ";
  json += r.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(static_cast<int64_t>(r.rounds.size()) * w.tasks);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
    std::fprintf(stderr, "  %-40s %14.4f %s\n", metrics[i].name.c_str(),
                 metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
