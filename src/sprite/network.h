#ifndef PAPYRUS_SPRITE_NETWORK_H_
#define PAPYRUS_SPRITE_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/status.h"
#include "obs/observability.h"

namespace papyrus::sprite {

using HostId = int;
using ProcessId = int;

constexpr ProcessId kNoProcess = -1;
constexpr HostId kNoHost = -1;

enum class ProcessState {
  kRunning,
  kCompleted,
  kKilled,
  /// The host executing the process crashed: the process died without a
  /// completion signal and its partial work is gone. Distinct from kKilled
  /// (a deliberate, clean termination by the task manager).
  kLost,
};

/// Process control block, as returned by `GetPcbInfo` — the simulator's
/// stand-in for Sprite's `Proc_GetPCBInfo` system call, which the task
/// manager polls to find migratable children still stuck on the home node
/// (§4.3.3 re-migration).
struct ProcessInfo {
  ProcessId pid = kNoProcess;
  ProcessId parent_pid = kNoProcess;
  HostId home_host = kNoHost;
  HostId current_host = kNoHost;
  bool migratable = true;
  ProcessState state = ProcessState::kRunning;
  std::string command;
  int64_t work_micros = 0;  // total CPU work the process represents
  int64_t done_micros = 0;  // work completed so far
  int64_t spawn_micros = 0;
  int64_t finish_micros = 0;  // valid once completed/killed
  int migration_count = 0;
};

/// A simulated network of workstations running the Sprite operating system.
///
/// Behavioural model (matching §4.3.2–4.3.3 of the thesis):
///  - a host is *idle* iff its owner has not touched mouse/keyboard (tracked
///    by `SetOwnerActive` / scheduled owner events); a host that is even
///    slightly loaded by an interactive owner is not qualified to accept
///    migrated processes;
///  - `FindIdleHost` returns the least-loaded idle host, or fails when none
///    exists (the caller then executes locally);
///  - when an owner returns, all *foreign* processes on that host are
///    evicted: migrated back to their home nodes;
///  - hosts share CPU evenly among the processes currently executing on
///    them; per-host `speed` scales progress;
///  - process completion raises a signal: the registered completion handler
///    runs with the final PCB (the UNIX signal mechanism of §4.3.2).
///
/// Time is virtual: the network drives the `ManualClock` passed in, so the
/// whole distributed execution is deterministic and instantaneous in wall
/// time.
class Network {
 public:
  /// Creates `num_hosts` workstations. Host 0 is conventionally the home
  /// machine of the Papyrus session. All hosts start idle with speed 1.0.
  Network(ManualClock* clock, int num_hosts);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  HostId home_host() const { return 0; }

  /// Sets the relative CPU speed of a host (default 1.0).
  Status SetHostSpeed(HostId host, double speed);

  /// Models the cost of moving a process's address space (Sprite paid a
  /// real price for migration): each migration/eviction adds this much
  /// work to the process. Default 0.
  void set_migration_cost_micros(int64_t cost) {
    migration_cost_micros_ = cost;
  }
  int64_t migration_cost_micros() const { return migration_cost_micros_; }

  /// Marks a host's owner present/absent immediately.
  Status SetOwnerActive(HostId host, bool active);
  /// Schedules an owner presence change at absolute virtual time `micros`.
  Status ScheduleOwnerEvent(HostId host, int64_t micros, bool active);

  bool IsOwnerActive(HostId host) const;
  /// Idle = host up and owner absent. (Load is a tie-breaker for
  /// FindIdleHost.)
  bool IsIdle(HostId host) const;
  /// True when the host has not crashed (or has rebooted since).
  bool IsUp(HostId host) const;
  /// Number of processes currently executing on `host`.
  int LoadOf(HostId host) const;

  /// Least-loaded idle host, or FailedPrecondition when every host is
  /// owner-active. `exclude_home` skips host 0 (useful when the caller
  /// wants a *remote* node).
  Result<HostId> FindIdleHost(bool exclude_home = false) const;

  /// Starts a process representing `work_micros` of CPU on `host`.
  Result<ProcessId> Spawn(ProcessId parent, const std::string& command,
                          int64_t work_micros, HostId host,
                          bool migratable);

  /// Moves a running process to another host (Sprite process migration).
  /// Non-migratable processes refuse. Migrating onto a host whose owner is
  /// active is allowed but futile: the process bounces straight back to its
  /// home node (one migration + one eviction) — the §4.3.3 race where the
  /// owner returns while the address-space transfer is in flight. Under
  /// flaky-migration mode (`SetMigrationFlakiness`) the call may fail with
  /// Unavailable; the process then stays where it was.
  Status Migrate(ProcessId pid, HostId to);

  // --- failure model ---------------------------------------------------

  /// Crashes `host` immediately: every process executing there — foreign
  /// *and* native — dies in state kLost and the failure handler fires for
  /// each. The host accepts no spawns or migrations until rebooted.
  Status CrashHost(HostId host);
  /// Schedules a crash at absolute virtual time `micros`.
  Status ScheduleCrash(HostId host, int64_t micros);
  /// Schedules the host to come back up at absolute virtual time `micros`
  /// (idle, empty, owner absent). Rebooting an up host is a no-op.
  Status RebootHost(HostId host, int64_t micros);

  /// Enables seeded flaky-migration mode: each Migrate call fails with
  /// probability `probability` (deterministically derived from `seed` and
  /// the call sequence, so runs are reproducible in virtual time).
  /// Evictions are not flaky — going home always succeeds while the home
  /// host is up. Probability 0 disables the mode.
  Status SetMigrationFlakiness(double probability, uint64_t seed);

  /// Lost-process signals (host crash). Runs after the process is
  /// finalized, like the completion handler; the two are distinct signals
  /// so the task manager can tell environmental failure from completion
  /// or eviction.
  using FailureHandler = std::function<void(const ProcessInfo&)>;
  void SetFailureHandler(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  /// Terminates a running process without completion signal.
  Status Kill(ProcessId pid);

  Result<ProcessInfo> GetProcess(ProcessId pid) const;

  /// All PCBs whose parent is `parent` (kNoProcess = all processes).
  std::vector<ProcessInfo> GetPcbInfo(ProcessId parent = kNoProcess) const;

  /// Completion signals. The handler may call back into the network
  /// (spawn/migrate); it runs after the completing process is finalized.
  using CompletionHandler = std::function<void(const ProcessInfo&)>;
  void SetCompletionHandler(CompletionHandler handler) {
    completion_handler_ = std::move(handler);
  }

  /// Eviction notifications (owner returned, foreign processes pushed
  /// home). Used by the task manager to trigger re-migration attempts.
  using EvictionHandler = std::function<void(const ProcessInfo&)>;
  void SetEvictionHandler(EvictionHandler handler) {
    eviction_handler_ = std::move(handler);
  }

  /// Advances virtual time to the next event (a process completion or a
  /// scheduled owner change) and handles it. Returns false when nothing is
  /// pending.
  bool Step();

  /// Runs until no processes remain and no owner events are pending.
  void RunUntilQuiescent();

  /// True when any process is still running.
  bool HasRunningProcesses() const { return running_count_ > 0; }

  // --- statistics -----------------------------------------------------
  int64_t total_migrations() const { return total_migrations_; }
  int64_t total_evictions() const { return total_evictions_; }
  int64_t total_spawns() const { return total_spawns_; }
  /// Aggregate busy CPU-microseconds across hosts (for utilization).
  int64_t total_busy_micros() const { return total_busy_micros_; }
  int64_t total_crashes() const { return total_crashes_; }
  /// Processes that died in a host crash.
  int64_t total_lost() const { return total_lost_; }
  /// Migrate calls that failed under flaky-migration mode.
  int64_t total_migration_failures() const {
    return total_migration_failures_;
  }

  ManualClock* clock() const { return clock_; }

  /// Attaches trace + metrics sinks. Labels one trace thread-track per
  /// host under the shared host-track process group, adds the totals
  /// accumulated so far to a newly bound registry's sprite counters (only
  /// deltas: the registry may be shared by other sessions), and emits
  /// every subsequent network event (spawn, migration, eviction, crash,
  /// reboot, lost process) plus per-host load counters.
  void set_observability(const obs::Observability& obs);

 private:
  struct Host {
    double speed = 1.0;
    bool owner_active = false;
    bool up = true;
    std::vector<ProcessId> running;  // pids executing here
  };

  /// A scheduled change of host state: owner presence, crash, or reboot.
  struct HostEvent {
    enum class Kind { kOwner, kCrash, kReboot };
    int64_t micros;
    HostId host;
    Kind kind;
    bool active;  // kOwner only
  };

  /// Applies progress to all running processes for the interval since the
  /// last accounting instant.
  void AccrueProgress(int64_t now);
  /// Earliest projected completion time across running processes.
  int64_t NextCompletionTime(ProcessId* which) const;
  void Complete(ProcessId pid, int64_t now);
  void EvictForeigners(HostId host);
  void DetachFromHost(ProcessId pid);
  /// Finalizes a process as kLost and fires the failure handler.
  void LoseProcess(ProcessId pid, int64_t now);
  void PushHostEvent(HostEvent ev);
  double RateOf(const ProcessInfo& p) const;
  /// Deterministic draw in [0, 1) for flaky-migration decisions.
  double NextFlakyDraw();
  /// Emits an instant on `host`'s trace track (no-op when untraced).
  void TraceHostEvent(HostId host, const std::string& name,
                      std::vector<obs::TraceArg> args);
  /// Emits the host's current load as a Chrome counter series.
  void TraceLoad(HostId host);

  ManualClock* clock_;
  std::vector<Host> hosts_;
  std::map<ProcessId, ProcessInfo> processes_;
  std::vector<HostEvent> host_events_;  // kept sorted by time
  CompletionHandler completion_handler_;
  EvictionHandler eviction_handler_;
  FailureHandler failure_handler_;
  ProcessId next_pid_ = 1;
  int running_count_ = 0;
  int64_t last_accrual_micros_ = 0;
  int64_t total_migrations_ = 0;
  int64_t total_evictions_ = 0;
  int64_t total_spawns_ = 0;
  int64_t total_busy_micros_ = 0;
  int64_t total_crashes_ = 0;
  int64_t total_lost_ = 0;
  int64_t total_migration_failures_ = 0;
  int64_t migration_cost_micros_ = 0;
  double migration_flakiness_ = 0.0;
  uint64_t flaky_state_ = 0;

  obs::Observability obs_;
  obs::Counter* c_spawns_ = nullptr;
  obs::Counter* c_migrations_ = nullptr;
  obs::Counter* c_migration_failures_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_crashes_ = nullptr;
  obs::Counter* c_reboots_ = nullptr;
  obs::Counter* c_lost_ = nullptr;
};

}  // namespace papyrus::sprite

#endif  // PAPYRUS_SPRITE_NETWORK_H_
