// Correctness checks of the papyrusd benchmark.
//
// Each check compares what a run produced against a property of the
// method (exactly-once commit, byte-identical histories, round-robin
// fairness, zero-cost warm reruns), never against a saved copy of an
// earlier run's output. Checks take plain data, so the negative
// self-tests in selftest.cc can feed each one a deliberately wrong input
// and show that it fires. A check that would compare nothing (empty
// inputs, no pairs) fails rather than passing vacuously.
//
// Every check returns "" when the property holds, else a one-line
// reason.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Session sections keyed "<session>/<section>" -> bytes, as read
/// through each session's manifest after a forced compaction.
using Sections = std::map<std::string, std::string>;

/// Final queue counts after recovery.
struct QueueCounts {
  int64_t done = 0;
  int64_t failed = 0;
  int64_t unresolved = 0;  // pending + claimed
};

/// Exactly once: the queue finished all `total` submitted tasks (none
/// failed or left over), and the durable applied ledger (the "applied
/// <task> ..." lines of the `state` section) of each session in
/// `submitted` holds each id submitted to it exactly once and no other.
std::string CheckExactlyOnce(
    const QueueCounts& counts, int64_t total,
    const std::map<std::string, std::vector<int64_t>>& submitted,
    const Sections& sections);

/// Crash recovery lost exactly the crashed task and recommitted it:
/// `unapplied` lists, per session, the submitted ids its ledger lacked
/// when recovery reopened it — only the crashed task may be there — and
/// `recommitted` says whether the ledger holds it after recovery.
std::string CheckRecovery(
    const std::map<std::string, std::vector<int64_t>>& unapplied,
    const std::string& crashed_session, int64_t crashed_id,
    bool recommitted);

/// Byte identity of two independently produced session states: same
/// section names, same bytes.
std::string CheckSameSections(const Sections& expected,
                              const Sections& actual);

/// Fairness of one incarnation's claim order: no session's consecutive
/// claims are further apart than the number of sessions that still had
/// unclaimed work at its earlier claim. `tasks_per_session` gives what
/// each session had queued before the first claim.
std::string CheckFairness(const std::vector<std::string>& claim_sessions,
                          const std::map<std::string, int>& tasks_per_session);

/// What one drained task cost, attributed to its session.
struct TaskCost {
  std::string session;
  int64_t spawns = 0;          // tool processes started
  int64_t virtual_micros = 0;  // daemon virtual-clock advance
};

/// Tool-produced outputs of one session: "<name>@<version>" -> content
/// hash.
using Outputs = std::map<std::string, std::string>;

/// Warm rerun costs: every task of a warm session (keys of
/// `warm_to_cold`) spawned no tool process and added no virtual time,
/// while the cold sessions did run tools.
std::string CheckWarmCosts(
    const std::vector<TaskCost>& costs,
    const std::map<std::string, std::string>& warm_to_cold);

/// Warm rerun outputs: each warm session's outputs equal those of the
/// cold session that computed the same derivations.
std::string CheckWarmOutputs(
    const std::map<std::string, std::string>& warm_to_cold,
    const std::map<std::string, Outputs>& outputs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
