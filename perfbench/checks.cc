#include "checks.h"

#include <set>
#include <sstream>

namespace perfbench {

std::string CheckExactlyOnce(
    const QueueCounts& counts, int64_t total,
    const std::map<std::string, std::vector<int64_t>>& submitted,
    const Sections& sections) {
  if (total == 0 || submitted.empty()) {
    return "exactly-once: no submitted task to account for";
  }
  if (counts.done != total || counts.failed != 0 || counts.unresolved != 0) {
    return "exactly-once: queue done=" + std::to_string(counts.done) +
           " failed=" + std::to_string(counts.failed) +
           " unresolved=" + std::to_string(counts.unresolved) +
           " for " + std::to_string(total) + " submitted";
  }
  for (const auto& [session, ids] : submitted) {
    auto it = sections.find(session + "/state");
    if (it == sections.end()) {
      return "exactly-once: session " + session + " has no state section";
    }
    std::map<int64_t, int> ledger;
    std::istringstream in(it->second);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string tag;
      int64_t id = 0;
      if (fields >> tag && tag == "applied" && fields >> id) ++ledger[id];
    }
    for (int64_t id : ids) {
      auto entry = ledger.find(id);
      int seen = entry == ledger.end() ? 0 : entry->second;
      if (seen != 1) {
        return "exactly-once: task " + std::to_string(id) + " appears " +
               std::to_string(seen) + " times in " + session + "'s ledger";
      }
      ledger.erase(entry);
    }
    if (!ledger.empty()) {
      return "exactly-once: " + session + "'s ledger holds task " +
             std::to_string(ledger.begin()->first) +
             " that was never submitted to it";
    }
  }
  return "";
}

std::string CheckRecovery(
    const std::map<std::string, std::vector<int64_t>>& unapplied,
    const std::string& crashed_session, int64_t crashed_id,
    bool recommitted) {
  for (const auto& [session, ids] : unapplied) {
    for (int64_t id : ids) {
      if (session != crashed_session || id != crashed_id) {
        return "recovery: task " + std::to_string(id) + " of " + session +
               " was not durable at reopen";
      }
    }
  }
  auto lost = unapplied.find(crashed_session);
  if (lost == unapplied.end() || lost->second.size() != 1) {
    return "recovery: the crashed task " + std::to_string(crashed_id) +
           " was durable before its save";
  }
  if (!recommitted) {
    return "recovery: the crashed task " + std::to_string(crashed_id) +
           " was not recommitted";
  }
  return "";
}

std::string CheckSameSections(const Sections& expected,
                              const Sections& actual) {
  if (expected.empty() || actual.empty()) {
    return "sections: nothing to compare (" +
           std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size()) + " sections)";
  }
  for (const auto& [key, bytes] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) return "sections: " + key + " missing";
    if (it->second != bytes) return "sections: " + key + " bytes differ";
  }
  for (const auto& [key, bytes] : actual) {
    if (expected.count(key) == 0) return "sections: unexpected " + key;
  }
  return "";
}

std::string CheckFairness(
    const std::vector<std::string>& claim_sessions,
    const std::map<std::string, int>& tasks_per_session) {
  std::map<std::string, int> unclaimed = tasks_per_session;
  int pending_sessions = 0;
  for (const auto& [session, n] : unclaimed) {
    if (n > 0) ++pending_sessions;
  }
  // For each session: position of its last claim, and how many sessions
  // had unclaimed work just before it.
  std::map<std::string, std::pair<int, int>> last;
  int compared = 0;
  for (int i = 0; i < static_cast<int>(claim_sessions.size()); ++i) {
    const std::string& session = claim_sessions[i];
    auto left = unclaimed.find(session);
    if (left == unclaimed.end() || left->second <= 0) {
      return "fairness: claim " + std::to_string(i) + " for " + session +
             ", which had no unclaimed task";
    }
    auto prev = last.find(session);
    if (prev != last.end()) {
      int gap = i - prev->second.first;
      if (gap > prev->second.second) {
        return "fairness: " + session + " waited " + std::to_string(gap) +
               " claims with only " + std::to_string(prev->second.second) +
               " sessions pending";
      }
      ++compared;
    }
    last[session] = {i, pending_sessions};
    if (--left->second == 0) --pending_sessions;
  }
  if (compared == 0) return "fairness: no session was claimed twice";
  return "";
}

std::string CheckWarmCosts(
    const std::vector<TaskCost>& costs,
    const std::map<std::string, std::string>& warm_to_cold) {
  std::set<std::string> cold;
  for (const auto& [warm, c] : warm_to_cold) cold.insert(c);
  int warm_tasks = 0;
  int64_t cold_spawns = 0;
  for (const TaskCost& task : costs) {
    if (warm_to_cold.count(task.session) != 0) {
      ++warm_tasks;
      if (task.spawns != 0 || task.virtual_micros != 0) {
        return "warm rerun: a task of " + task.session + " spawned " +
               std::to_string(task.spawns) + " tools and added " +
               std::to_string(task.virtual_micros) + " virtual us";
      }
    } else if (cold.count(task.session) != 0) {
      cold_spawns += task.spawns;
    }
  }
  if (warm_tasks == 0) return "warm rerun: no warm task was drained";
  if (cold_spawns == 0) {
    return "warm rerun: the cold pass spawned no tool either";
  }
  return "";
}

std::string CheckWarmOutputs(
    const std::map<std::string, std::string>& warm_to_cold,
    const std::map<std::string, Outputs>& outputs) {
  if (warm_to_cold.empty()) return "warm rerun: no pair to compare";
  for (const auto& [warm, c] : warm_to_cold) {
    auto w = outputs.find(warm);
    auto k = outputs.find(c);
    if (w == outputs.end() || k == outputs.end() || k->second.empty()) {
      return "warm rerun: no outputs recorded for " + warm + " / " + c;
    }
    if (w->second != k->second) {
      return "warm rerun: outputs of " + warm + " differ from " + c + "'s";
    }
  }
  return "";
}

}  // namespace perfbench
