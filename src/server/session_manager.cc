#include "server/session_manager.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "base/macros.h"
#include "base/thread_annotations.h"
#include "base/strings.h"

namespace papyrus::server {

namespace {

constexpr char kStateHeader[] = "papyrus-session-state v1";

}  // namespace

ManagedSession::ManagedSession(std::string directory, std::string name)
    : directory_(std::move(directory)), name_(std::move(name)) {}

Result<std::unique_ptr<ManagedSession>> ManagedSession::Open(
    const std::string& directory, const std::string& name,
    const SessionConfig& config, const obs::Observability& obs,
    storage::ContentStore* shared_store) {
  base::AssertEngineThread("ManagedSession::Open");
  std::unique_ptr<ManagedSession> managed(
      new ManagedSession(directory, name));
  managed->snapshot_interval_ = config.snapshot_interval;

  SessionOptions options;
  options.num_workstations = config.num_workstations;
  options.worker_threads = config.worker_threads;
  options.cache_interval = config.cache_interval;
  managed->session_ = std::make_unique<Papyrus>(options);
  // Rebind the session's instrumented subsystems to the daemon's sinks
  // so one registry and one trace span every session and incarnation.
  if (obs.trace != nullptr || obs.metrics != nullptr) {
    managed->session_->database().set_observability(obs);
    managed->session_->network().set_observability(obs);
    managed->session_->task_manager().set_observability(obs);
    managed->session_->step_cache().set_observability(obs);
  }
  if (shared_store != nullptr) {
    // Deferred publication: entries recorded during execution are held
    // until Save() makes the commit durable (FlushSharedPublications),
    // so the store only ever holds outputs of durably committed tasks.
    managed->session_->AttachSharedStore(shared_store,
                                         /*auto_publish=*/false);
  }

  // The daemon state (clock, execution ids, applied ledger) rides the
  // session's WAL commits and snapshot generations; hooks must be in
  // place before OpenStorage so recovery can replay it.
  ManagedSession* raw = managed.get();
  Papyrus::StateHooks hooks;
  hooks.drain = [raw] { return raw->DrainStateJournal(); };
  hooks.section = [raw] { return raw->SerializeState(); };
  hooks.replay = [raw](const std::string& body) {
    return raw->ApplyStateLine(SplitWhitespace(body));
  };
  hooks.restore = [raw](const std::string& text) {
    return raw->RestoreState(text);
  };
  managed->session_->set_state_hooks(std::move(hooks));

  PAPYRUS_RETURN_IF_ERROR(managed->session_->OpenStorage(directory));
  managed->generation_ =
      static_cast<int64_t>(managed->session_->store()->generation());
  // The restored state is durable by definition: start journal tracking
  // from it, and flush publications the crashed incarnation held back
  // (idempotent — whatever its missing flush would have published).
  managed->journaled_clock_ = managed->session_->clock().NowMicros();
  managed->journaled_nextexec_ =
      managed->session_->task_manager().next_execution_id();
  managed->pending_applied_.clear();
  managed->session_->step_cache().FlushSharedPublications();
  PAPYRUS_RETURN_IF_ERROR(managed->ReplayMetadata());

  // Intra-session chaos lands after restore so crash times are relative
  // to the restored virtual clock.
  if (config.fault.seed != 0) {
    managed->fault_plan_ =
        std::make_unique<fault::FaultPlan>(config.fault);
    if (obs.trace != nullptr || obs.metrics != nullptr) {
      managed->fault_plan_->set_observability(obs);
    } else {
      managed->fault_plan_->set_observability(
          managed->session_->observability());
    }
    PAPYRUS_RETURN_IF_ERROR(managed->fault_plan_->Apply(
        &managed->session_->network(), &managed->session_->tools()));
  }
  return managed;
}

Status ManagedSession::ApplyStateLine(
    const std::vector<std::string>& f) {
  if (f.empty()) return Status::OK();
  if (f[0] == "clock" && f.size() == 2) {
    int64_t micros = 0;
    if (!ParseInt64(f[1], &micros)) {
      return Status::Internal("bad clock line in session state");
    }
    // The restored history's timestamps end here; new work must
    // continue from the same virtual instant for byte-identity.
    session_->clock().SetMicros(micros);
    return Status::OK();
  }
  if (f[0] == "nextexec" && f.size() == 2) {
    int64_t next = 0;
    if (!ParseInt64(f[1], &next)) {
      return Status::Internal("bad nextexec line in session state");
    }
    session_->task_manager().set_next_execution_id(
        static_cast<int>(next));
    return Status::OK();
  }
  if (f[0] == "applied" && f.size() == 4) {
    int64_t task_id = 0;
    int64_t thread_id = 0;
    int64_t node_id = 0;
    if (!ParseInt64(f[1], &task_id) || !ParseInt64(f[2], &thread_id) ||
        !ParseInt64(f[3], &node_id)) {
      return Status::Internal("bad applied line in session state");
    }
    applied_[task_id] = {static_cast<int>(thread_id),
                         static_cast<activity::NodeId>(node_id)};
    return Status::OK();
  }
  // Unknown state lines are skipped for forward compatibility.
  return Status::OK();
}

Status ManagedSession::RestoreState(const std::string& state_text) {
  std::istringstream in(state_text);
  std::string line;
  if (!std::getline(in, line) || line != kStateHeader) {
    return Status::Internal("bad session state header for " + name_);
  }
  while (std::getline(in, line)) {
    PAPYRUS_RETURN_IF_ERROR(ApplyStateLine(SplitWhitespace(line)));
  }
  return Status::OK();
}

std::string ManagedSession::SerializeState() const {
  std::ostringstream out;
  out << kStateHeader << '\n';
  out << "clock " << session_->clock().NowMicros() << '\n';
  out << "nextexec " << session_->task_manager().next_execution_id()
      << '\n';
  for (const auto& [task_id, where] : applied_) {
    out << "applied " << task_id << ' ' << where.first << ' '
        << where.second << '\n';
  }
  return out.str();
}

std::vector<std::string> ManagedSession::DrainStateJournal() {
  std::vector<std::string> bodies;
  const int64_t clock_now = session_->clock().NowMicros();
  if (clock_now != journaled_clock_) {
    bodies.push_back("clock " + std::to_string(clock_now));
    journaled_clock_ = clock_now;
  }
  const int next_exec = session_->task_manager().next_execution_id();
  if (next_exec != journaled_nextexec_) {
    bodies.push_back("nextexec " + std::to_string(next_exec));
    journaled_nextexec_ = next_exec;
  }
  for (int64_t task_id : pending_applied_) {
    auto it = applied_.find(task_id);
    if (it == applied_.end()) continue;
    bodies.push_back("applied " + std::to_string(task_id) + " " +
                     std::to_string(it->second.first) + " " +
                     std::to_string(it->second.second));
  }
  pending_applied_.clear();
  return bodies;
}

Status ManagedSession::ReplayMetadata() {
  // Metadata inference state is not persisted; re-observe every restored
  // record in commit order (commit timestamps strictly increase under
  // the serial daemon, so the order is the live observation order).
  struct Entry {
    int64_t micros;
    int thread_id;
    activity::NodeId node_id;
    const task::TaskHistoryRecord* record;
  };
  std::vector<Entry> entries;
  for (int thread_id : session_->activity().ThreadIds()) {
    auto thread = session_->activity().GetThread(thread_id);
    if (!thread.ok()) continue;
    for (const auto& [node_id, node] : (*thread)->nodes()) {
      if (node.is_junction || node.record.task_name.empty()) continue;
      entries.push_back(
          {node.appended_micros, thread_id, node_id, &node.record});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.micros, a.thread_id, a.node_id) <
                     std::tie(b.micros, b.thread_id, b.node_id);
            });
  for (const Entry& e : entries) {
    PAPYRUS_RETURN_IF_ERROR(session_->metadata().Observe(*e.record));
  }
  return Status::OK();
}

Result<activity::NodeId> ManagedSession::AppliedNode(
    int64_t task_id) const {
  auto it = applied_.find(task_id);
  if (it == applied_.end()) {
    return Status::NotFound("task " + std::to_string(task_id) +
                            " not applied in session " + name_);
  }
  return it->second.second;
}

Result<int> ManagedSession::ThreadByName(const std::string& thread_name) {
  for (int id : session_->activity().ThreadIds()) {
    auto thread = session_->activity().GetThread(id);
    if (thread.ok() && (*thread)->name() == thread_name) return id;
  }
  return session_->CreateThread(thread_name);
}

Result<activity::NodeId> ManagedSession::Execute(
    int64_t task_id, const TaskDescription& desc) {
  PAPYRUS_ASSIGN_OR_RETURN(int thread_id, ThreadByName(desc.thread));
  activity::ActivityInvocation inv;
  inv.template_name = desc.template_name;
  inv.input_refs = desc.input_refs;
  inv.output_names = desc.output_names;
  inv.option_overrides = desc.option_overrides;
  inv.seed = desc.seed;
  PAPYRUS_ASSIGN_OR_RETURN(
      activity::NodeId node,
      session_->activity().InvokeTask(thread_id, inv));
  applied_[task_id] = {thread_id, node};
  pending_applied_.push_back(task_id);
  return node;
}

Status ManagedSession::Save() {
  ++saves_since_generation_;
  if (snapshot_interval_ <= 1 ||
      saves_since_generation_ >= snapshot_interval_) {
    PAPYRUS_RETURN_IF_ERROR(session_->SaveGeneration());
    saves_since_generation_ = 0;
  } else {
    // The cheap path that replaces one whole-snapshot rewrite per task:
    // journal the commit's mutations and fsync once.
    PAPYRUS_RETURN_IF_ERROR(session_->CommitWal());
  }
  generation_ = static_cast<int64_t>(session_->store()->generation());
  // The commit is durable (journal-before-effect); derivations it
  // carries may now be shared with other sessions through the
  // content-addressed store.
  session_->step_cache().FlushSharedPublications();
  return Status::OK();
}

Status ManagedSession::Checkpoint() {
  PAPYRUS_RETURN_IF_ERROR(session_->SaveGeneration());
  saves_since_generation_ = 0;
  generation_ = static_cast<int64_t>(session_->store()->generation());
  session_->step_cache().FlushSharedPublications();
  return Status::OK();
}

}  // namespace papyrus::server
