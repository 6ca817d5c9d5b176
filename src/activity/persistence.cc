#include "activity/persistence.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "base/macros.h"
#include "base/thread_annotations.h"
#include "base/strings.h"
#include "storage/log.h"

namespace papyrus::activity {

namespace {

int64_t ParseI64(const std::string& s) {
  int64_t v = 0;
  (void)ParseInt64(s, &v);
  return v;
}

void AppendObjectList(const char* tag, int owner,
                      const std::vector<oct::ObjectId>& ids,
                      std::ostringstream* out) {
  for (const oct::ObjectId& id : ids) {
    *out << tag << ' ' << owner << ' ' << EncField(id.name) << ' '
         << id.version << '\n';
  }
}

// --- format version 2: per-line checksums + stream trailer ---------------

/// Wraps a stream of body lines into a v2 snapshot: `header`, then each
/// body line framed by storage::ChecksumLine, then the
/// `end <count> <hex>` trailer covering the concatenated bodies.
std::string AssembleV2(const std::string& header,
                       const std::string& body_text) {
  std::ostringstream out;
  out << header << '\n';
  std::string stream_text;
  int64_t count = 0;
  for (const std::string& body : Split(body_text, '\n')) {
    if (body.empty()) continue;
    out << storage::ChecksumLine(body) << '\n';
    stream_text += body;
    stream_text += '\n';
    ++count;
  }
  out << "end " << count << ' ' << FormatHex(Fnv1a(stream_text)) << '\n';
  return out.str();
}

/// Every '~'-prefixed (percent-encoded) field must decode strictly; a
/// malformed escape in a line that passed its checksum is still damage.
bool StrictFieldsOk(const std::vector<std::string>& f) {
  for (const std::string& field : f) {
    if (field.empty() || field[0] != '~') continue;
    if (!PercentDecodeStrict(std::string_view(field).substr(1)).ok()) {
      return false;
    }
  }
  return true;
}

struct V2Scan {
  /// Verified record bodies, already field-split.
  std::vector<std::vector<std::string>> records;
  bool clean = false;   // trailer present and it verified
  int64_t dropped = 0;  // record lines lost to damage
};

/// Walks a v2 snapshot and keeps the longest valid prefix: stops at the
/// first line whose checksum (or strict field decoding, or the final
/// trailer) fails, counting everything after as dropped.
V2Scan ScanV2(const std::vector<std::string>& lines) {
  V2Scan scan;
  std::string stream_text;
  auto drop_rest = [&](size_t from) {
    for (size_t k = from; k < lines.size(); ++k) {
      if (!lines[k].empty() && !StartsWith(lines[k], "end ")) {
        ++scan.dropped;
      }
    }
  };
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    if (StartsWith(line, "end ")) {
      std::vector<std::string> f = SplitWhitespace(line);
      uint64_t want = 0;
      scan.clean = f.size() == 3 && ParseHex(f[2], &want) &&
                   ParseI64(f[1]) ==
                       static_cast<int64_t>(scan.records.size()) &&
                   want == Fnv1a(stream_text);
      drop_rest(i + 1);
      return scan;
    }
    auto body = storage::CheckChecksummedLine(line);
    std::vector<std::string> f;
    if (body.ok()) f = SplitWhitespace(*body);
    if (!body.ok() || f.empty() || !StrictFieldsOk(f)) {
      drop_rest(i);
      return scan;
    }
    stream_text += *body;
    stream_text += '\n';
    scan.records.push_back(std::move(f));
  }
  return scan;  // ran off the end without a trailer: truncated
}

/// The version in a snapshot's `<kind> <version>` header. Version 1
/// (no checksums) is no longer read.
Result<int64_t> SnapshotVersion(const std::vector<std::string>& lines,
                                const std::string& kind,
                                int64_t max_version = 2) {
  if (lines.empty()) {
    return Status::InvalidArgument("not a " + kind + " snapshot");
  }
  std::vector<std::string> head = SplitWhitespace(lines[0]);
  if (head.size() != 2 || head[0] != kind) {
    return Status::InvalidArgument("not a " + kind + " snapshot");
  }
  int64_t version = ParseI64(head[1]);
  if (version < 2 || version > max_version) {
    return Status::InvalidArgument("unsupported " + kind + " version " +
                                   head[1]);
  }
  return version;
}

Status ApplyDatabaseRecord(const std::vector<std::string>& f,
                           oct::OctDatabase* db) {
  base::AssertEngineThread("activity::ApplyDatabaseRecord");
  PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectRecord rec, ParseObjectRecord(f));
  return db->RestoreRecord(std::move(rec));
}

void AppendObjectLine(const oct::ObjectRecord& rec,
                      std::ostringstream* out) {
  *out << "object " << EncField(rec.id.name) << ' ' << rec.id.version
       << ' ' << EncField(rec.creator_tool) << ' ' << rec.created_micros
       << ' ' << rec.last_access_micros << ' ' << rec.size_bytes << ' '
       << rec.visible << ' ' << rec.reclaimed << ' ';
  // The payload codec lives in oct/design_data so the content-addressed
  // store and the snapshot format share one byte-exact encoding.
  *out << oct::EncodePayloadText(rec.payload);
}

/// Applies one node-scoped thread-snapshot line (tags `node`, `parents`,
/// `children`, `record`, `rin`, `rout`, `step`, `sin`, `sout`) into an
/// accumulating node map; `*cur` tracks the node the last `node` line
/// opened. Shared by the thread reader and the WAL node-block codec.
Status ApplyNodeTag(const std::vector<std::string>& f,
                    std::map<NodeId, HistoryNode>* nodes,
                    HistoryNode** cur_slot) {
  auto object_of = [](const std::vector<std::string>& g) {
    return oct::ObjectId{DecField(g[2]),
                         static_cast<int>(ParseI64(g[3]))};
  };
  const std::string& tag = f[0];
  if (tag == "node") {
    if (f.size() < 6) return Status::InvalidArgument("bad node line");
    HistoryNode node;
    node.id = static_cast<NodeId>(ParseI64(f[1]));
    node.is_junction = f[2] == "1";
    node.appended_micros = ParseI64(f[3]);
    node.last_access_micros = ParseI64(f[4]);
    node.annotation = DecField(f[5]);
    NodeId id = node.id;
    (*nodes)[id] = std::move(node);
    *cur_slot = &(*nodes)[id];
    return Status::OK();
  }
  HistoryNode* cur = *cur_slot;
  if (cur == nullptr) {
    return Status::InvalidArgument("field before any node: " +
                                   Join(f, " "));
  }
  if (tag == "parents") {
    for (size_t k = 2; k < f.size(); ++k) {
      cur->parents.push_back(static_cast<NodeId>(ParseI64(f[k])));
    }
  } else if (tag == "children") {
    for (size_t k = 2; k < f.size(); ++k) {
      cur->children.push_back(static_cast<NodeId>(ParseI64(f[k])));
    }
  } else if (tag == "record" && f.size() >= 5) {
    cur->record.task_name = DecField(f[2]);
    cur->record.invoke_micros = ParseI64(f[3]);
    cur->record.commit_micros = ParseI64(f[4]);
    if (f.size() >= 6) {
      cur->record.restarts = static_cast<int>(ParseI64(f[5]));
    }
    if (f.size() >= 9) {
      cur->record.steps_lost = ParseI64(f[6]);
      cur->record.steps_retried = ParseI64(f[7]);
      cur->record.backoff_micros_total = ParseI64(f[8]);
    }
    if (f.size() >= 10) {
      cur->record.steps_elided = ParseI64(f[9]);
    }
  } else if (tag == "rin" && f.size() >= 4) {
    cur->record.inputs.push_back(object_of(f));
  } else if (tag == "rout" && f.size() >= 4) {
    cur->record.outputs.push_back(object_of(f));
  } else if (tag == "step" && f.size() >= 10) {
    task::StepRecord step;
    step.step_name = DecField(f[2]);
    step.tool = DecField(f[3]);
    step.invocation = DecField(f[4]);
    step.dispatch_micros = ParseI64(f[5]);
    step.completion_micros = ParseI64(f[6]);
    step.host = static_cast<int>(ParseI64(f[7]));
    step.exit_status = static_cast<int>(ParseI64(f[8]));
    step.message = DecField(f[9]);
    if (f.size() >= 11) {
      step.internal_id = static_cast<int>(ParseI64(f[10]));
    }
    if (f.size() >= 12) {
      step.cache_hit = f[11] == "1";
    }
    cur->record.steps.push_back(std::move(step));
  } else if (tag == "sin" && f.size() >= 4) {
    if (cur->record.steps.empty()) {
      return Status::InvalidArgument("sin before step");
    }
    cur->record.steps.back().inputs.push_back(object_of(f));
  } else if (tag == "sout" && f.size() >= 4) {
    if (cur->record.steps.empty()) {
      return Status::InvalidArgument("sout before step");
    }
    cur->record.steps.back().outputs.push_back(object_of(f));
  } else {
    return Status::InvalidArgument("bad thread line: " + Join(f, " "));
  }
  return Status::OK();
}

/// Emits one node's snapshot line block (shared by the full thread
/// serializer and the WAL node-block codec, so both stay byte-identical).
void AppendNodeLines(const HistoryNode& node, std::ostringstream* outp) {
  std::ostringstream& out = *outp;
  NodeId id = node.id;
  out << "node " << id << ' ' << node.is_junction << ' '
      << node.appended_micros << ' ' << node.last_access_micros << ' '
      << EncField(node.annotation) << '\n';
  if (!node.parents.empty()) {
    out << "parents " << id;
    for (NodeId p : node.parents) out << ' ' << p;
    out << '\n';
  }
  if (!node.children.empty()) {
    out << "children " << id;
    for (NodeId c : node.children) out << ' ' << c;
    out << '\n';
  }
  const task::TaskHistoryRecord& rec = node.record;
  out << "record " << id << ' ' << EncField(rec.task_name) << ' '
      << rec.invoke_micros << ' ' << rec.commit_micros << ' '
      << rec.restarts << ' ' << rec.steps_lost << ' '
      << rec.steps_retried << ' ' << rec.backoff_micros_total << ' '
      << rec.steps_elided << '\n';
  AppendObjectList("rin", id, rec.inputs, &out);
  AppendObjectList("rout", id, rec.outputs, &out);
  for (const task::StepRecord& step : rec.steps) {
    out << "step " << id << ' ' << EncField(step.step_name) << ' '
        << EncField(step.tool) << ' ' << EncField(step.invocation) << ' '
        << step.dispatch_micros << ' ' << step.completion_micros << ' '
        << step.host << ' ' << step.exit_status << ' '
        << EncField(step.message) << ' ' << step.internal_id << ' '
        << step.cache_hit << '\n';
    AppendObjectList("sin", id, step.inputs, &out);
    AppendObjectList("sout", id, step.outputs, &out);
  }
}

/// Emits one cache entry's snapshot line block under `index` (shared by
/// the full cache serializer and the WAL entry codec).
void AppendCacheEntryLines(int64_t index, const cache::CacheEntry& entry,
                           std::ostringstream* outp) {
  std::ostringstream& out = *outp;
  out << "entry " << index << ' ' << EncField(entry.tool) << ' '
      << EncField(entry.tool_version) << ' '
      << EncField(entry.canonical_options) << ' '
      << FormatHex(entry.seed_salt) << ' ' << entry.cost_micros << ' '
      << entry.recorded_micros << '\n';
  AppendObjectList("ein", static_cast<int>(index), entry.inputs, &out);
  for (const cache::CachedOutput& o : entry.outputs) {
    out << "eout " << index << ' ' << EncField(o.id.name) << ' '
        << o.id.version << '\n';
  }
  // v3: the shared-store content key rides along so a restored daemon
  // session can republish its entries (shared hits restore with no
  // key and are never republished).
  if (!entry.content_key.empty()) {
    out << "ckey " << index << ' ' << EncField(entry.content_key) << '\n';
  }
}

/// Applies one cache-entry block line (`entry`/`ein`/`eout`/`ckey`) to
/// `*entry`; an `entry` line starts the entry, so `*entry` must be empty
/// then. Shared by the cache section reader and the WAL entry codec.
Status ApplyCacheEntryLine(const std::vector<std::string>& f, bool ckey_ok,
                           std::optional<cache::CacheEntry>* entry) {
  if (f[0] == "entry" && f.size() >= 8 && !entry->has_value()) {
    cache::CacheEntry e;
    e.tool = DecField(f[2]);
    e.tool_version = DecField(f[3]);
    e.canonical_options = DecField(f[4]);
    if (!ParseHex(f[5], &e.seed_salt)) {
      return Status::InvalidArgument("bad cache salt: " + f[5]);
    }
    e.cost_micros = ParseI64(f[6]);
    e.recorded_micros = ParseI64(f[7]);
    *entry = std::move(e);
  } else if (f[0] == "ein" && f.size() >= 4 && entry->has_value()) {
    (*entry)->inputs.push_back(oct::ObjectId{
        DecField(f[2]), static_cast<int>(ParseI64(f[3]))});
  } else if (f[0] == "eout" && f.size() >= 4 && entry->has_value()) {
    (*entry)->outputs.push_back(cache::CachedOutput{
        oct::ObjectId{DecField(f[2]), static_cast<int>(ParseI64(f[3]))},
        true});
  } else if (f[0] == "ckey" && f.size() >= 3 && ckey_ok &&
             entry->has_value()) {
    (*entry)->content_key = DecField(f[2]);
  } else {
    return Status::InvalidArgument("bad cache line: " + Join(f, " "));
  }
  return Status::OK();
}

/// Accumulates thread-snapshot record lines.
struct ThreadBuilder {
  std::unique_ptr<DesignThread> thread;
  NodeId cursor = kInitialPoint;
  // Nodes are assembled fully before restoration so links and records are
  // complete at insert time.
  std::map<NodeId, HistoryNode> nodes;
  HistoryNode* cur = nullptr;

  Status Apply(const std::vector<std::string>& f, Clock* clock) {
    const std::string& tag = f[0];
    if (tag == "meta") {
      if (f.size() < 5) return Status::InvalidArgument("bad meta line");
      thread = std::make_unique<DesignThread>(
          static_cast<int>(ParseI64(f[1])), DecField(f[2]), clock);
      cursor = static_cast<NodeId>(ParseI64(f[3]));
      thread->set_cache_interval(static_cast<int>(ParseI64(f[4])));
      return Status::OK();
    }
    if (thread == nullptr) {
      return Status::InvalidArgument("thread snapshot missing meta line");
    }
    if (tag == "checkin" && f.size() >= 3) {
      thread->CheckIn(oct::ObjectId{DecField(f[1]),
                                    static_cast<int>(ParseI64(f[2]))});
      return Status::OK();
    }
    return ApplyNodeTag(f, &nodes, &cur);
  }

  /// Drops graph links to nodes that did not survive recovery and falls
  /// the cursor back to the initial point when its node is gone.
  void PruneDanglingLinks() {
    auto missing = [this](NodeId id) { return nodes.count(id) == 0; };
    for (auto& [id, node] : nodes) {
      node.parents.erase(std::remove_if(node.parents.begin(),
                                        node.parents.end(), missing),
                         node.parents.end());
      node.children.erase(std::remove_if(node.children.begin(),
                                         node.children.end(), missing),
                          node.children.end());
    }
    if (cursor != kInitialPoint && missing(cursor)) {
      cursor = kInitialPoint;
    }
  }

  Result<std::unique_ptr<DesignThread>> Finish() {
    if (thread == nullptr) {
      return Status::InvalidArgument("thread snapshot missing meta line");
    }
    for (auto& [id, node] : nodes) {
      PAPYRUS_RETURN_IF_ERROR(thread->RestoreNode(std::move(node)));
    }
    PAPYRUS_RETURN_IF_ERROR(thread->RestoreCursor(cursor));
    return std::move(thread);
  }
};

}  // namespace

std::string SerializeDatabase(const oct::OctDatabase& db) {
  std::ostringstream out;
  // Collect and emit in (name, version) order so restore sees versions
  // sequentially.
  std::map<oct::ObjectId, const oct::ObjectRecord*> ordered;
  db.ForEach([&](const oct::ObjectRecord& rec) {
    ordered[rec.id] = &rec;
  });
  for (const auto& [id, rec] : ordered) {
    AppendObjectLine(*rec, &out);
    out << '\n';
  }
  return AssembleV2("papyrus-db 2", out.str());
}

Status RestoreDatabaseInto(const std::string& text, oct::OctDatabase* db,
                           RestoreStats* stats) {
  std::vector<std::string> lines = Split(text, '\n');
  PAPYRUS_RETURN_IF_ERROR(SnapshotVersion(lines, "papyrus-db").status());
  V2Scan scan = ScanV2(lines);
  for (const std::vector<std::string>& f : scan.records) {
    // The line passed its checksum, so a parse failure here is a format
    // error in intact data — fail loudly rather than "recover".
    PAPYRUS_RETURN_IF_ERROR(ApplyDatabaseRecord(f, db));
  }
  if (stats != nullptr) {
    stats->records_restored +=
        static_cast<int64_t>(scan.records.size());
    stats->records_dropped += scan.dropped;
    stats->truncated |= !scan.clean;
  }
  return Status::OK();
}

Result<std::unique_ptr<oct::OctDatabase>> RestoreDatabase(
    const std::string& text, Clock* clock, RestoreStats* stats) {
  auto db = std::make_unique<oct::OctDatabase>(clock);
  PAPYRUS_RETURN_IF_ERROR(RestoreDatabaseInto(text, db.get(), stats));
  return db;
}

std::string SerializeThread(const DesignThread& thread) {
  std::ostringstream out;
  out << "meta " << thread.id() << ' ' << EncField(thread.name())
      << ' ' << thread.current_cursor() << ' ' << thread.cache_interval()
      << '\n';
  for (const oct::ObjectId& id : thread.checkins()) {
    out << "checkin " << EncField(id.name) << ' ' << id.version
        << '\n';
  }
  for (const auto& [id, node] : thread.nodes()) {
    AppendNodeLines(node, &out);
  }
  return AssembleV2("papyrus-thread 2", out.str());
}

Result<std::unique_ptr<DesignThread>> RestoreThread(
    const std::string& text, Clock* clock, RestoreStats* stats) {
  std::vector<std::string> lines = Split(text, '\n');
  PAPYRUS_RETURN_IF_ERROR(
      SnapshotVersion(lines, "papyrus-thread").status());
  ThreadBuilder builder;
  V2Scan scan = ScanV2(lines);
  for (const std::vector<std::string>& f : scan.records) {
    PAPYRUS_RETURN_IF_ERROR(builder.Apply(f, clock));
  }
  if (!scan.clean) {
    // A dropped suffix may be referenced by surviving nodes: prune those
    // links so the recovered stream is self-consistent.
    builder.PruneDanglingLinks();
  }
  if (stats != nullptr) {
    stats->records_restored = static_cast<int64_t>(scan.records.size());
    stats->records_dropped = scan.dropped;
    stats->truncated = !scan.clean;
  }
  return builder.Finish();
}

std::string SerializeDerivationCache(const cache::DerivationCache& cache) {
  std::ostringstream out;
  int64_t i = 0;
  cache.ForEach([&](const std::string& key,
                    const cache::CacheEntry& entry) {
    (void)key;  // recomputed from the entry's components on restore
    AppendCacheEntryLines(i, entry, &out);
    ++i;
  });
  return AssembleV2("papyrus-cache 3", out.str());
}

Status RestoreDerivationCache(const std::string& text,
                              cache::DerivationCache* cache,
                              RestoreStats* stats) {
  std::vector<std::string> lines = Split(text, '\n');
  PAPYRUS_ASSIGN_OR_RETURN(
      int64_t version,
      SnapshotVersion(lines, "papyrus-cache", /*max_version=*/3));
  // v2 entries simply lack `ckey` lines: they restore with an empty
  // content key (usable locally, never republished to a shared store).
  V2Scan scan = ScanV2(lines);
  std::optional<cache::CacheEntry> pending;
  auto flush = [&]() {
    if (pending.has_value()) {
      (void)cache->Restore(std::move(*pending));
      pending.reset();
    }
  };
  for (const std::vector<std::string>& f : scan.records) {
    if (f[0] == "entry") flush();
    PAPYRUS_RETURN_IF_ERROR(
        ApplyCacheEntryLine(f, /*ckey_ok=*/version >= 3, &pending));
  }
  flush();
  if (stats != nullptr) {
    stats->records_restored = static_cast<int64_t>(scan.records.size());
    stats->records_dropped = scan.dropped;
    stats->truncated = !scan.clean;
  }
  return Status::OK();
}

// --- storage-engine record codecs ----------------------------------------

std::string EncodeObjectRecord(const oct::ObjectRecord& rec) {
  std::ostringstream out;
  AppendObjectLine(rec, &out);
  return out.str();
}

Result<oct::ObjectRecord> ParseObjectRecord(
    const std::vector<std::string>& f) {
  if (f.empty() || f[0] != "object" || f.size() < 9) {
    return Status::InvalidArgument("bad database line: " + Join(f, " "));
  }
  oct::ObjectRecord rec;
  rec.id.name = DecField(f[1]);
  rec.id.version = static_cast<int>(ParseI64(f[2]));
  rec.creator_tool = DecField(f[3]);
  rec.created_micros = ParseI64(f[4]);
  rec.last_access_micros = ParseI64(f[5]);
  rec.size_bytes = ParseI64(f[6]);
  rec.visible = f[7] == "1";
  rec.reclaimed = f[8] == "1";
  PAPYRUS_ASSIGN_OR_RETURN(rec.payload, oct::ParsePayloadFields(f, 9));
  return rec;
}

std::string SerializeDatabaseShard(const oct::OctDatabase& db, int shard) {
  std::ostringstream out;
  // (name, version) order, like the whole-database serializer: restore
  // sees each name's versions sequentially, and the section bytes are
  // independent of hash-map iteration order.
  std::map<oct::ObjectId, const oct::ObjectRecord*> ordered;
  db.ForEachShard(shard, [&](const oct::ObjectRecord& rec) {
    ordered[rec.id] = &rec;
  });
  for (const auto& [id, rec] : ordered) {
    AppendObjectLine(*rec, &out);
    out << '\n';
  }
  return AssembleV2("papyrus-db 2", out.str());
}

std::string EncodeNodeBlock(const HistoryNode& node) {
  std::ostringstream out;
  AppendNodeLines(node, &out);
  return out.str();
}

Status ApplyNodeBlock(const std::string& block, DesignThread* thread) {
  std::map<NodeId, HistoryNode> nodes;
  HistoryNode* cur = nullptr;
  for (const std::string& line : Split(block, '\n')) {
    std::vector<std::string> f = SplitWhitespace(line);
    if (f.empty()) continue;
    PAPYRUS_RETURN_IF_ERROR(ApplyNodeTag(f, &nodes, &cur));
  }
  if (nodes.size() != 1) {
    return Status::InvalidArgument("node block must carry exactly one node");
  }
  return thread->UpsertNode(std::move(nodes.begin()->second));
}

std::string EncodeCacheEntry(const cache::CacheEntry& entry) {
  std::ostringstream out;
  AppendCacheEntryLines(0, entry, &out);
  return out.str();
}

Result<cache::CacheEntry> DecodeCacheEntry(const std::string& block) {
  std::optional<cache::CacheEntry> entry;
  for (const std::string& line : Split(block, '\n')) {
    std::vector<std::string> f = SplitWhitespace(line);
    if (f.empty()) continue;
    if (f[0] == "entry" && entry.has_value()) {
      return Status::InvalidArgument(
          "cache-entry block must carry exactly one entry");
    }
    PAPYRUS_RETURN_IF_ERROR(ApplyCacheEntryLine(f, /*ckey_ok=*/true, &entry));
  }
  if (!entry.has_value()) {
    return Status::InvalidArgument(
        "cache-entry block must carry exactly one entry");
  }
  return std::move(*entry);
}

}  // namespace papyrus::activity
