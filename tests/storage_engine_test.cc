#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/strings.h"
#include "core/papyrus.h"
#include "server/queue.h"
#include "storage/cas.h"
#include "storage/engine.h"
#include "storage/wal.h"

namespace papyrus::storage {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test (re-runs included).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("engine_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Write-ahead log

TEST(WalTest, GroupCommitBatchesAppendsIntoOneSync) {
  std::string dir = FreshDir("wal_batch");
  std::string path = (fs::path(dir) / "wal.log").string();
  WriteAheadLog wal;
  auto opened = wal.Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();

  EXPECT_EQ(wal.Append("object one"), 1u);
  EXPECT_EQ(wal.Append("object two"), 2u);
  EXPECT_EQ(wal.Append("state clock 5"), 3u);
  EXPECT_EQ(wal.buffered_records(), 3u);

  auto bytes = wal.Commit();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0);
  EXPECT_EQ(wal.buffered_records(), 0u);
  EXPECT_EQ(wal.stats().commits, 1);
  EXPECT_EQ(wal.stats().syncs, 1);  // one durability barrier for the batch
  EXPECT_EQ(wal.stats().records_appended, 3);

  // An empty commit is free: no write, no sync.
  auto empty = wal.Commit();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0);
  EXPECT_EQ(wal.stats().syncs, 1);

  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].body, "object one");
  EXPECT_EQ(replay->records[1].body, "object two");
  EXPECT_EQ(replay->records[2].body, "state clock 5");
  EXPECT_EQ(replay->next_seq, 4u);
  EXPECT_FALSE(replay->truncated);
}

TEST(WalTest, UncommittedAppendsAreNotDurable) {
  std::string dir = FreshDir("wal_uncommitted");
  std::string path = (fs::path(dir) / "wal.log").string();
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    wal.Append("committed");
    ASSERT_TRUE(wal.Commit().ok());
    wal.Append("lost in the crash");
    // No commit: the process dies here.
  }
  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].body, "committed");
}

TEST(WalTest, TornTailRecoversLongestValidPrefixAtEveryByteOffset) {
  std::string dir = FreshDir("wal_torn");
  std::string path = (fs::path(dir) / "wal.log").string();
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    for (int i = 0; i < 5; ++i) {
      wal.Append("record number " + std::to_string(i) + " with payload");
    }
    ASSERT_TRUE(wal.Commit().ok());
  }
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 0u);

  // Line boundaries: offset of the first byte after each '\n'. Records
  // are valid exactly when their terminating newline survived.
  std::vector<size_t> boundaries;  // boundaries[i] = end of line i
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_EQ(boundaries.size(), 6u);  // header + 5 records
  const size_t header_end = boundaries[0];

  std::string torn = (fs::path(dir) / "torn.log").string();
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteAll(torn, bytes.substr(0, cut));
    if (cut == 0) {
      // Empty file: a fresh log.
      auto replay = WriteAheadLog::Scan(torn);
      ASSERT_TRUE(replay.ok());
      EXPECT_EQ(replay->records.size(), 0u);
      continue;
    }
    if (cut < header_end) {
      // A torn header is unreachable by crashes (headers land whole via
      // atomic rename; appends never touch them) and is rejected rather
      // than silently treated as empty.
      EXPECT_FALSE(WriteAheadLog::Scan(torn).ok()) << "cut=" << cut;
      continue;
    }
    size_t expected = 0;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) ++expected;
    }
    auto replay = WriteAheadLog::Scan(torn);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    ASSERT_EQ(replay->records.size(), expected) << "cut=" << cut;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(replay->records[i].body,
                "record number " + std::to_string(i) + " with payload");
    }
    const bool at_boundary = boundaries[expected] == cut;
    EXPECT_EQ(replay->truncated, !at_boundary) << "cut=" << cut;
    EXPECT_EQ(replay->dropped_bytes,
              static_cast<int64_t>(cut - boundaries[expected]))
        << "cut=" << cut;

    // Open() truncates the torn tail and the log stays appendable: the
    // next record lands right after the longest valid prefix.
    WriteAheadLog wal;
    auto reopened = wal.Open(torn);
    ASSERT_TRUE(reopened.ok()) << "cut=" << cut;
    wal.Append("post-recovery");
    ASSERT_TRUE(wal.Commit().ok());
    wal.Close();
    auto final = WriteAheadLog::Scan(torn);
    ASSERT_TRUE(final.ok()) << "cut=" << cut;
    ASSERT_EQ(final->records.size(), expected + 1) << "cut=" << cut;
    EXPECT_EQ(final->records.back().body, "post-recovery");
    EXPECT_FALSE(final->truncated);
  }
}

TEST(WalTest, ResetHandsRecordsToTheGenerationAndStaysMonotonic) {
  std::string dir = FreshDir("wal_reset");
  std::string path = (fs::path(dir) / "wal.log").string();
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path).ok());
  wal.Append("a");
  wal.Append("b");
  ASSERT_TRUE(wal.Commit().ok());
  ASSERT_TRUE(wal.Reset(2).ok());  // a snapshot generation owns seq 1..2
  EXPECT_EQ(wal.Append("c"), 3u);  // sequence numbers never reuse
  ASSERT_TRUE(wal.Commit().ok());

  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->base_seq, 2u);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 3u);
  EXPECT_EQ(replay->records[0].body, "c");
  EXPECT_EQ(wal.stats().resets, 1);
}

// ---------------------------------------------------------------------------
// storage::Log under its other owners: the WAL test above, run on a real
// job-queue journal and a real artifact-store journal

/// One real journal written by its owner.
struct JournalCase {
  std::string name;
  std::string file;  // the journal, relative to the owner's directory
  /// Writes `records` through the owner into a fresh directory.
  std::function<void(const std::string& dir,
                     const std::vector<std::string>& records)>
      write;
  /// Reopens the directory; returns the records the owner recovered, in
  /// order.
  std::function<std::vector<std::string>(const std::string& dir)> recover;
  /// Reopens the directory and appends one more record.
  std::function<void(const std::string& dir, const std::string& record)>
      append;
};

JournalCase QueueCase() {
  JournalCase c{"queue", "queue.pjq", nullptr, nullptr, nullptr};
  c.write = [](const std::string& dir,
               const std::vector<std::string>& records) {
    ManualClock clock(0);
    auto queue = server::PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok());
    for (const std::string& r : records) {
      ASSERT_TRUE((*queue)->Enqueue("s", r).ok());
    }
  };
  c.recover = [](const std::string& dir) {
    std::vector<std::string> out;
    ManualClock clock(0);
    auto queue = server::PersistentQueue::Open(dir, &clock);
    EXPECT_TRUE(queue.ok()) << queue.status().message();
    if (queue.ok()) {
      for (const server::QueueTask& t : (*queue)->Tasks()) {
        out.push_back(t.description);
      }
    }
    return out;
  };
  c.append = [](const std::string& dir, const std::string& record) {
    ManualClock clock(0);
    auto queue = server::PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok());
    ASSERT_TRUE((*queue)->Enqueue("s", record).ok());
  };
  return c;
}

JournalCase CasCase(const std::vector<std::string>* keys) {
  JournalCase c{"cas", "cas.journal", nullptr, nullptr, nullptr};
  auto publish = [](ContentStore& store, const std::string& key) {
    ASSERT_TRUE(
        store.Publish(key, CasEntryMeta{"tool", "1", "", 0, 1},
                      {CasPublishOutput{"out", true, "bytes of " + key}})
            .ok());
  };
  c.write = [publish](const std::string& dir,
                      const std::vector<std::string>& records) {
    auto store = ContentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (const std::string& r : records) publish(**store, r);
  };
  // The store has no key listing; probe every key the test ever writes.
  c.recover = [keys](const std::string& dir) {
    std::vector<std::string> out;
    auto store = ContentStore::Open(dir);
    EXPECT_TRUE(store.ok()) << store.status().message();
    if (store.ok()) {
      for (const std::string& key : *keys) {
        if ((*store)->Contains(key)) out.push_back(key);
      }
    }
    return out;
  };
  c.append = [publish](const std::string& dir, const std::string& record) {
    auto store = ContentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    publish(**store, record);
  };
  return c;
}

class JournalTornTailTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JournalTornTailTest, RecoversLongestValidPrefixAtEveryByteOffset) {
  const std::vector<std::string> records = {"rec0", "rec1", "rec2"};
  std::vector<std::string> keys = records;
  keys.push_back("post-recovery");
  const JournalCase c = GetParam() == "queue" ? QueueCase() : CasCase(&keys);
  const std::string golden = FreshDir("torn_" + c.name + "_golden");
  c.write(golden, records);
  const std::string bytes = ReadAll(fs::path(golden) / c.file);
  std::vector<size_t> boundaries;  // end offset of each line
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_EQ(boundaries.size(), records.size());

  const std::string dir = FreshDir("torn_" + c.name);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE(c.name + " cut=" + std::to_string(cut));
    // The owner's other files (blobs, checkpoint) as written, the
    // journal cut short as a crash mid-append leaves it.
    fs::remove_all(dir);
    fs::copy(golden, dir, fs::copy_options::recursive);
    WriteAll(fs::path(dir) / c.file, bytes.substr(0, cut));
    size_t expected = 0;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) ++expected;
    }
    std::vector<std::string> prefix(records.begin(),
                                    records.begin() + expected);
    ASSERT_EQ(c.recover(dir), prefix);

    // The journal stays appendable: the next record lands right after
    // the longest valid prefix and survives the next reopen.
    c.append(dir, "post-recovery");
    prefix.push_back("post-recovery");
    ASSERT_EQ(c.recover(dir), prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Owners, JournalTornTailTest,
                         ::testing::Values("queue", "cas"),
                         [](const auto& info) { return info.param; });

/// True when some framed line of `path` carries a checksum narrower than
/// 16 hex digits.
bool HasUnpaddedChecksum(const fs::path& path) {
  for (const std::string& line : Split(ReadAll(path), '\n')) {
    size_t mark = line.rfind(" !");
    if (mark != std::string::npos && line.size() - mark - 2 < 16) {
      return true;
    }
  }
  return false;
}

// tests/data/journals_unpadded was written by the queue and the artifact
// store before they framed lines through storage::Log: their checksums
// were printed unpadded (`std::hex`), and such files must still load.
TEST(JournalCompatTest, UnpaddedChecksumJournalsStillLoad) {
  const fs::path data =
      fs::path(PAPYRUS_SOURCE_DIR) / "tests" / "data" / "journals_unpadded";
  for (const char* file :
       {"queue/queue.pjq", "queue/queue.pjc", "cas/cas.journal"}) {
    ASSERT_TRUE(HasUnpaddedChecksum(data / file)) << file;
  }
  const std::string dir = FreshDir("journals_unpadded");
  fs::copy(data, dir, fs::copy_options::recursive);

  ManualClock clock(0);
  auto queue =
      server::PersistentQueue::Open((fs::path(dir) / "queue").string(),
                                    &clock);
  ASSERT_TRUE(queue.ok()) << queue.status().message();
  EXPECT_EQ(clock.NowMicros(), 1000);  // the checkpoint's clock
  EXPECT_EQ((*queue)->Tasks().size(), 12u);
  EXPECT_EQ((*queue)->DoneCount(), 2);  // one checkpointed, one journaled
  EXPECT_EQ((*queue)->FailedCount(), 1);
  EXPECT_EQ((*queue)->recovered(), 1);  // the claim left open
  EXPECT_EQ((*queue)->PendingCount(), 9);
  auto failed = (*queue)->Get(2);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->failure, "tool exited 2");
  auto reclaimed = (*queue)->Get(4);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed->attempts, 2);
  EXPECT_EQ(reclaimed->description, "task 4");
  auto next = (*queue)->Enqueue("s11alpha", "task 13");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 13);

  auto store = ContentStore::Open((fs::path(dir) / "cas").string());
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_EQ((*store)->stats().entries, 8);
  for (int i : {1, 2, 8}) {
    auto hit = (*store)->Fetch("s11key" + std::to_string(i));
    ASSERT_TRUE(hit.ok()) << i << ": " << hit.status().message();
    ASSERT_EQ(hit->outputs.size(), 1u);
    EXPECT_EQ(hit->outputs[0].bytes, "bytes " + std::to_string(i));
    EXPECT_EQ(hit->meta.seed_salt, 7u + i);
  }
}

// ---------------------------------------------------------------------------
// Session store: delta snapshots behind a manifest swap

TEST(SessionStoreTest, SaveGenerationRewritesOnlyDirtySections) {
  std::string dir = FreshDir("store_delta");
  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened->layout, SessionStore::Layout::kEmpty);

  ASSERT_TRUE(store
                  .SaveGeneration({{"a", "alpha v1"}, {"b", "beta v1"}},
                                  {"a", "b"})
                  .ok());
  auto files1 = store.CurrentSectionFiles();

  // Only `a` changed: `b`'s file is carried over untouched.
  ASSERT_TRUE(store.SaveGeneration({{"a", "alpha v2"}}, {"a", "b"}).ok());
  auto files2 = store.CurrentSectionFiles();
  EXPECT_EQ(files2["b"], files1["b"]);
  EXPECT_NE(files2["a"], files1["a"]);
  auto a = store.ReadSection("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "alpha v2");
  auto b = store.ReadSection("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "beta v1");
  EXPECT_EQ(store.save_stats().generations, 2);
  EXPECT_EQ(store.save_stats().sections_written, 3);
  EXPECT_EQ(store.save_stats().sections_reused, 1);

  // A section absent from `live` is dropped from the manifest, and
  // pruning leaves exactly the referenced files behind.
  ASSERT_TRUE(store.SaveGeneration({}, {"a"}).ok());
  EXPECT_EQ(store.CurrentSectionFiles().count("b"), 0u);
  EXPECT_TRUE(store.ReadSection("b").status().IsNotFound());
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "wal.log",
                                          "manifest.3", "a.g2"}));
}

// A directory the engine did not write is refused loudly, naming it,
// and left exactly as found: opening it as empty would lose its history.
TEST(SessionStoreTest, RefusesCurrentNamingAPreEngineSnapshotDirectory) {
  std::string dir = FreshDir("legacy_snapdir");
  fs::create_directories(fs::path(dir) / "snap.7");
  WriteAll(fs::path(dir) / "snap.7" / "database.pdb", "papyrus-db 2\n");
  WriteAll(fs::path(dir) / "CURRENT", "snap.7\n");

  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find(dir), std::string::npos)
      << opened.status().message();
  EXPECT_FALSE(store.is_open());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snap.7" / "database.pdb"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "wal.log"));

  // The session layer surfaces the same refusal.
  Papyrus session;
  EXPECT_TRUE(session.OpenStorage(dir).IsFailedPrecondition());
}

TEST(SessionStoreTest, RefusesAFlatDatabaseSnapshotWithoutCurrent) {
  std::string dir = FreshDir("legacy_flat");
  WriteAll(fs::path(dir) / "database.pdb", "papyrus-db 2\n");

  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find(dir), std::string::npos)
      << opened.status().message();
  EXPECT_TRUE(fs::exists(fs::path(dir) / "database.pdb"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "wal.log"));
}

TEST(SessionStoreTest, PruningLeavesForeignSnapshotDirectoriesAlone) {
  std::string dir = FreshDir("prune_foreign");
  SessionStore store;
  ASSERT_TRUE(store.Open(dir).ok());
  fs::create_directories(fs::path(dir) / "snap.3");
  WriteAll(fs::path(dir) / "snap.3" / "database.pdb", "kept");
  ASSERT_TRUE(store.SaveGeneration({{"s", "v1"}}, {"s"}).ok());
  ASSERT_TRUE(store.SaveGeneration({{"s", "v2"}}, {"s"}).ok());
  EXPECT_EQ(ReadAll(fs::path(dir) / "snap.3" / "database.pdb"), "kept");
}

TEST(SessionStoreTest, ReopenReplaysOnlyWalRecordsAboveTheManifestBase) {
  std::string dir = FreshDir("store_reopen");
  {
    SessionStore store;
    ASSERT_TRUE(store.Open(dir).ok());
    store.AppendWal("compacted one");
    store.AppendWal("compacted two");
    ASSERT_TRUE(store.CommitWal().ok());
    ASSERT_TRUE(store.SaveGeneration({{"s", "section text"}}, {"s"}).ok());
    store.AppendWal("tail record");
    ASSERT_TRUE(store.CommitWal().ok());
    store.AppendWal("never committed");  // dies with the process
  }
  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened->layout, SessionStore::Layout::kEngine);
  EXPECT_EQ(opened->generation, 1u);
  ASSERT_EQ(opened->sections.size(), 1u);
  EXPECT_EQ(opened->sections.at("s"), "section text");
  // Records the generation already owns are filtered out; only the tail
  // that postdates the manifest replays.
  ASSERT_EQ(opened->wal.size(), 1u);
  EXPECT_EQ(opened->wal[0].body, "tail record");
}

TEST(SessionStoreTest, CrashMatrixLeavesAConsistentStoreAtEveryPoint) {
  const SessionStore::CrashPoint points[] = {
      SessionStore::CrashPoint::kAfterWalCommit,
      SessionStore::CrashPoint::kAfterShardWrite,
      SessionStore::CrashPoint::kBeforeManifestSwap,
      SessionStore::CrashPoint::kAfterManifestSwap,
      SessionStore::CrashPoint::kAfterWalReset,
  };
  for (SessionStore::CrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    std::string dir =
        FreshDir("store_crash_" + std::to_string(static_cast<int>(point)));
    {
      SessionStore store;
      ASSERT_TRUE(store.Open(dir).ok());
      ASSERT_TRUE(
          store.SaveGeneration({{"a", "a1"}, {"b", "b1"}}, {"a", "b"})
              .ok());
      store.AppendWal("delta one");
      store.AppendWal("delta two");
      if (point == SessionStore::CrashPoint::kAfterWalCommit) {
        // This point lives on the commit path: the crash lands after the
        // sync, so the deltas are durable but unacknowledged.
        store.set_crash_hook(
            [point](SessionStore::CrashPoint at) { return at != point; });
        Status st = store.CommitWal().status();
        EXPECT_TRUE(st.IsAborted()) << st.ToString();
      } else {
        ASSERT_TRUE(store.CommitWal().ok());
        // Crash at `point` during the next compaction.
        store.set_crash_hook(
            [point](SessionStore::CrashPoint at) { return at != point; });
        Status st = store.SaveGeneration({{"a", "a2"}}, {"a", "b"});
        EXPECT_TRUE(st.IsAborted()) << st.ToString();
      }
      // The dead incarnation writes nothing further.
    }

    SessionStore store;
    auto opened = store.Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(opened->layout, SessionStore::Layout::kEngine);
    EXPECT_FALSE(opened->wal_truncated);
    const bool swapped =
        point == SessionStore::CrashPoint::kAfterManifestSwap ||
        point == SessionStore::CrashPoint::kAfterWalReset;
    if (swapped) {
      // The swap landed: generation 2 is authoritative and the WAL tail
      // it absorbed no longer replays (its records are <= the base).
      EXPECT_EQ(opened->generation, 2u);
      EXPECT_EQ(opened->sections.at("a"), "a2");
      EXPECT_EQ(opened->sections.at("b"), "b1");
      EXPECT_EQ(opened->wal.size(), 0u);
    } else {
      // The swap never landed: generation 1 plus the committed WAL tail
      // is authoritative; half-written generation-2 files are garbage.
      EXPECT_EQ(opened->generation, 1u);
      EXPECT_EQ(opened->sections.at("a"), "a1");
      EXPECT_EQ(opened->sections.at("b"), "b1");
      ASSERT_EQ(opened->wal.size(), 2u);
      EXPECT_EQ(opened->wal[0].body, "delta one");
      EXPECT_EQ(opened->wal[1].body, "delta two");
    }
    // Either way the store keeps working: the next compaction succeeds
    // and prunes whatever the crash left behind.
    ASSERT_TRUE(store.SaveGeneration({{"a", "a3"}}, {"a", "b"}).ok());
    auto a = store.ReadSection("a");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, "a3");
    auto b = store.ReadSection("b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, "b1");
  }
}

// ---------------------------------------------------------------------------
// Full-session crash matrix: byte-identical recovery through Papyrus

/// Compacts and returns every live section's bytes, keyed by name.
/// Section *texts* are the recovery invariant; generation numbers and
/// file names legitimately differ between crashy and crash-free runs.
std::map<std::string, std::string> SectionFingerprint(Papyrus& session) {
  std::map<std::string, std::string> fp;
  EXPECT_TRUE(session.SaveGeneration().ok());
  for (const auto& [name, file] : session.store()->CurrentSectionFiles()) {
    auto text = session.store()->ReadSection(name);
    EXPECT_TRUE(text.ok()) << name << ": " << text.status().message();
    fp[name] = text.ok() ? *text : "<unreadable>";
  }
  return fp;
}

/// The deterministic workload both runs execute: two committed phases
/// with a compaction between them, so the crash lands on a store that
/// has both a manifest and a WAL tail.
void RunWorkloadPhase1(Papyrus& session) {
  int thread = session.CreateThread("Shifter");
  ASSERT_TRUE(session
                  .Invoke(thread, "Create_Logic_Description", {},
                          {"shifter.logic"})
                  .ok());
  ASSERT_TRUE(session.CommitWal().ok());
}

void RunWorkloadPhase2(Papyrus& session) {
  ASSERT_TRUE(session
                  .Invoke(1, "Standard_Cell_Place_and_Route",
                          {"shifter.logic"}, {"shifter.layout"})
                  .ok());
  ASSERT_TRUE(
      session.CheckInObject("/proj/notes", oct::TextData{"run 100"}).ok());
  ASSERT_TRUE(session.CommitWal().ok());
}

TEST(StorageEngineSessionTest, CrashMatrixRecoversByteIdenticalSessions) {
  // Crash-free reference.
  std::map<std::string, std::string> reference;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(FreshDir("session_reference")).ok());
    RunWorkloadPhase1(session);
    ASSERT_TRUE(session.SaveGeneration().ok());
    RunWorkloadPhase2(session);
    reference = SectionFingerprint(session);
  }
  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(reference.count("thread/1"), 1u);

  const SessionStore::CrashPoint points[] = {
      SessionStore::CrashPoint::kAfterWalCommit,
      SessionStore::CrashPoint::kAfterShardWrite,
      SessionStore::CrashPoint::kBeforeManifestSwap,
      SessionStore::CrashPoint::kAfterManifestSwap,
      SessionStore::CrashPoint::kAfterWalReset,
  };
  for (SessionStore::CrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    std::string dir = FreshDir("session_crash_" +
                               std::to_string(static_cast<int>(point)));
    {
      Papyrus session;
      ASSERT_TRUE(session.OpenStorage(dir).ok());
      RunWorkloadPhase1(session);
      ASSERT_TRUE(session.SaveGeneration().ok());
      RunWorkloadPhase2(session);
      session.store()->set_crash_hook(
          [point](SessionStore::CrashPoint at) { return at != point; });
      EXPECT_TRUE(session.SaveGeneration().IsAborted());
    }
    // The next incarnation recovers from manifest + WAL tail and must be
    // byte-identical to the crash-free run, section for section.
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    std::map<std::string, std::string> recovered =
        SectionFingerprint(session);
    ASSERT_EQ(recovered.size(), reference.size());
    for (const auto& [name, bytes] : reference) {
      ASSERT_EQ(recovered.count(name), 1u) << "missing section " << name;
      EXPECT_EQ(recovered[name], bytes) << "section " << name
                                        << " diverged";
    }
  }
}

}  // namespace
}  // namespace papyrus::storage
