#ifndef TCROWD_SERVICE_SNAPSHOT_STORE_H_
#define TCROWD_SERVICE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/answer.h"
#include "data/schema.h"
#include "inference/segment_codec.h"

namespace tcrowd::service {

/// Durability knobs, carried into the engine through InferenceArgs (and so
/// through ServiceConfig::inference). One plain struct, MAGPIE-style, so a
/// checkpoint directory plumbs through every layer in a single hand-off.
struct CheckpointArgs {
  /// Snapshot directory. Empty disables checkpointing entirely (the
  /// default: no persistence subsystem is even constructed).
  std::string directory;

  /// fsync segment files, manifest renames, and journal appends. Leave on
  /// for real durability; tests and benchmarks may clear it to measure the
  /// codec instead of the disk.
  bool fsync = true;

  /// Durable-compaction threshold: when a seal pushes the snapshot past
  /// this many segment files, they are merged into one (amortized O(1)
  /// per answer on the geometric seal schedule), bounding both the
  /// directory's file count and the per-seal manifest rewrite. <= 0
  /// disables durable compaction.
  int max_segment_files = 64;

  /// Owner-scoped snapshot namespace (0 = none). When non-zero the
  /// manifest's schema fingerprint is NamespacedFingerprint(shape, tag), so
  /// a directory written under one tag is refused under any other — the
  /// guard that keeps one shard of a multi-shard layout from silently
  /// restoring a sibling's equally-shaped snapshot (see docs/SHARDING.md).
  uint64_t namespace_tag = 0;

  bool enabled() const { return !directory.empty(); }
};

/// The durable side of the segmented answer log: an append-only snapshot
/// directory holding
///
///   MANIFEST          versioned, checksummed table of contents
///   seg-NNNNNN.bin    one immutable answer block per sealed checkpoint
///   journal.bin       framed tail-answer + retraction records since the
///                     last seal
///
/// Each sealed slice of the log is written once as a new segment file;
/// between seals every ingest-drained batch is appended to the journal,
/// so the durable state always covers everything the engine has absorbed
/// up to its last drain. Past CheckpointArgs::max_segment_files the
/// segment files are merged into one (durable compaction), so the
/// directory's file count — and the manifest each seal rewrites — stays
/// bounded for long-lived services. File names are never reused (a
/// monotonic index), so no write ever lands on a file a published
/// manifest still references; unreferenced leftovers from crashed writes
/// are swept on the next successful Open. The manifest is replaced
/// atomically (write temp + rename), and the journal is only reset AFTER
/// the manifest durably lists the segment covering it — a crash between
/// the two merely leaves journal records that replay skips as
/// already-sealed (their base ids are below the sealed count).
///
/// Recovery (`Open`) refuses loudly instead of guessing: a corrupt or
/// truncated manifest, a segment whose checksum or count disagrees with
/// the manifest, or a format-version/schema-fingerprint mismatch all
/// return a non-OK Status and leave `*recovered` empty. Only the journal
/// tail is forgiving (prefix recovery of whole records), because a torn
/// final append is the expected crash shape. See docs/PERSISTENCE.md.
///
/// Ownership/thread-safety: NOT internally synchronized; the owning
/// engine serializes all calls under its own mutex, as it does for its
/// SegmentedAnswerStore.
class SnapshotStore {
 public:
  /// What Open() recovered from the directory.
  struct RecoveredLog {
    /// The full durable chronological answer log (segments, then journal).
    std::vector<Answer> answers;
    /// Answers recovered from segment files: the sealed prefix of
    /// `answers`.
    size_t sealed_answers = 0;
    /// Log ids of every durable retraction (manifest table ∪ journal
    /// retraction records), sorted and deduplicated, each below
    /// `answers.size()`. The log in `answers` is NOT filtered — the caller
    /// decides which entries are live.
    std::vector<uint64_t> retracted_ids;
    /// True when a torn journal tail was dropped during replay.
    bool journal_truncated = false;
  };

  explicit SnapshotStore(CheckpointArgs args);
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Creates the directory if needed, loads (or initializes) the manifest,
  /// verifies every listed segment, replays the journal, and opens the
  /// journal for appending. Must be called exactly once, before any write.
  /// On error the store is unusable and nothing was recovered. A directory
  /// holding segment/journal data but no manifest is refused, never
  /// reinitialized — whatever deleted the manifest, the answer data is
  /// evidence, not scratch space.
  Status Open(const Schema& schema, int num_rows, RecoveredLog* recovered);

  /// Persists `answers[0, n)` — the newly sealed slice of the log, starting
  /// at global id durable_sealed() — as the next segment file, publishes it
  /// in the manifest, and resets the journal (its records are now covered
  /// by the segment).
  Status PersistSealed(const Answer* answers, size_t n);

  /// Appends one ingest batch (global ids [base_id, base_id + n)) to the
  /// journal.
  Status JournalAppend(uint64_t base_id, const Answer* answers, size_t n);

  /// Appends one retraction record (the global id of the answer being
  /// retracted) to the journal. The retraction is durable as soon as this
  /// returns; the next PersistSealed folds it into the manifest's
  /// retraction table.
  Status JournalRetract(uint64_t log_id);

  /// Answers durable in segment files / in the journal / in total.
  size_t durable_sealed() const { return manifest_.sealed_answers; }
  size_t durable_journaled() const { return journaled_; }
  size_t durable_total() const { return durable_sealed() + journaled_; }

  /// Durable retractions: folded into the manifest / still journal-only.
  size_t manifest_retractions() const { return manifest_.retracted_ids.size(); }
  size_t journal_retractions() const { return journal_retracted_.size(); }

  const std::string& directory() const { return args_.directory; }

  /// Removes every file this layout owns (MANIFEST, journal.bin,
  /// seg-*.bin) from `directory`, so a fresh run can start clean. Static:
  /// usable without (and before) Open. Missing directory is OK.
  static Status WipeDirectory(const std::string& directory);

 private:
  Status WriteManifest();
  /// Atomically replaces journal.bin with `bytes` (tmp + rename + directory
  /// fsync — the same publish discipline as the manifest) and reopens it
  /// for appends. The old journal stays intact on disk until the rename,
  /// so no crash window ever holds the tail's only copy in memory; the
  /// rename's directory fsync also makes the journal's directory entry
  /// durable from its very first creation.
  Status PublishJournal(const std::string& bytes);
  Status SyncFile(std::FILE* f, const std::string& what);
  /// fsync of the snapshot directory itself (publishes renames/creations).
  void SyncDirectory();
  /// Writes `bytes` to `path` (truncating) and flushes/fsyncs per args_.
  Status WriteFileDurable(const std::string& path, const std::string& bytes);
  /// Durably writes one answer block as the next segment file (fresh
  /// name); on success appends its manifest entry (manifest NOT yet
  /// written).
  Status WriteSegmentFile(const Answer* answers, size_t n);
  /// Merges every durable segment file into one (re-reading and
  /// re-verifying them), publishes the single-entry manifest, and deletes
  /// the replaced files. O(sealed answers); amortized by the threshold.
  Status CompactSegments();
  /// Removes seg-*.bin files the manifest does not reference (leftovers
  /// of writes that crashed before publishing). Successful-Open only.
  void SweepOrphanSegments();

  const CheckpointArgs args_;
  SnapshotManifest manifest_;
  std::FILE* journal_ = nullptr;  ///< open for append after Open()
  size_t journaled_ = 0;          ///< answers in the current journal
  /// Retraction ids recorded in the current journal, not yet folded into
  /// the manifest's retraction table.
  std::vector<uint64_t> journal_retracted_;
  size_t next_file_index_ = 0;    ///< monotonic; names are never reused
  bool opened_ = false;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_SNAPSHOT_STORE_H_
