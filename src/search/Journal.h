//===- Journal.h - Crash-safe search journal --------------------*- C++ -*-===//
///
/// \file
/// An append-only journal of evaluation records. Long tuning runs die —
/// machines reboot, jobs hit walltime, evaluators wedge — and without a
/// journal every assessed variant is lost with them. Each fresh evaluation
/// is appended as one CRC32C-framed record (support::RecordLog; the fields
/// point, verdict, detail in the RecordCodec grammar) and pushed toward
/// stable storage per the configurable JournalSync policy, so at most the
/// record being written when the process died is lost. One run writes a
/// journal at a time: an open journal holds an exclusive flock on
/// "<journal>.owner", and a second live open is refused.
///
/// The "locus-journal v3" run header pins the journal to one search run;
/// --resume refuses a journal of another space, another searcher
/// configuration or another version with a located diagnostic, instead of
/// silently replaying an unrelated run's history into the wrong space.
/// Integrity is checked per record: a torn *tail* (the frame a crashed
/// writer was in the middle of) is discarded with a warning and the resume
/// continues from the intact prefix; a CRC mismatch anywhere earlier is
/// damage and a hard error naming the byte offset. Any other file, such as
/// a plain-JSONL journal of the first format, is refused with a "bad magic
/// at byte 0" error.
///
/// Loaded records feed SearchOptions::Replay, which replays the interrupted
/// run's trajectory through the searcher before fresh evaluations resume.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_JOURNAL_H
#define LOCUS_SEARCH_JOURNAL_H

#include "src/search/RecordCodec.h"
#include "src/search/Search.h"
#include "src/support/Error.h"
#include "src/support/Posix.h"
#include "src/support/RecordLog.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace search {

/// How far append() pushes each record toward stable storage before
/// returning. Appends are unbuffered fd writes, so None reaches the kernel
/// per record (process-crash safe); Full additionally fsyncs per record and
/// survives a machine crash (power loss, panic).
enum class JournalSync : uint8_t {
  None, ///< kernel-buffered writes (process-crash safe)
  Full, ///< fsync per record (machine-crash safe; the default)
};

/// Parses a sync-mode name ("none", "full"); sets Ok=false (and returns
/// Full) on unknown names.
JournalSync parseJournalSync(std::string_view Name, bool &Ok);

/// Identity of the run a journal belongs to, stored in its header.
using JournalHeader = RunHeader;

/// The journal's header tag.
inline constexpr const char *JournalTag = "locus-journal v3";

/// Digest of the search configuration knobs that determine a trajectory.
/// Budget and --jobs are deliberately excluded: a resume legitimately runs
/// with a larger budget, and N-job runs are trajectory-identical to serial
/// ones, so neither invalidates a journal.
uint64_t journalConfigDigest(std::string_view SearcherName, uint64_t Seed);

class SearchJournal {
public:
  /// Opens \p Path for appending, creating it (with \p Header) when absent.
  /// An existing journal is verified — magic, CRCs, header equality with
  /// \p Header — and a torn tail is truncated away. A file that is not a
  /// record log is refused (bad magic at byte 0), and so is a journal
  /// another live SearchJournal holds open.
  static Expected<SearchJournal> open(const std::string &Path,
                                      JournalSync Sync = JournalSync::Full,
                                      const JournalHeader &Header = {});

  /// Appends one record and pushes it toward stable storage per the
  /// configured JournalSync. Internally serialized: concurrent callers
  /// append whole records in call order (the search loop commits batch
  /// results in proposal order, so journal order equals trajectory order
  /// even with a parallel evaluation pool).
  Status append(const EvalRecord &R);

  void close() {
    Log.close();
    Owner = {};
  }

  struct LoadResult {
    std::vector<EvalRecord> Records;
    /// Number of discarded torn tail records (0 or 1): the record the
    /// crashed writer was in the middle of.
    int DroppedTailLines = 0;
    /// Human-readable description of the recovery when DroppedTailLines.
    std::string Warning;
  };

  /// Loads a journal and validates every point against \p Space. A missing
  /// file loads as zero records. Refused with a located, actionable error:
  /// bad magic, a CRC mismatch before the tail, an undecodable record, a
  /// point from another space, or (when \p Expect is non-null) a header
  /// whose fingerprint/digest differs from the current run.
  static Expected<LoadResult> load(const std::string &Path, const Space &S,
                                   const JournalHeader *Expect = nullptr);

  /// Encodes one record payload (no framing).
  static std::string encodeRecord(const EvalRecord &R);

  /// Decodes one record payload; the point is validated against \p Space.
  static Expected<EvalRecord> decodeRecord(std::string_view Payload,
                                           const Space &S);

private:
  support::FileLock Owner; ///< "<journal>.owner", held while open
  support::RecordLog Log;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_JOURNAL_H
