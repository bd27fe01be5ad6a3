//===- Journal.cpp - Crash-safe search journal ----------------------------===//

#include "src/search/Journal.h"

#include "src/search/PointCodec.h"
#include "src/support/Hashing.h"

#include <sys/stat.h>

namespace locus {
namespace search {

JournalSync parseJournalSync(std::string_view Name, bool &Ok) {
  Ok = Name == "none" || Name == "full";
  return Name == "none" ? JournalSync::None : JournalSync::Full;
}

uint64_t journalConfigDigest(std::string_view SearcherName, uint64_t Seed) {
  return hashCombine(fnv1a(SearcherName), Seed);
}

Expected<SearchJournal>
SearchJournal::open(const std::string &Path, JournalSync Sync,
                    const JournalHeader &Header) {
  SearchJournal J;
  // Claim the journal before touching it: a second live writer must be
  // refused, not interleaved.
  std::string OwnerPath = Path + ".owner";
  auto Owner = support::FileLock::acquire(
      OwnerPath, "journal " + Path + " is held open by another live run");
  if (!Owner.ok())
    return Expected<SearchJournal>::error(
        Owner.message() + "; two runs must not append to one journal — wait "
                          "for the other run or choose another --journal");
  J.Owner = std::move(*Owner);

  support::RecordLogOptions Opts;
  Opts.Header = encodeRunHeader(JournalTag, Header);
  // Compared structurally below for located diagnostics, not byte-wise.
  Opts.RequireHeaderMatch = false;
  Opts.FsyncEachRecord = Sync == JournalSync::Full;
  support::RecordLogScan Recovery;
  Expected<support::RecordLog> Log =
      support::RecordLog::open(Path, Opts, &Recovery);
  if (!Log.ok())
    return Expected<SearchJournal>::error("cannot open journal: " +
                                          Log.message());
  if (!Recovery.Header.empty())
    if (auto H = readRunHeader(Recovery.Header, JournalTag, "journal", Path,
                               &Header);
        !H.ok())
      return Expected<SearchJournal>::error(H.message());
  J.Log = std::move(*Log);
  return J;
}

Status SearchJournal::append(const EvalRecord &R) {
  if (!Log.isOpen())
    return Status::error("journal is not open");
  return Log.append(encodeRecord(R));
}

std::string SearchJournal::encodeRecord(const EvalRecord &R) {
  EvalOutcome Out{R.Metric, R.Failure, R.Detail};
  return RecordWriter().text(serializePoint(R.P)).outcome(Out).take();
}

Expected<EvalRecord> SearchJournal::decodeRecord(std::string_view Payload,
                                                 const Space &S) {
  std::string PointText;
  EvalOutcome Out;
  if (Status St = RecordReader(Payload).text(PointText, "point").outcome(Out)
                      .finish();
      !St.ok())
    return Expected<EvalRecord>::error(St.message());
  Expected<Point> P = deserializePoint(PointText, S);
  if (!P.ok())
    return Expected<EvalRecord>::error("journal point does not match space: " +
                                       P.message());
  EvalRecord R;
  R.P = std::move(*P);
  R.Failure = Out.Failure;
  R.Valid = Out.ok();
  R.Metric = Out.Metric;
  R.Detail = std::move(Out.Detail);
  return R;
}

Expected<SearchJournal::LoadResult>
SearchJournal::load(const std::string &Path, const Space &S,
                    const JournalHeader *Expect) {
  LoadResult Result;
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || St.st_size == 0)
    return Result; // a missing or empty journal is an empty journal

  // Anything but a record log (a JSONL journal of the first format, a file
  // another tool wrote) is refused with "bad magic at byte 0".
  Expected<support::RecordLogScan> ScanOr = support::RecordLog::scan(Path);
  if (!ScanOr.ok())
    return Expected<LoadResult>::error("cannot load journal: " +
                                       ScanOr.message());
  support::RecordLogScan Scan = std::move(*ScanOr);
  if (Scan.MidFileCorruption)
    // Damage with intact records after it: silently resuming from the
    // prefix would replay a different (shorter) history than the run that
    // wrote the journal actually took. Refuse, with the location.
    return Expected<LoadResult>::error(
        "corrupt journal " + Path + ": " + Scan.Why +
        "; records after the damage cannot be trusted — remove the "
        "journal (or restore it from a copy) to proceed");
  // Only a header torn by the crash that created the file may be missing.
  if (!Scan.Header.empty() || !Scan.TornTail)
    if (auto H = readRunHeader(Scan.Header, JournalTag, "journal", Path,
                               Expect);
        !H.ok())
      return Expected<LoadResult>::error(H.message());
  if (Scan.TornTail) {
    Result.DroppedTailLines = 1;
    Result.Warning = "recovered journal " + Path + ": " + Scan.Why +
                     "; dropped the record being written when the run "
                     "died and kept " +
                     std::to_string(Scan.Records.size()) +
                     " intact records";
  }
  for (size_t I = 0; I < Scan.Records.size(); ++I) {
    Expected<EvalRecord> R = decodeRecord(Scan.Records[I], S);
    if (!R.ok())
      // The frame's CRC is intact, so this is not disk damage: the
      // journal belongs to another space or another version.
      return Expected<LoadResult>::error(
          "corrupt journal record " + std::to_string(I + 1) + " of " + Path +
          ": " + R.message());
    Result.Records.push_back(std::move(*R));
  }
  return Result;
}

} // namespace search
} // namespace locus
