//===- Journal.cpp - Crash-safe search journal ----------------------------===//

#include "src/search/Journal.h"

#include "src/search/PointCodec.h"
#include "src/support/Hashing.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include <sys/stat.h>

namespace locus {
namespace search {

namespace {

void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

/// Parses a JSON string starting at Text[Pos] (which must be '"'); advances
/// Pos past the closing quote.
bool parseJsonString(std::string_view Text, size_t &Pos, std::string &Out) {
  if (Pos >= Text.size() || Text[Pos] != '"')
    return false;
  ++Pos;
  Out.clear();
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (C == '"') {
      ++Pos;
      return true;
    }
    if (C == '\\') {
      if (Pos + 1 >= Text.size())
        return false;
      char E = Text[Pos + 1];
      Pos += 2;
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return false;
        unsigned Code = 0;
        auto R = std::from_chars(Text.data() + Pos, Text.data() + Pos + 4,
                                 Code, 16);
        if (R.ec != std::errc() || R.ptr != Text.data() + Pos + 4)
          return false;
        Pos += 4;
        // Journal strings only escape control bytes this way.
        Out += static_cast<char>(Code);
        break;
      }
      default:
        return false;
      }
      continue;
    }
    Out += C;
    ++Pos;
  }
  return false; // unterminated
}

void skipSpace(std::string_view Text, size_t &Pos) {
  while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
    ++Pos;
}

bool expectChar(std::string_view Text, size_t &Pos, char C) {
  skipSpace(Text, Pos);
  if (Pos >= Text.size() || Text[Pos] != C)
    return false;
  ++Pos;
  return true;
}

bool parseJsonNumber(std::string_view Text, size_t &Pos, double &Out) {
  skipSpace(Text, Pos);
  size_t End = Pos;
  while (End < Text.size() &&
         (std::isdigit(static_cast<unsigned char>(Text[End])) ||
          Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
          Text[End] == 'e' || Text[End] == 'E'))
    ++End;
  if (End == Pos)
    return false;
  auto R = std::from_chars(Text.data() + Pos, Text.data() + End, Out);
  if (R.ec != std::errc() || R.ptr != Text.data() + End)
    return false;
  Pos = End;
  return true;
}

constexpr const char *HeaderTag = "locus-journal v2";

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Builds the single actionable --resume refusal for a header that does not
/// match the current run. The header payload starts at byte 16 (magic 8 +
/// length 4 + CRC 4) of the journal file.
std::string headerMismatchError(const std::string &Path,
                                const JournalHeader &OnDisk,
                                const JournalHeader &Expect) {
  if (OnDisk.SpaceFingerprint != Expect.SpaceFingerprint)
    return "journal " + Path +
           " was written for a different search space (journal header at "
           "byte 16 has space fingerprint 0x" +
           hex16(OnDisk.SpaceFingerprint) + ", this run's space is 0x" +
           hex16(Expect.SpaceFingerprint) +
           "): resuming would replay points into the wrong space; remove "
           "the journal or rerun with the original program";
  return "journal " + Path +
         " was written by a different search configuration (journal header "
         "at byte 16 has config digest 0x" +
         hex16(OnDisk.ConfigDigest) + ", this run's is 0x" +
         hex16(Expect.ConfigDigest) +
         "): searcher or seed changed since the journal was written; remove "
         "the journal or rerun with the original --searcher/--seed";
}

} // namespace

JournalSync parseJournalSync(std::string_view Name, bool &Ok) {
  Ok = true;
  if (Name == "none")
    return JournalSync::None;
  if (Name == "flush")
    return JournalSync::Flush;
  if (Name == "full")
    return JournalSync::Full;
  Ok = false;
  return JournalSync::Full;
}

uint64_t journalConfigDigest(std::string_view SearcherName, uint64_t Seed) {
  return hashCombine(fnv1a(SearcherName), Seed);
}

std::string SearchJournal::encodeHeader(const JournalHeader &H) {
  std::string Out = HeaderTag;
  Out += "\nspace=";
  Out += hex16(H.SpaceFingerprint);
  Out += "\nconfig=";
  Out += hex16(H.ConfigDigest);
  Out += '\n';
  return Out;
}

bool SearchJournal::parseHeader(std::string_view Text, JournalHeader &H) {
  H = JournalHeader{};
  auto TakeLine = [&Text]() -> std::string_view {
    size_t Nl = Text.find('\n');
    std::string_view Line = Text.substr(0, Nl);
    Text = Nl == std::string_view::npos ? std::string_view()
                                        : Text.substr(Nl + 1);
    return Line;
  };
  if (TakeLine() != HeaderTag)
    return false;
  auto ParseField = [&TakeLine](std::string_view Name, uint64_t &Out) {
    std::string_view Line = TakeLine();
    if (Line.substr(0, Name.size()) != Name)
      return false;
    std::string_view Hex = Line.substr(Name.size());
    auto [Ptr, Ec] = std::from_chars(Hex.data(), Hex.data() + Hex.size(), Out,
                                     16);
    return Ec == std::errc() && Ptr == Hex.data() + Hex.size();
  };
  return ParseField("space=", H.SpaceFingerprint) &&
         ParseField("config=", H.ConfigDigest);
}

Expected<SearchJournal>
SearchJournal::open(const std::string &Path, JournalSync Sync,
                    const JournalHeader &Header) {
  support::RecordLogOptions Opts;
  Opts.Header = encodeHeader(Header);
  // Compared structurally below for located diagnostics, not byte-wise.
  Opts.RequireHeaderMatch = false;
  Opts.FsyncEachRecord = Sync == JournalSync::Full;
  support::RecordLogScan Recovery;
  Expected<support::RecordLog> Log =
      support::RecordLog::open(Path, Opts, &Recovery);
  if (!Log.ok())
    return Expected<SearchJournal>::error("cannot open journal: " +
                                          Log.message());
  if (!Recovery.Header.empty()) {
    JournalHeader OnDisk;
    if (!SearchJournal::parseHeader(Recovery.Header, OnDisk))
      return Expected<SearchJournal>::error(
          "journal " + Path +
          " has an unrecognized header (written by an incompatible "
          "version?); remove it to start fresh");
    if (!(OnDisk == Header))
      return Expected<SearchJournal>::error(
          headerMismatchError(Path, OnDisk, Header));
  }
  SearchJournal J;
  J.Log = std::move(*Log);
  return J;
}

Status SearchJournal::append(const EvalRecord &R) {
  if (!Log.isOpen())
    return Status::error("journal is not open");
  return Log.append(encodeLine(R));
}

std::string SearchJournal::encodeLine(const EvalRecord &R) {
  std::string Out = "{\"point\":\"";
  appendEscaped(Out, serializePoint(R.P));
  Out += "\",\"metric\":";
  // Failed records carry an infinite sentinel metric that JSON cannot
  // express; the metric is recomputed from the failure kind on replay.
  double Metric = std::isfinite(R.Metric) ? R.Metric : 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Metric);
  Out += Buf;
  Out += ",\"failure\":\"";
  appendEscaped(Out, failureKindName(R.Failure));
  Out += "\",\"detail\":\"";
  appendEscaped(Out, R.Detail);
  Out += "\"}";
  return Out;
}

Expected<EvalRecord> SearchJournal::decodeLine(const std::string &Line,
                                               const Space &S) {
  std::string_view Text = Line;
  size_t Pos = 0;
  if (!expectChar(Text, Pos, '{'))
    return Expected<EvalRecord>::error("journal line is not a JSON object");

  std::string PointText, FailureName, Detail;
  bool HavePoint = false, HaveMetric = false, HaveFailure = false;
  double Metric = 0;

  while (true) {
    skipSpace(Text, Pos);
    std::string Key;
    if (!parseJsonString(Text, Pos, Key))
      return Expected<EvalRecord>::error("malformed journal key");
    if (!expectChar(Text, Pos, ':'))
      return Expected<EvalRecord>::error("missing ':' in journal line");
    skipSpace(Text, Pos);
    if (Key == "metric") {
      if (!parseJsonNumber(Text, Pos, Metric))
        return Expected<EvalRecord>::error("malformed journal metric");
      HaveMetric = true;
    } else {
      std::string Value;
      if (!parseJsonString(Text, Pos, Value))
        return Expected<EvalRecord>::error("malformed journal value for " +
                                           Key);
      if (Key == "point") {
        PointText = std::move(Value);
        HavePoint = true;
      } else if (Key == "failure") {
        FailureName = std::move(Value);
        HaveFailure = true;
      } else if (Key == "detail") {
        Detail = std::move(Value);
      }
      // Unknown string keys are ignored (forward compatibility).
    }
    skipSpace(Text, Pos);
    if (Pos < Text.size() && Text[Pos] == ',') {
      ++Pos;
      continue;
    }
    break;
  }
  if (!expectChar(Text, Pos, '}'))
    return Expected<EvalRecord>::error("unterminated journal line");
  if (!HavePoint || !HaveMetric || !HaveFailure)
    return Expected<EvalRecord>::error("journal line misses a required key");

  bool KindOk = false;
  FailureKind Kind = parseFailureKind(FailureName, KindOk);
  if (!KindOk)
    return Expected<EvalRecord>::error("unknown failure kind: " + FailureName);

  Expected<Point> P = deserializePoint(PointText, S);
  if (!P.ok())
    return Expected<EvalRecord>::error("journal point does not match space: " +
                                       P.message());

  EvalRecord R;
  R.P = std::move(*P);
  R.Failure = Kind;
  R.Valid = Kind == FailureKind::None;
  R.Metric = R.Valid ? Metric : std::numeric_limits<double>::infinity();
  R.Detail = std::move(Detail);
  return R;
}

Expected<SearchJournal::LoadResult>
SearchJournal::load(const std::string &Path, const Space &S,
                    const JournalHeader *Expect) {
  LoadResult Result;
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || St.st_size == 0)
    return Result; // a missing or empty journal is an empty journal

  // Anything but a record log (a v1 JSONL journal, a file another tool
  // wrote) is refused with "bad magic at byte 0".
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
  if (!Scan.Header.empty()) {
    if (!parseHeader(Scan.Header, Result.Header))
      return Expected<LoadResult>::error(
          "journal " + Path +
          " has an unrecognized header (written by an incompatible "
          "version?); remove it to start fresh");
    if (Expect && !(Result.Header == *Expect))
      return Expected<LoadResult>::error(
          headerMismatchError(Path, Result.Header, *Expect));
  } else if (!Scan.TornTail) {
    return Expected<LoadResult>::error(
        "journal " + Path + " has an empty header; remove it to start "
        "fresh");
  }
  if (Scan.TornTail) {
    Result.DroppedTailLines = 1;
    Result.Warning = "recovered journal " + Path + ": " + Scan.Why +
                     "; dropped the record being written when the run "
                     "died and kept " +
                     std::to_string(Scan.Records.size()) +
                     " intact records";
  }
  for (size_t I = 0; I < Scan.Records.size(); ++I) {
    Expected<EvalRecord> R = decodeLine(Scan.Records[I], S);
    if (!R.ok())
      // The frame's CRC is intact, so this is not disk damage: the
      // journal belongs to another space or another version.
      return Expected<LoadResult>::error(
          "corrupt journal line: record " + std::to_string(I + 1) + " of " +
          Path + ": " + R.message());
    Result.Records.push_back(std::move(*R));
  }
  return Result;
}

} // namespace search
} // namespace locus
