//===- RecordCodec.cpp - The one syntax of durable records ----------------===//

#include "src/search/RecordCodec.h"

#include "src/support/RecordLog.h"

#include <cmath>
#include <limits>

namespace locus {
namespace search {

namespace {

constexpr size_t HexDigits = 16;

/// The bytes a field escapes, and the letter after the backslash for each.
constexpr std::string_view Escaped = "\\\t\n", EscapeLetter = "\\tn";

std::string hex16(uint64_t V) {
  std::string Out(HexDigits, '0');
  for (size_t I = HexDigits; I-- > 0; V >>= 4)
    Out[I] = "0123456789abcdef"[V & 15];
  return Out;
}

bool readHex(std::string_view S, uint64_t &V) {
  return S.size() == HexDigits && parseWhole(S, V, 16);
}

/// Where a header diagnostic points: the header payload follows the
/// record-log magic and its length + CRC.
std::string headerLocation(std::string_view What, const std::string &Path) {
  return std::string(What) + " " + Path + ": header at byte " +
         std::to_string(support::RecordLog::headerBlockSize(0));
}

} // namespace

std::string formatDouble(double V) {
  char Buf[32];
  auto [Ptr, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Ptr);
}

//===----------------------------------------------------------------------===//
// RecordWriter
//===----------------------------------------------------------------------===//

RecordWriter &RecordWriter::field(std::string_view Raw) {
  if (!Empty)
    Out += '\t';
  Empty = false;
  Out += Raw;
  return *this;
}

RecordWriter &RecordWriter::text(std::string_view S, const char *) {
  field("");
  for (char C : S) {
    size_t K = Escaped.find(C);
    if (K != std::string_view::npos) {
      Out += '\\';
      C = EscapeLetter[K];
    }
    Out += C;
  }
  return *this;
}

RecordWriter &RecordWriter::id(uint64_t V, const char *) {
  return field(std::to_string(V));
}

RecordWriter &RecordWriter::hex(uint64_t V, const char *) {
  return field(hex16(V));
}

RecordWriter &RecordWriter::verdict(const EvalOutcome &O) {
  field(failureKindName(O.Failure));
  return field(formatDouble(O.ok() ? O.Metric : 0));
}

//===----------------------------------------------------------------------===//
// RecordReader
//===----------------------------------------------------------------------===//

RecordReader::RecordReader(std::string_view Payload) : Fields(1) {
  for (size_t I = 0; I < Payload.size(); ++I) {
    char C = Payload[I];
    if (C == '\t') {
      Fields.emplace_back();
      continue;
    }
    if (C != '\\') {
      Fields.back() += C;
      continue;
    }
    size_t K = ++I < Payload.size() ? EscapeLetter.find(Payload[I])
                                    : std::string_view::npos;
    if (K == std::string_view::npos) {
      Error = "field " + std::to_string(Fields.size()) +
              " has an unknown or unterminated escape at byte " +
              std::to_string(I - 1);
      return;
    }
    Fields.back() += Escaped[K];
  }
}

const std::string *RecordReader::next(const char *Name) {
  if (!Error.empty())
    return nullptr;
  if (Next == Fields.size()) {
    Error = "missing field " + std::to_string(Next + 1) + " (" + Name + ")";
    return nullptr;
  }
  return &Fields[Next++];
}

void RecordReader::bad(const char *Name, const char *Want) {
  Error = "field " + std::to_string(Next) + " (" + Name + ") is not " + Want +
          ": '" + Fields[Next - 1] + "'";
}

RecordReader &RecordReader::text(std::string &Out, const char *Name) {
  if (const std::string *F = next(Name))
    Out = *F;
  return *this;
}

RecordReader &RecordReader::id(uint64_t &Out, const char *Name) {
  if (const std::string *F = next(Name); F && !parseWhole(*F, Out))
    bad(Name, "a decimal id");
  return *this;
}

RecordReader &RecordReader::hex(uint64_t &Out, const char *Name) {
  if (const std::string *F = next(Name); F && !readHex(*F, Out))
    bad(Name, "16 hex digits");
  return *this;
}

RecordReader &RecordReader::verdict(EvalOutcome &Out) {
  if (const std::string *F = next("failure")) {
    bool Known = false;
    Out.Failure = parseFailureKind(*F, Known);
    if (!Known)
      bad("failure", "a failure kind");
  }
  double Metric = 0;
  if (const std::string *F = next("metric");
      F && !(parseWhole(*F, Metric) && std::isfinite(Metric)))
    bad("metric", "a finite number");
  Out.Metric = Out.ok() ? Metric : std::numeric_limits<double>::infinity();
  return *this;
}

Status RecordReader::finish() const {
  if (!Error.empty())
    return Status::error(Error);
  if (Next != Fields.size())
    return Status::error(std::to_string(Fields.size()) +
                         " fields where " + std::to_string(Next) +
                         " are expected");
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Run header
//===----------------------------------------------------------------------===//

std::string encodeRunHeader(std::string_view Tag, const RunHeader &H) {
  return std::string(Tag) + "\nspace=" + hex16(H.SpaceFingerprint) +
         "\nconfig=" + hex16(H.ConfigDigest);
}

Status checkRunHeader(const RunHeader &OnDisk, const RunHeader &Expect,
                      std::string_view What, const std::string &Path) {
  if (OnDisk == Expect)
    return Status::success();
  std::string Remove = "; remove the " + std::string(What);
  if (OnDisk.SpaceFingerprint != Expect.SpaceFingerprint)
    return Status::error(
        headerLocation(What, Path) +
        " pins a different search space (fingerprint 0x" +
        hex16(OnDisk.SpaceFingerprint) + ", this run's is 0x" +
        hex16(Expect.SpaceFingerprint) + "): its points are foreign to this "
        "run" + Remove + " or rerun with the original program");
  return Status::error(
      headerLocation(What, Path) +
      " was written by a different search configuration (config digest 0x" +
      hex16(OnDisk.ConfigDigest) + ", this run's is 0x" +
      hex16(Expect.ConfigDigest) + "): the searcher or seed changed" +
      Remove + " or rerun with the original --search/--seed");
}

Expected<RunHeader> readRunHeader(std::string_view Payload,
                                  std::string_view Tag, std::string_view What,
                                  const std::string &Path,
                                  const RunHeader *Expect) {
  // A header has one canonical text: read both numbers at their fixed
  // offsets, then accept the payload iff it re-encodes byte for byte.
  RunHeader H;
  size_t Space = Tag.size() + 7, Config = Space + HexDigits + 8;
  if (Payload.size() != Config + HexDigits ||
      !readHex(Payload.substr(Space, HexDigits), H.SpaceFingerprint) ||
      !readHex(Payload.substr(Config, HexDigits), H.ConfigDigest) ||
      Payload != encodeRunHeader(Tag, H))
    return Expected<RunHeader>::error(
        headerLocation(What, Path) + " is not a '" + std::string(Tag) +
        "' header (found '" +
        std::string(Payload.substr(0, Payload.find('\n'))) +
        "': written by an incompatible version or another tool?); remove "
        "the " + std::string(What) + " to start fresh");
  if (Expect)
    if (Status S = checkRunHeader(H, *Expect, What, Path); !S.ok())
      return Expected<RunHeader>::error(S.message());
  return H;
}

} // namespace search
} // namespace locus
