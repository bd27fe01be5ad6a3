//===- RecordCodec.h - The one syntax of durable records --------*- C++ -*-===//
///
/// \file
/// Three stores keep evaluation outcomes on disk, each in a
/// support::RecordLog: the search journal, the --cache-dir eval cache and
/// the tuning-service task queue. This module is the only code that turns
/// a string, a number or an outcome into record bytes and back, so one
/// place knows how an outcome reaches disk.
///
/// Field grammar. A record payload is a list of fields separated by tabs.
/// Inside a field a backslash is written "\\", a tab "\t" and a newline
/// "\n"; every other byte stands for itself. Decoding refuses any other
/// escape and a trailing lone backslash. Numbers are strict whole-field
/// std::from_chars reads:
///
///   id       decimal digits only (no sign, space or exponent)
///   hex      exactly 16 hex digits
///   metric   a finite double, written in its shortest round-trip form
///
/// A verdict is two fields, the failure-kind name and the metric; a failed
/// outcome writes metric 0 and reads back the infinite sentinel. An
/// outcome is a verdict followed by the detail text.
///
/// Run header. The journal and the queue pin their file to one search run
/// with the header payload "<tag>\nspace=<hex>\nconfig=<hex>" (the space
/// fingerprint and the searcher-config digest). The eval cache is shared
/// across runs, so its header is the bare tag.
///
///   store        tag                  record fields
///   journal      locus-journal v3     point, verdict, detail
///   eval cache   locus-evalcache v1   key-lo hex, key-hi hex, verdict,
///                                     point key, detail
///   task queue   locus-queue v2       task, id, digest hex, point
///                                     lease|hb, id, epoch, worker
///                                     expire, id, epoch
///                                     result, id, epoch, worker, verdict,
///                                       detail
///                                     quarantine, id, detail
///                                     shutdown
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_RECORDCODEC_H
#define LOCUS_SEARCH_RECORDCODEC_H

#include "src/search/Search.h"
#include "src/support/Error.h"

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace search {

/// Identity of the search run a journal or queue belongs to.
struct RunHeader {
  /// search::Space::fingerprint() of the space the stored points pin.
  uint64_t SpaceFingerprint = 0;
  /// journalConfigDigest() of the searcher configuration.
  uint64_t ConfigDigest = 0;

  bool operator==(const RunHeader &O) const = default;
};

/// The shortest decimal text that reads back as exactly \p V.
std::string formatDouble(double V);

/// Strict std::from_chars read of all of \p S: no space, no trailing text,
/// and no sign for an unsigned \p T.
template <typename T, typename... Base>
bool parseWhole(std::string_view S, T &V, Base... B) {
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, B...);
  return !S.empty() && Ec == std::errc() && Ptr == S.data() + S.size();
}

/// Builds one record payload, field by field. Each call mirrors the
/// RecordReader call that reads the field back (the field name only
/// matters to the reader's diagnostics), so a store can describe a record
/// layout once and walk it with either.
class RecordWriter {
public:
  RecordWriter &text(std::string_view S, const char * = nullptr);
  RecordWriter &id(uint64_t V, const char * = nullptr);
  RecordWriter &hex(uint64_t V, const char * = nullptr);
  RecordWriter &verdict(const EvalOutcome &O);
  RecordWriter &outcome(const EvalOutcome &O) {
    return verdict(O).text(O.Detail);
  }
  std::string take() { return std::move(Out); }

private:
  RecordWriter &field(std::string_view Raw);
  std::string Out;
  bool Empty = true;
};

/// Reads one record payload, field by field, into its arguments. The
/// first malformed or missing field sticks and finish() reports it by
/// position and name; after a failure the arguments hold no meaning.
class RecordReader {
public:
  explicit RecordReader(std::string_view Payload);

  RecordReader &text(std::string &Out, const char *Name);
  RecordReader &id(uint64_t &Out, const char *Name);
  RecordReader &hex(uint64_t &Out, const char *Name);
  RecordReader &verdict(EvalOutcome &Out);
  RecordReader &outcome(EvalOutcome &Out) {
    return verdict(Out).text(Out.Detail, "detail");
  }

  /// Success iff every read succeeded and no field is left over.
  Status finish() const;

private:
  const std::string *next(const char *Name);
  void bad(const char *Name, const char *Want);
  std::vector<std::string> Fields;
  size_t Next = 0;
  std::string Error;
};

/// The header payload for \p Tag and \p H.
std::string encodeRunHeader(std::string_view Tag, const RunHeader &H);

/// Parses the header payload of the \p What store at \p Path. A payload
/// that is not a \p Tag header (another tool's file, an older version) and,
/// when \p Expect is given, a header of another run are refused with one
/// located message naming the file and the header's byte offset.
Expected<RunHeader> readRunHeader(std::string_view Payload,
                                  std::string_view Tag, std::string_view What,
                                  const std::string &Path,
                                  const RunHeader *Expect = nullptr);

/// The located refusal readRunHeader gives when \p OnDisk is not \p Expect.
Status checkRunHeader(const RunHeader &OnDisk, const RunHeader &Expect,
                      std::string_view What, const std::string &Path);

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_RECORDCODEC_H
