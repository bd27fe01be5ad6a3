//===- Golden.h - Golden files under tests/data -----------------*- C++ -*-===//
///
/// \file
/// One harness for every golden file: read it, compare a test's lines with
/// it (a mismatch names the first differing line by file and line number),
/// and rewrite it in place when the environment variable LOCUS_WRITE_GOLDEN
/// is set. A golden's records are its lines that are neither blank nor a
/// '#' comment; a rewrite keeps the file's leading comment lines.
///
/// Regenerating every golden (only when a change to the facts they pin is
/// intended):
///
///   LOCUS_WRITE_GOLDEN=1 build/tests/locus_tests --gtest_filter='*Golden*'
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_GOLDEN_H
#define LOCUS_TESTS_GOLDEN_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace locus {
namespace test {

/// \p S with backslash, tab and newline escaped, so it fits one
/// tab-separated golden field.
inline std::string escapeField(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

class Golden {
public:
  /// Loads tests/data/\p Name; a missing file has no records.
  explicit Golden(const std::string &Name)
      : Path(LOCUS_TEST_DATA_DIR "/" + Name) {
    std::ifstream In(Path);
    std::string Line;
    for (size_t No = 1; std::getline(In, Line); ++No) {
      if (Line.empty() || Line[0] == '#') {
        if (Records.empty() && !Line.empty())
          Header.push_back(Line);
        continue;
      }
      Records.push_back(Line);
      LineNos.push_back(No);
    }
  }

  const std::string &path() const { return Path; }
  const std::vector<std::string> &records() const { return Records; }

  /// Expects \p Got to equal records [Begin, End). A difference fails
  /// once, naming the first mismatching line and how many differ; \p What
  /// says which run produced \p Got.
  void expectRecords(const std::vector<std::string> &Got, size_t Begin,
                     size_t End, const std::string &What = "") const {
    size_t Want = End - Begin, Common = std::min(Got.size(), Want);
    size_t Differing = std::max(Got.size(), Want) - Common, First = Common;
    for (size_t I = 0; I < Common; ++I)
      if (Got[I] != Records[Begin + I]) {
        First = std::min(First, I);
        ++Differing;
      }
    if (Differing == 0)
      return;
    std::string Line = Begin + First < Records.size()
                           ? std::to_string(LineNos[Begin + First])
                           : "end of file";
    ADD_FAILURE() << What << (What.empty() ? "" : ": ") << Differing << " of "
                  << Want << " golden lines differ; first at " << Path << ":"
                  << Line << "\n  golden: "
                  << (First < Want ? Records[Begin + First] : "(none)")
                  << "\n  got:    "
                  << (First < Got.size() ? Got[First] : "(none)");
  }

  /// Whether LOCUS_WRITE_GOLDEN asks for goldens to be rewritten.
  static bool rewriting() { return std::getenv("LOCUS_WRITE_GOLDEN"); }

  /// Rewrites the file: its leading comment lines, then \p Got.
  void rewrite(const std::vector<std::string> &Got) const {
    std::ofstream F(Path, std::ios::trunc);
    for (const std::string &L : Header)
      F << L << "\n";
    for (const std::string &L : Got)
      F << L << "\n";
    EXPECT_TRUE(F.good()) << Path;
  }

private:
  std::string Path;
  std::vector<std::string> Header; ///< leading '#' lines
  std::vector<std::string> Records;
  std::vector<size_t> LineNos; ///< 1-based file line of each record
};

/// Compares \p Got with golden \p Name, or, when LOCUS_WRITE_GOLDEN is
/// set, rewrites the golden with it and skips the test.
inline void expectGolden(const std::string &Name,
                         const std::vector<std::string> &Got) {
  Golden G(Name);
  if (Golden::rewriting()) {
    G.rewrite(Got);
    GTEST_SKIP() << "wrote " << Got.size() << " golden lines to " << G.path();
  }
  G.expectRecords(Got, 0, G.records().size());
}

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_GOLDEN_H
