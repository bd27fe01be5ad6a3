//===- TestFiles.h - Hermetic scratch files for tests -----------*- C++ -*-===//
///
/// \file
/// Scratch files that cannot collide between tests running in parallel:
/// each TempFile lives in its own mkdtemp directory (support::TempDir),
/// removed with everything in it when the TempFile goes out of scope.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_TESTFILES_H
#define LOCUS_TESTS_TESTFILES_H

#include "src/support/Subprocess.h"

#include <fstream>
#include <sstream>
#include <string>

namespace locus {
namespace test {

/// A not-yet-existing file \p Name inside a fresh private directory.
struct TempFile {
  support::TempDir Dir{"locus-test-"};
  std::string Path;
  explicit TempFile(const std::string &Name) : Path(Dir.path() + "/" + Name) {}
};

/// The whole file as bytes; empty when it cannot be read.
inline std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_TESTFILES_H
