//===- CliOptions.h - The locus_cli option table ----------------*- C++ -*-===//
///
/// \file
/// The command line of the Locus tool, declared once: every flag is one
/// CliFlag entry in a static table (name, value placeholder, the modes it
/// applies to, one help line, a setter that parses the value). Parsing, the
/// --help text and the argv a serve-mode coordinator spawns its workers
/// with all derive from it. A flag missing its value, with a malformed or
/// out-of-range value, unknown, or given in a mode it does not apply to is
/// refused with an error naming the flag. A worker replays exactly the
/// coordinator's tokens for the flags that apply in worker mode (the ones
/// that shape the variant objective), so it builds the identical objective.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_DRIVER_CLIOPTIONS_H
#define LOCUS_DRIVER_CLIOPTIONS_H

#include "src/driver/Orchestrator.h"
#include "src/support/Error.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace driver {

/// What one invocation does, in ascending precedence: when the given flags
/// select several modes, the last one in this order wins and the flags
/// that do not apply in it are refused.
enum class CliMode : uint8_t {
  Search,      ///< search or direct workflow (the default)
  Lint,        ///< static diagnostics
  RaceCheck,   ///< parallel-safety report
  Serve,       ///< search through a worker fleet
  Worker,      ///< evaluate a coordinator's queued tasks
  Discover,    ///< pragma-free region discovery, optionally tuned
  BoundsCheck, ///< static bounds proofs
  Dump,        ///< record-log inspection
};
constexpr int NumCliModes = 8;

using CliModeSet = uint32_t;
constexpr CliModeSet modeBit(CliMode M) {
  return CliModeSet(1) << static_cast<unsigned>(M);
}
/// "search", "serve", "bounds-check", ...
const char *cliModeName(CliMode M);

struct CliOptions;

/// One command-line flag.
struct CliFlag {
  const char *Name;
  /// Value placeholder ("N", "FILE", "xeon|tiny"); nullptr for a switch.
  const char *Value;
  /// Modes the flag applies to.
  CliModeSet Modes;
  const char *Help;
  /// Records the flag and its value; nullptr when it only selects a mode.
  Status (*Set)(CliOptions &O, std::string_view Value);
  /// The mode the flag selects; Search (the default mode) selects nothing.
  CliMode Selects = CliMode::Search;
  /// Modes in which the flag must be given.
  CliModeSet RequiredIn = 0;
};

/// The parsed command line.
struct CliOptions {
  CliMode Mode = CliMode::Search;
  OrchestratorOptions Opts;
  std::string ProgramPath, SourcePath;
  std::string PointPath, EmitC, ExportDirect, ExportPoint;
  std::string WorkerId;
  /// The record log (or queue directory, when DumpQueue) to dump.
  std::string DumpPath;
  bool DumpQueue = false;
  bool Direct = false, Native = false, LintStrict = false, Tune = false;
  bool Help = false;
  int DiscoverTop = 0;
  /// Tokens (values included) of every given flag that applies in worker
  /// mode, in command-line order.
  std::vector<std::string> WorkerArgs;
};

std::span<const CliFlag> cliFlags();

/// Parses a full argv (Argv[0] is the program name). A --help anywhere
/// returns at once with Help set.
Expected<CliOptions> parseCli(int Argc, const char *const *Argv);

/// One synopsis line per mode.
std::string cliUsage(std::string_view Argv0);

/// The synopsis plus one line per flag with the modes it applies to.
std::string cliHelp(std::string_view Argv0);

/// The argv of a spawned worker: \p Exe, the two paths, the worker-mode
/// selector and the coordinator's WorkerArgs.
std::vector<std::string> workerArgv(const CliOptions &O,
                                    const std::string &Exe);

} // namespace driver
} // namespace locus

#endif // LOCUS_DRIVER_CLIOPTIONS_H
