//===- RegionDiscovery.h - Pragma-free optimizable-region discovery -*- C++ -*-===//
///
/// \file
/// Static discovery of optimizable code regions in *unannotated* MiniC, the
/// pass that drops the `#pragma @Locus` requirement: instead of optimizing
/// only what a user marked by hand, the system scans a translation unit for
/// candidate loop nests, triages their legality with the existing `Affine`
/// and `Dependence` analyses (every bail-out carries a located reason — a
/// candidate is never dropped silently), ranks the survivors by a static
/// hotness estimate, and synthesizes exactly the artifacts the rest of the
/// pipeline already consumes:
///
///  - auto-named region labels ("scop0", "scop1", ... in rank order),
///  - injected region blocks on the AST (the unparser re-emits them as
///    `#pragma @Locus loop=NAME` markers, indistinguishable from hand
///    annotations — test-asserted structural equality), and
///  - a generated Fig. 13-style generic Locus optimization program per
///    candidate, so a discovered region flows straight into the existing
///    search/evaluation stack.
///
/// The pipeline mirrors the phoenix Identify -> DependenceAnalysis ->
/// ProgramSlicing pass structure named in ROADMAP.md, restricted to the
/// MiniC world: Identify (structural scan) -> triage (affine bounds,
/// side-effect-free bodies, dependence availability) -> rank (hotness) ->
/// annotate + generate.
///
/// Verdicts:
///  - Selected: structurally sound, dependence information available; the
///    full generic program (interchange/tiling/unroll-and-jam) applies.
///  - Demoted:  annotatable and tunable, but dependence analysis is
///    unavailable (non-affine subscripts, conditionals in the nest); the
///    generic program degrades to its dependence-free arm (unrolling), and
///    the candidate ranks below every Selected one. The reason is located.
///  - Rejected: not a usable region (side-effecting calls, non-affine
///    bounds, non-positive step); never annotated. The reason is located.
///
/// Determinism anchor: annotating a discovered candidate (renamed to the
/// hand-chosen label) produces a program structurally equal to the
/// hand-annotated original, so tuning it replays to the bit-identical
/// search trajectory — same best point, metric and journal record sequence
/// (asserted per searcher in RegionDiscoveryTest).
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_REGIONDISCOVERY_H
#define LOCUS_ANALYSIS_REGIONDISCOVERY_H

#include "src/cir/Ast.h"
#include "src/machine/CacheSim.h"
#include "src/support/Diag.h"
#include "src/support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace locus {
namespace analysis {

/// Per-candidate verdict of the discovery triage.
enum class CandidateVerdict { Selected, Demoted, Rejected };

/// Stable name of a verdict ("selected", "demoted", "rejected").
const char *candidateVerdictName(CandidateVerdict V);

/// One candidate loop nest found by the scan. Candidates are outermost
/// `for` statements not already inside a named `@Locus` region; everything
/// nested below a candidate root belongs to that candidate.
struct NestCandidate {
  /// Position of the root loop in the scan order (preorder over the
  /// program body, descending through plain blocks and `if` branches but
  /// never into loops or named regions). This is the stable identity
  /// annotateRegions() uses to find the loop again in a clone.
  int ScanIndex = 0;

  /// Assigned region label ("scop0", ...), in rank order over annotatable
  /// (Selected + Demoted) candidates; empty for Rejected ones. Callers may
  /// overwrite it before annotateRegions() to pin a specific name (the
  /// determinism tests rename the single candidate to the hand label).
  std::string Name;

  support::SrcLoc Loc;  ///< root loop position
  std::string LoopVar;  ///< root induction variable
  int Depth = 0;        ///< full nest depth (longest chain)
  bool Perfect = false; ///< perfectly nested down to the innermost loop

  CandidateVerdict Verdict = CandidateVerdict::Selected;
  /// Located reason for Demoted / Rejected verdicts (empty for Selected).
  support::Diag Why;

  /// True when DependenceInfo::compute succeeded on the root.
  bool DepAvailable = false;

  // Hotness model (see DESIGN.md "Region discovery").
  /// Product of per-loop trip counts along the deepest chain. Symbolic
  /// bounds are refined by range analysis: a bound whose interval is a
  /// singleton gives the exact trip, a bounded interval gives an
  /// upper-bound estimate, and only fully unbounded bounds fall back to
  /// DiscoveryOptions::SymbolicTrip.
  uint64_t TripProduct = 1;
  /// True when every trip count along the chain is exactly known — from a
  /// compile-time-constant bound or a singleton bound interval; estimates
  /// and SymbolicTrip fallbacks clear it.
  bool TripExact = false;
  /// Estimated distinct bytes touched per nest execution; 0 when unknown
  /// (symbolic bounds or undeclared arrays).
  uint64_t FootprintBytes = 0;
  /// Depth x TripProduct, scaled by the machine-model latency factor of
  /// the footprint when it is known (a nest whose working set spills to a
  /// farther cache level ranks hotter: more cycles to win back).
  double Hotness = 0;
};

/// Options for the discovery scan.
struct DiscoveryOptions {
  /// Machine whose cache hierarchy refines the hotness estimate.
  machine::MachineConfig Machine = machine::MachineConfig::xeonE5v3();
  /// Assumed trip count for loops whose bounds are not compile-time
  /// constants (the symbolic part of the trip-count product).
  uint64_t SymbolicTrip = 64;
};

/// Result of a discovery scan: candidates in rank order plus advisory notes.
struct DiscoveryReport {
  /// Ranked candidates: Selected by descending hotness, then Demoted by
  /// descending hotness, then Rejected in source order.
  std::vector<NestCandidate> Candidates;
  /// Advisory notes (e.g. "no loop nests found", "loop already annotated");
  /// located where possible. Never errors: discovery is advisory.
  std::vector<support::Diag> Notes;
  /// Number of outer loops scanned (candidates + rejected).
  int NumScanned = 0;
  /// Number of loops skipped because they already sit inside a named
  /// `@Locus` region.
  int NumAlreadyAnnotated = 0;

  /// Candidates that can be annotated and tuned (Selected + Demoted), in
  /// rank order, truncated to \p TopN when TopN > 0.
  std::vector<const NestCandidate *> annotatable(int TopN = 0) const;

  /// Human-readable ranked report (the `--discover` output).
  std::string render() const;
};

/// Scans \p P for candidate loop nests. Pure analysis: \p P is not
/// modified. Loops already inside named regions are skipped (with a note);
/// a program with no loops at all yields an empty candidate list and a
/// located advisory note instead of surprising callers.
DiscoveryReport discoverRegions(const cir::Program &P,
                                const DiscoveryOptions &Opts = {});

/// Wraps the root loop of every annotatable candidate (truncated to
/// \p TopN when > 0) in a region block carrying the candidate's Name —
/// exactly the structure the parser builds for a hand-written
/// `#pragma @Locus loop=NAME`. \p P must be the scanned program or a
/// structurally identical clone of it; returns the number of regions
/// injected, or an error when the scan shape no longer matches.
Expected<int> annotateRegions(cir::Program &P, const DiscoveryReport &Report,
                              int TopN = 0);

/// The Fig. 13 generic optimization program (Section V-D) targeting region
/// \p RegionName: interchange + tiling OR unroll-and-jam OR nothing,
/// optional distribution, and unrolling, all guarded by the dependence and
/// shape queries so it degrades gracefully on Demoted candidates.
std::string genericLocusProgram(const std::string &RegionName);

/// genericLocusProgram for one discovered candidate (uses its Name).
std::string genericLocusProgram(const NestCandidate &C);

/// Removes every `#pragma @Locus ...` line (loop/block/endblock markers)
/// from MiniC source text, leaving all other lines — including non-Locus
/// pragmas — untouched. Used to derive unannotated twins of hand-annotated
/// workloads for the discovery determinism tests.
std::string stripLocusRegionPragmas(const std::string &Source);

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_REGIONDISCOVERY_H
