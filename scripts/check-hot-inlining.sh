#!/bin/sh
# Checks that the simulator's interpreter loop keeps its helpers inline.
#
# CompiledProgram::exec<true> and exec<false> (src/eval/Evaluator.cpp) run
# once per instruction of every evaluated variant. Their per-access and
# per-iteration helpers (the lambdas in exec, the CacheSim::Cursor fast path)
# are forced inline, so that the loop's counters, its clock and the cursor
# stay in registers. A helper emitted out of line means that forcing was
# lost, and the simulator's speed would again move with GCC's inlining
# heuristics. This fails on any out-of-line function in the evaluator's
# object that is
#   - nested in exec<true>() or exec<false>() (one of its lambdas),
#   - a member of CacheSim::Cursor, or
#   - a member of CompiledProgram that takes an Access or a Loop.
# Work done once per loop entry or on an error takes none of these and stays
# out of line: enterReduced takes the loop's EntryPlan (its prepared
# subscript checks), not the Loop; outOfBounds takes an array id, not an
# Access; runtimeFail and parallelTime take neither.
#
# Usage: check-hot-inlining.sh NM LIBRARY
#   NM       the nm program
#   LIBRARY  the static locus library; its Evaluator.cpp.o member is checked
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 NM LIBRARY" >&2
  exit 2
fi
NM=$1
LIB=$2

# "LIB:MEMBER:ADDRESS TYPE NAME": keep the defined code symbols of the
# evaluator's member.
syms=$("$NM" -C -A "$LIB" | awk '
  {
    split($1, Where, ":")
    if (Where[2] != "Evaluator.cpp.o" || $2 !~ /^[TtWw]$/) next
    Name = $3
    for (I = 4; I <= NF; ++I) Name = Name " " $I
    print Name
  }')

for Entry in 'exec<true>()' 'exec<false>()'; do
  if ! printf '%s\n' "$syms" |
      grep -qF "locus::eval::detail::CompiledProgram::$Entry"; then
    echo "check-hot-inlining: CompiledProgram::$Entry not found in" \
         "Evaluator.cpp.o of $LIB" >&2
    exit 1
  fi
done

bad=$(printf '%s\n' "$syms" | grep -E \
  -e 'CompiledProgram::exec<(true|false)>\(\)::' \
  -e 'machine::CacheSim::Cursor::' \
  -e 'detail::CompiledProgram::[A-Za-z0-9_]+(<[^>]*>)?\([^)]*detail::(Access|Loop)( const)?[&*]' \
  || true)
if [ -n "$bad" ]; then
  echo "check-hot-inlining: helpers of the interpreter loop emitted out of" \
       "line (see scripts/check-hot-inlining.sh):" >&2
  printf '  %s\n' "$bad" >&2
  exit 1
fi
echo "check-hot-inlining: exec<true> and exec<false> keep their helpers inline"
