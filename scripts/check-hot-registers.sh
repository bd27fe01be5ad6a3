#!/bin/sh
# Checks that the simulator's interpreter loop keeps its state in registers.
#
# CompiledProgram::exec<true> and exec<false> (src/eval/Evaluator.cpp) jump
# from handler to handler through a table of label addresses. That graph
# gives GCC's register allocator no loop regions to split live ranges in, so
# when an unrelated edit (a branch hint, an inlined entry helper) makes it
# spill the instruction pointer or the cycle total, every handler pays a
# stack access. The AddI handler is the smallest one that touches both: this
# fails when any instruction that the line info attributes to its
# LOCUS_INT_OP(AddI, ...) line, in either exec, addresses (%rsp).
#
# The rule only holds for optimized GCC code, so the test passes a reason to
# skip on other builds, and skips when the object has no line info.
#
# Usage: check-hot-registers.sh OBJDUMP AR LIBRARY SOURCE [SKIP-REASON]
#   OBJDUMP      the objdump program
#   AR           the ar program
#   LIBRARY      the static locus library; its Evaluator.cpp.o is checked
#   SOURCE       src/eval/Evaluator.cpp, to find the AddI line
#   SKIP-REASON  when given, print it and exit 77 (skipped)
set -eu

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
  echo "usage: $0 OBJDUMP AR LIBRARY SOURCE [SKIP-REASON]" >&2
  exit 2
fi
OBJDUMP=$1
AR=$2
LIB=$3
SRC=$4
if [ "$#" -eq 5 ]; then
  echo "check-hot-registers: skipped: $5"
  exit 77
fi

line=$(grep -n 'LOCUS_INT_OP(AddI,' "$SRC" | cut -d: -f1)
if [ -z "$line" ]; then
  echo "check-hot-registers: no LOCUS_INT_OP(AddI, ...) line in $SRC" >&2
  exit 1
fi

obj=$(mktemp)
trap 'rm -f "$obj"' EXIT
"$AR" p "$LIB" Evaluator.cpp.o >"$obj"

# Instruction lines follow the last "FILE:LINE" marker that -l printed; a
# function header names the function they belong to.
"$OBJDUMP" -d -l -C --no-show-raw-insn "$obj" | awk -v Line="$line" '
  /^[0-9a-f]+ <.*>:$/ {
    Fn = ""
    if ($0 ~ /CompiledProgram::exec<true>\(\)/) Fn = "exec<true>"
    if ($0 ~ /CompiledProgram::exec<false>\(\)/) Fn = "exec<false>"
    At = 0
    next
  }
  /^[^ \t].*:[0-9]+( \(discriminator [0-9]+\))?$/ {
    sub(/ \(discriminator [0-9]+\)$/, "")
    if ($0 ~ /Evaluator\.cpp:[0-9]+$/) Marked = 1
    At = $0 ~ ("Evaluator\\.cpp:" Line "$")
    next
  }
  /^ +[0-9a-f]+:\t/ {
    if (Fn == "" || !At) next
    ++Count[Fn]
    if ($0 ~ /\(%rsp/) Spills = Spills "\n  " Fn ":" $0
  }
  END {
    if (!Marked) {
      print "check-hot-registers: skipped: Evaluator.cpp.o has no line info"
      exit 77
    }
    if (!Count["exec<true>"] || !Count["exec<false>"]) {
      print "check-hot-registers: exec<true> or exec<false> has no" \
            " instruction attributed to Evaluator.cpp:" Line > "/dev/stderr"
      exit 1
    }
    if (Spills != "") {
      print "check-hot-registers: the AddI handler (Evaluator.cpp:" Line \
            ") addresses the stack (see scripts/check-hot-registers.sh):" \
            Spills > "/dev/stderr"
      exit 1
    }
    print "check-hot-registers: AddI (Evaluator.cpp:" Line ") has " \
          Count["exec<true>"] " instructions in exec<true> and " \
          Count["exec<false>"] " in exec<false>, none on the stack"
  }'
