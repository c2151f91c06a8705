#!/usr/bin/env bash
# Fails when a module on the exact solve path, or on the session
# (DELTA) and estimate paths, compiles a comparison to a call instead of
# a machine compare.  Without flambda, [<], [=] and [<>] on values the
# typechecker does not see as ints (or bools, chars)
# call the runtime's polymorphic compare ([caml_lessthan], [caml_equal],
# ...), and [Stdlib.max]/[min] are calls that do the same whatever the
# type; [Int.max]/[Int.min] compile inline.  A first-class [max] is read
# from the bare [camlStdlib] block, so any read of that block fails too;
# handlers for Stdlib's re-exported exceptions ([Not_found], [Failure],
# [End_of_file]) read it as well, which is why these modules use the
# [_opt] functions instead.  Each offending relocation is printed with
# the function that holds it.
#
# usage: .github/machine_compares.sh [BUILD_DIR]   (default _build/default)
set -euo pipefail
build=${1:-_build/default}
modules="congest/Network congest/Primitives core/One_respect core/Exact
  mst/Boruvka_dist mst/Fragments graph/Tree graph/Graph
  treepack/Tree_packing util/Intset graph/Dimacs graph/Handle
  core/Sample_estimate"
status=0
for m in $modules; do
  lib=${m%/*}
  name=${m#*/}
  obj="$build/lib/$lib/.mincut_$lib.objs/native/mincut_${lib}__$name.o"
  if [ ! -f "$obj" ]; then
    echo "$name: no object at $obj (run dune build first)"
    status=1
    continue
  fi
  hits=$(objdump -dr "$obj" | awk -v mod="$name" '
    /^[0-9a-f]+ <[^>]*>:$/ { fn = substr($2, 2, length($2) - 3); next }
    /^[ \t]+[0-9a-f]+: R_/ {
      sym = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", sym)
      if (sym ~ /^caml_(lessthan|lessequal|greaterthan|greaterequal|equal|notequal|compare)$/ \
          || sym ~ /^camlStdlib\.(max|min)_[0-9]+$/ || sym == "camlStdlib")
        print mod ": " fn " calls " sym
    }' | sort | uniq -c)
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "solve path: comparisons above do not compile to machine compares"
fi
exit "$status"
