#!/bin/sh
# Codegen gate for the per-MAC, per-tap, per-gate and per-apply modules:
# without flambda a comparison the type checker could not specialise
# compiles to a call into OCaml's generic compare, and Stdlib.min/max/
# compare are such calls too.  This disassembles the native objects of
# the modules below (members of the given library archives) and fails
# on any relocation to caml_compare, caml_equal, caml_notequal,
# caml_lessthan, caml_lessequal, caml_greaterthan, caml_greaterequal or
# camlStdlib.{min,max,compare}.  It fails, not skips, without objdump,
# and when a listed module is missing from the archives.
#
# Usage: scripts/check_codegen.sh ARCHIVE.a...
set -eu

modules="Axconv Im2col Depthwise Conv_direct Accumulator Quantization Round
Signedness Lut Bdd Sim Power Circuit"

if ! command -v objdump >/dev/null 2>&1; then
  echo "check_codegen: objdump not found; the codegen gate cannot run" >&2
  exit 1
fi
if [ "$#" -eq 0 ]; then
  echo "usage: $0 ARCHIVE.a..." >&2
  exit 2
fi

dump=$(objdump -dr "$@")

status=0
for m in $modules; do
  if ! printf '%s\n' "$dump" | grep -q "__${m}\.o:[[:space:]]*file format"; then
    echo "check_codegen: no object for module $m in $*" >&2
    status=1
  fi
done

hits=$(printf '%s\n' "$dump" | awk -v modules="$modules" '
  BEGIN { n = split(modules, list, /[[:space:]]+/); for (i = 1; i <= n; i++) gated[list[i]] = 1 }
  / file format / {
    member = $1; sub(/:$/, "", member)
    module = member; sub(/^.*__/, "", module); sub(/\.o$/, "", module)
    next
  }
  module in gated && $2 ~ /^R_/ {
    sym = $NF
    if (sym ~ /^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)([^A-Za-z0-9_]|$)/ ||
        sym ~ /^camlStdlib\.(min|max|compare)_[0-9]+/)
      print member ": " sym
  }')

if [ -n "$hits" ]; then
  echo "check_codegen: generic comparison in a gated module:" >&2
  printf '%s\n' "$hits" | sort | uniq -c >&2
  status=1
fi
exit "$status"
