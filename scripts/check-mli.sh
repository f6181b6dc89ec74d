#!/bin/sh
# Interface check: every module under lib/ has an .mli, and no file under
# lib/ silences the unused-value warning (32). Without an interface every
# top-level value is exported, so the compiler never reports one as dead.
#
#   scripts/check-mli.sh      (part of: make check)
#
# Prints each offending file and exits 1 if there is any.
set -eu

cd "$(dirname "$0")/.."
status=0
for ml in $(find lib -name '*.ml' | sort); do
  if [ ! -f "${ml}i" ]; then
    echo "no interface: $ml" >&2
    status=1
  fi
done
# [@warning "-32"] and its kin in source, or -w ...-32 in a dune file
silenced=$(grep -rlE \
  -e 'warning[[:space:]]*"[^"]*-(32|unused-value-declaration)' \
  -e '-w[[:space:]]+[^)]*-32' lib || true)
for f in $silenced; do
  echo "silences warning 32: $f" >&2
  status=1
done
exit $status
