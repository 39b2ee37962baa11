#!/usr/bin/env bash
# Runs `cargo test CARGO_ARGS... -- FILTER...` and fails first if any
# FILTER selects no test. `cargo test` exits 0 when a filter matches
# nothing, so a renamed or moved test would otherwise drop out of a
# filtered step without a sound.
#
#   .github/scripts/test-filtered.sh --release --locked -p vne-sim --test proptests -- calendar
set -euo pipefail

cargo_args=()
while [[ $# -gt 0 && $1 != -- ]]; do
  cargo_args+=("$1")
  shift
done
if [[ $# -lt 2 ]]; then
  echo "usage: $0 CARGO_ARGS... -- FILTER..." >&2
  exit 2
fi
shift

for filter in "$@"; do
  listed=$(cargo test "${cargo_args[@]}" -- --list "$filter")
  if ! grep -q ': test$' <<< "$listed"; then
    echo "test filter '$filter' selects no test in: cargo test ${cargo_args[*]}" >&2
    exit 1
  fi
done
cargo test "${cargo_args[@]}" -- "$@"
