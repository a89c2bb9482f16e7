#!/usr/bin/env bash
# cryptolint.sh — run the repo's guardedby analyzer over the main module.
#
# cryptolint lives in its own zero-dependency module under tools/analyzers/
# (so the main module stays stdlib-only) and analyzes the repository it is
# pointed at with -dir. This wrapper pins the invocation so CI and developers
# run the identical command:
#
#   scripts/cryptolint.sh              # analyze ./... of the main module
#   scripts/cryptolint.sh ./internal/api/
#   scripts/cryptolint.sh -list        # show the one pass, guardedby
#
# Exit status: 0 clean, 1 findings, 2 load/usage error (same as the binary).
set -euo pipefail

cd "$(dirname "$0")/.."

args=("$@")
if [ ${#args[@]} -eq 0 ]; then
  args=(./...)
fi

exec go -C tools/analyzers run ./cmd/cryptolint -dir ../.. "${args[@]}"
