#!/usr/bin/env bash
# Fuzzes every fuzz target of each package given for 30 s, one target at a
# time (go test -fuzz takes one). Fails when a package lists no target, so
# a lane whose targets were renamed or moved cannot pass empty.
#
# Usage: bash .github/fuzz.sh ./internal/rpc/ ./internal/group/ ...
set -euo pipefail
cd "$(dirname "$0")/.."
for pkg in "$@"; do
	targets=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
	if [ -z "$targets" ]; then
		echo "fuzz.sh: $pkg lists no fuzz target" >&2
		exit 1
	fi
	for target in $targets; do
		echo "fuzz.sh: $pkg $target"
		go test -run "^$target\$" -fuzz "^$target\$" -fuzztime 30s "$pkg"
	done
done
