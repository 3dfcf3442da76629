#!/usr/bin/env bash
# Fails when a `go test -run '<regex>' <packages>` lane of ci.yml — or one
# alternative of its regex — selects no test or fuzz target. The lanes pick
# them by name, so a renamed or deleted one would otherwise empty a lane
# silently.
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
while IFS= read -r line; do
	regex=$(sed -E "s/.*-run '([^']+)'.*/\1/" <<<"$line")
	pkgs=$(sed -E "s/.*-run '[^']+'//" <<<"$line" | tr ' ' '\n' | grep -E '^\.(/|$)' | tr '\n' ' ')
	# shellcheck disable=SC2086 # pkgs is a word list
	names=$(go test -list "$regex" $pkgs | grep -E '^(Test|Fuzz)' || true)
	for alt in ${regex//|/ }; do
		if ! grep -qE "$alt" <<<"$names"; then
			echo "ci.yml: -run '$regex' $pkgs: no test matches '$alt'" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" .github/workflows/ci.yml)
exit $status
