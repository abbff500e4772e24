#!/usr/bin/env bash
# Fails when a test step of the Makefile or the CI workflow names tests
# that do not exist. Run from the repository root:
#
#   bash scripts/check-run-patterns.sh
#
# Every `go test ... -run '<pattern>' <packages>` command is checked
# (Makefile lines are joined across backslash continuations first;
# `-run '^$'`, which deliberately selects nothing, is skipped). The
# check lists each package argument's tests, examples and fuzz targets
# with `go test -list`, then reports
#   - an alternative of the pattern (split at `|`) that selects no test
#     in any of the command's package arguments, and
#   - a package argument in which the whole pattern selects no test.
# Either one means a renamed or deleted test silently left a smoke
# step checking less than it says. Names are matched with grep -E,
# which agrees with Go's regexp on the plain patterns these steps use.
set -euo pipefail

files=(Makefile .github/workflows/ci.yml)

# commands prints one line per go test command that has a -run
# pattern, as "<file>\t<pattern>\t<package args>".
commands() {
	local f line pat pkgs
	for f in "${files[@]}"; do
		sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$f" |
			grep -E "(go|\\$\(GO\)) test .*-run '" |
			while IFS= read -r line; do
				pat=$(sed -E "s/.*-run '([^']*)'.*/\1/; s/\\$\\$/\$/g" <<<"$line")
				pkgs=$(grep -oE '(^|[[:space:]])\.(/[^[:space:];]*)?' <<<"${line#*-run}" | tr -d ' \t' | tr '\n' ' ' || true)
				printf '%s\t%s\t%s\n' "$f" "$pat" "$pkgs"
			done
	done
}

declare -A listed
# names prints the tests, examples and fuzz targets of package argument
# $1, one per line (cached per argument).
names() {
	if [ -z "${listed[$1]+set}" ]; then
		listed[$1]=$(go test -list . "$1" | grep -E '^(Test|Example|Fuzz)' || true)
	fi
	printf '%s\n' "${listed[$1]}"
}

fail=0
while IFS=$'\t' read -r file pat pkgs; do
	[ "$pat" = '^$' ] && continue
	read -r -a args <<<"$pkgs"
	if [ ${#args[@]} -eq 0 ]; then
		echo "check-run-patterns: $file: -run '$pat' lists no package" >&2
		fail=1
		continue
	fi
	all=""
	for p in "${args[@]}"; do
		got=$(names "$p")
		all+="$got"$'\n'
		if ! grep -qE -- "$pat" <<<"$got"; then
			echo "check-run-patterns: $file: -run '$pat' selects no test in $p" >&2
			fail=1
		fi
	done
	IFS='|' read -r -a alts <<<"$pat"
	for a in "${alts[@]}"; do
		if ! grep -qE -- "$a" <<<"$all"; then
			echo "check-run-patterns: $file: -run '$pat': alternative '$a' selects no test in ${args[*]}" >&2
			fail=1
		fi
	done
done < <(commands)

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check-run-patterns: every -run alternative and package selects a test"
