#!/usr/bin/env bash
# Compares one perfbench workload between a parent checkout and this
# checkout in alternating pairs. Run from the repository root:
#
#   bash scripts/perf-compare.sh <parent-checkout> <workload> [pairs]
#
# Each side is built by its own perfbench/run.sh into its own
# .bench_build. Pair i runs both sides with --seed i --seconds 6
# --trace 0, the parent first in even pairs and the change first in odd
# ones. The metrics compared are BENCHMARK.json's end_to_end list, with
# each metric's better direction and bound read from it (needs jq).
# The script prints every run's JSON report, then per pair and metric
# both sides' values, then per metric both medians, the change in %,
# the parent's interquartile range and how many pairs the change won
# in the metric's better direction (ties count for neither side). A
# metric whose change median is worse than the parent's by more than
# its bound (a fraction of the parent median) is marked REGRESSION.
# The script exits 1 if any run is not correct or reports a failed
# cell.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-checkout> <workload> [pairs=10]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(pwd)
workload=$2
pairs=${3:-10}
# "name better bound" per end-to-end metric.
specs=$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$change/BENCHMARK.json")
metrics=$(printf '%s\n' "$specs" | cut -d' ' -f1)

# build runs a side's run.sh with -h: it builds the binary, then the
# binary prints its usage and exits 2. The old binary is removed first,
# so a failed build is not masked by one left from an earlier build.
build() {
	rm -f "$1/.bench_build/perfbench"
	(cd "$1" && bash perfbench/run.sh -h >/dev/null 2>&1) || true
	if [ ! -x "$1/.bench_build/perfbench" ]; then
		echo "perf-compare: building perfbench in $1 failed" >&2
		exit 1
	fi
}
build "$parent"
build "$change"

results=$(mktemp)
trap 'rm -f "$results"' EXIT

# measure runs one side and appends "side pair metric value" lines.
measure() {
	local side=$1 dir=$2 pair=$3 line
	line=$(cd "$dir" && .bench_build/perfbench --workload "$workload" --seed "$pair" \
		--seconds 6 --trace 0 | tail -n 1) || true
	if ! printf '%s\n' "$line" | jq -e '.correct == true and .failed == 0' >/dev/null 2>&1; then
		echo "perf-compare: $side pair $pair is not correct: $line" >&2
		exit 1
	fi
	echo "$side pair $pair: $line"
	printf '%s\n' "$line" | jq -r --arg side "$side" --arg pair "$pair" --arg names "$metrics" \
		'.metrics as $m | $names | split("\n")[] | "\($side) \($pair) \(.) \($m[.].value // "nan")"' >>"$results"
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		measure parent "$parent" "$i"
		measure change "$change" "$i"
	else
		measure change "$change" "$i"
		measure parent "$parent" "$i"
	fi
	for m in $metrics; do
		awk -v i="$i" -v m="$m" '$2 == i && $3 == m { v[$1] = $4 }
			END { printf "pair %d seed %d %s parent %s change %s\n", i, i, m, v["parent"], v["change"] }' "$results"
	done
done

printf '%s\n' "$specs" | while read -r m better bound; do
	awk -v m="$m" -v better="$better" -v bound="$bound" '
		function sorted(a, n, s,   i, j, t) {
			for (i = 1; i <= n; i++) s[i] = a[i]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
		}
		function pct(s, n, p,   pos, lo) {
			pos = p / 100 * (n - 1)
			lo = int(pos)
			if (lo + 1 > n - 1) return s[lo+1]
			return s[lo+1] + (s[lo+2] - s[lo+1]) * (pos - lo)
		}
		# worse is how much worse c is than p in the better direction.
		function worse(c, p) { return better == "higher" ? p - c : c - p }
		$3 == m { v[$1, $2] = $4 + 0; if ($2 + 1 > n) n = $2 + 1 }
		END {
			for (i = 0; i < n; i++) {
				p[i+1] = v["parent", i]; c[i+1] = v["change", i]
				if (worse(c[i+1], p[i+1]) < 0) wins++
			}
			sorted(p, n, ps); sorted(c, n, cs)
			pm = pct(ps, n, 50); cm = pct(cs, n, 50)
			if (pm != 0) {
				change = sprintf("%+.1f%%", (cm - pm) / (pm < 0 ? -pm : pm) * 100)
				regressed = worse(cm, pm) / (pm < 0 ? -pm : pm) > bound
			} else {
				change = "n/a"
				regressed = worse(cm, pm) > 0
			}
			printf "%s (%s is better, bound %g): parent median %.4g, change median %.4g (%s), parent IQR %.4g, change won %d/%d%s\n",
				m, better, bound, pm, cm, change, pct(ps, n, 75) - pct(ps, n, 25), wins, n,
				regressed ? "  REGRESSION" : ""
		}' "$results"
done
