#!/usr/bin/env bash
# Paired benchmark: runs every BENCHMARK.json workload at seeds 1, 2 and
# 3 on a base commit and on this checkout, on the same machine, so
# machine speed cancels out of the comparison.
#
#   bash .github/bench-paired.sh <base-commit>
#
# The base is checked out with `git worktree` under .bench_build/paired/,
# and each side builds and runs its own benchmark command (BENCHMARK.json's
# "command", i.e. tdbench/run.sh) for run_seconds with tracing off.
# Within each workload × seed pair the side that runs first alternates.
# Prints one row per workload × metric and exits 1 when
#   - a run of this checkout exits non-zero,
#   - an end-to-end metric's median here is worse than the base median
#     by more than its bound, or
#   - this checkout fails a larger share of ops than the base.
# If tdbench/ or BENCHMARK.json differ between the sides, the comparison
# is skipped: a benchmark change is measured again after it lands.
# The raw result lines are left in .bench_build/paired/results.jsonl.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-paired.sh <base-commit>" >&2
	exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
if ! git diff --quiet "$base" -- tdbench BENCHMARK.json; then
	echo "tdbench/ or BENCHMARK.json differ from $base: comparison skipped"
	exit 0
fi

out=$root/.bench_build/paired
rm -rf "$out"
git worktree prune
mkdir -p "$out"
git worktree add --quiet --detach "$out/base" "$base"
trap 'git -C "$root" worktree remove --force "$out/base"' EXIT

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
echo "base $base; head $(git rev-parse HEAD) and its working tree"
echo "${#workloads[@]} workloads × seeds 1-3 × 2 sides, ${seconds}s each"

# run SIDE DIR WORKLOAD SEED appends one record to results.jsonl; the
# result is the run's last stdout line, or null if that is not one.
run() {
	local log=$out/$1-$3-$4 code=0 line
	(cd "$2" && "${cmd[@]}" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
		>"$log.out" 2>"$log.err" || code=$?
	line=$(tail -n 1 "$log.out")
	if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
		line=null
	fi
	jq -nc --arg side "$1" --arg w "$3" --argjson seed "$4" --argjson exit "$code" --argjson result "$line" \
		'{side: $side, workload: $w, seed: $seed, exit: $exit, result: $result}' >>"$out/results.jsonl"
	echo "$1 $3 seed $4: exit $code"
}

pair=0
for w in "${workloads[@]}"; do
	for seed in 1 2 3; do
		if [ $((pair % 2)) -eq 0 ]; then
			run base "$out/base" "$w" "$seed"
			run head "$root" "$w" "$seed"
		else
			run head "$root" "$w" "$seed"
			run base "$out/base" "$w" "$seed"
		fi
		pair=$((pair + 1))
	done
done

# The table's rows, then one verdict line.
jq -rn --slurpfile bench BENCHMARK.json '
	def median: sort | if length == 0 then null
		elif length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def num: if . == null then "-" else . * 10000 | round / 10000 | tostring end;
	def pct: if . == null then "-" else (if . > 0 then "+" else "" end) + (. * 1000 | round / 10 | tostring) + "%" end;
	def share(f): (map(f) | add // 0);
	[inputs] as $runs
	| [$bench[0].workloads[].name as $w
		| ($runs | map(select(.workload == $w))) as $r
		| ($r | map(select(.side == "base") | .result // empty)) as $b
		| ($r | map(select(.side == "head") | .result // empty)) as $h
		| ($bench[0].end_to_end[] as $m
			| ($b | map(.metrics[$m.name].value // empty) | median) as $bm
			| ($h | map(.metrics[$m.name].value // empty) | median) as $hm
			| (if $bm == null or $hm == null or $bm == 0 then null else $hm / $bm - 1 end) as $d
			| {w: $w, metric: $m.name, base: $bm, head: $hm, change: $d, bound: $m.bound,
			   bad: ($d != null and (if $m.better == "lower" then $d > $m.bound else -$d > $m.bound end))}),
		  (($b | share(.failed)) / ([($b | share(.attempted)), 1] | max)) as $bf
		| (($h | share(.failed)) / ([($h | share(.attempted)), 1] | max)) as $hf
		| {w: $w, metric: "failed_share", base: $bf, head: $hf, change: null, bound: null, bad: ($hf > $bf)}
	] as $rows
	| ($rows | map(select(.bad) | "\(.w) \(.metric)")
		+ ($runs | map(select(.side == "head" and .exit != 0) | "\(.workload) seed \(.seed) exited \(.exit)"))) as $bad
	| (["workload", "metric", "base", "head", "change", "bound", "verdict"] | @tsv),
	  ($rows[] | [.w, .metric, (.base | num), (.head | num), (.change | pct),
		(if .bound == null then "-" else (.bound * 100 | tostring) + "%" end),
		(if .bad then "WORSE" else "ok" end)] | @tsv),
	  (if $bad == [] then "paired benchmark: no regression"
	   else "paired benchmark: REGRESSED: \($bad | join("; "))" end)
' "$out/results.jsonl" >"$out/summary.tsv"
head -n -1 "$out/summary.tsv" | awk -F '\t' '{printf "%-11s %-14s %11s %11s %8s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7}'
tail -n 1 "$out/summary.tsv"
grep -q '^paired benchmark: no regression$' "$out/summary.tsv"
