#!/usr/bin/env bash
# Byte-identity check of this working tree against another checkout of
# the repository, usually the parent commit:
#
#   make identity BASE=<dir>
#
# It builds figures, drstrange and rngbench from both trees and compares
#   - figures -fig all at -instr 3000 and 20000 under -engine event and
#     -engine ticked, without the "done in" timing lines (8 outputs);
#   - the text output, the -json output and the exit status of drstrange
#     and rngbench on every scenarios/*.json and testdata/scenario_*.json
#     file of this tree (4 outputs per file);
#   - the output and exit status of every examples/* program.
# Each output holds the command's stdout and stderr. Every differing
# output is printed as a diff, and any difference makes the exit status 1.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -f "$1/go.mod" ]; then
	echo "usage: identity.sh <checkout to compare against>" >&2
	exit 2
fi
base="$(cd "$1" && pwd)"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for side in base head; do
	src="$root"
	[ "$side" = base ] && src="$base"
	mkdir -p "$tmp/$side"
	for cmd in figures drstrange rngbench; do
		(cd "$src" && go build -o "$tmp/$side/$cmd" "./cmd/$cmd")
	done
	for ex in "$root"/examples/*/; do
		ex="$(basename "$ex")"
		(cd "$src" && go build -o "$tmp/$side/example-$ex" "./examples/$ex")
	done
done

# run SIDE NAME PROG ARGS... writes PROG's output and exit status to
# $tmp/SIDE/out/NAME, run from this tree's root.
run() {
	local side=$1 name=$2 prog=$3
	shift 3
	local out="$tmp/$side/out/$name" st=0
	mkdir -p "$(dirname "$out")"
	(cd "$root" && "$tmp/$side/$prog" "$@") > "$out" 2>&1 || st=$?
	echo "exit status $st" >> "$out"
}

names=()
for instr in 3000 20000; do
	for engine in event ticked; do
		name="figures-all-$instr-$engine"
		names+=("$name")
		for side in base head; do
			run "$side" "$name" figures -fig all -instr "$instr" -engine "$engine"
			grep -v 'done in' "$tmp/$side/out/$name" > "$tmp/$side/out/$name.tmp" || true
			mv "$tmp/$side/out/$name.tmp" "$tmp/$side/out/$name"
		done
	done
done
for f in "$root"/scenarios/*.json "$root"/testdata/scenario_*.json; do
	rel="${f#"$root"/}"
	for prog in drstrange rngbench; do
		for mode in text json; do
			name="$prog-$mode-${rel//\//_}"
			names+=("$name")
			flags=(-scenario "$rel")
			[ "$mode" = json ] && flags+=(-json)
			for side in base head; do
				run "$side" "$name" "$prog" "${flags[@]}"
			done
		done
	done
done

for ex in "$root"/examples/*/; do
	name="example-$(basename "$ex")"
	names+=("$name")
	for side in base head; do
		run "$side" "$name" "$name"
	done
done

differ=0
for name in "${names[@]}"; do
	if ! diff -u "$tmp/base/out/$name" "$tmp/head/out/$name"; then
		differ=$((differ + 1))
	fi
done
echo "identity: $differ of ${#names[@]} outputs differ from $base"
[ "$differ" -eq 0 ]
