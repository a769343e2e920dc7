#!/usr/bin/env bash
# Regenerates every reference output in results/ at the paper's scale
# (2400 requests per service unless a command says otherwise; seed 42)
# and byte-compares each one with the checked-in file. Run from any
# directory:
#
#   bash results/check.sh           # exit 1, naming each file that differs
#   bash results/check.sh -update   # rewrite the files instead of comparing
#
# The commands below are the only record of how each file was made.
# Every simulator is deterministic for a fixed seed, at any worker
# count, so a difference is a change in simulation output. About
# 30-40 s on 2 CPUs; the binaries and fresh outputs go to a temporary
# directory that is removed on exit.
set -euo pipefail

update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

# file | command (chipsim and syssim binaries, built below)
table=(
	"fig4.txt|chipsim -fig 4"
	"fig11.txt|chipsim -fig 11"
	"chip.txt|chipsim"
	"fig15.txt|chipsim -fig 15 -requests 960"
	"fig22.txt|syssim"
	"sens.txt|chipsim -sensitivity -requests 640"
	"ispc.txt|chipsim -ispc -requests 960"
	"gpgpu.txt|chipsim -gpgpu -requests 960 -seed 3"
	"tab5.txt|chipsim -table 5"
	"multiproc.txt|chipsim -multiprocess"
	"multibatch.txt|chipsim -multibatch"
	"composepost.txt|syssim -composepost -seconds 3 -max 80000 -points 8"
	"fig5.txt|chipsim -fig 5"
	"tail.txt|syssim -tail -scale 2 -points 4 -seconds 0.5 -seed 7 -timeout 100 -retries 1 -hedge 50 -qcap 10000"
	"tail-hotel.txt|syssim -graph hotel -arrivals closed -scale 2 -points 2 -seconds 0.5 -seed 7"
)

dir=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$dir/.." && go build -o "$tmp/bin/" ./cmd/chipsim ./cmd/syssim)

failed=0
for row in "${table[@]}"; do
	file=${row%%|*}
	read -r -a cmd <<<"${row#*|}"
	"$tmp/bin/${cmd[0]}" "${cmd[@]:1}" >"$tmp/$file"
	if ((update)); then
		cp "$tmp/$file" "$dir/$file"
		echo "wrote    $file"
	elif cmp -s "$tmp/$file" "$dir/$file"; then
		echo "ok       $file"
	else
		echo "DIFFERS  $file  (${row#*|})"
		diff "$dir/$file" "$tmp/$file" | head -20 || true
		failed=1
	fi
done
exit "$failed"
