#!/bin/sh
# reach.sh measures which product functions the front ends execute.
#
# It builds every cmd/* and examples/* binary with statement coverage over
# the whole module, runs one small deterministic command per binary,
# subcommand and mode flag under one GOCOVERDIR, and lists every function
# that ran 0 %. That list is compared with reach.allow, which holds one
# line per function allowed to stay at 0 %:
#
#	<pkg>.<func>  (<class>): <reason>
#
# where <pkg> is the import path below the module ("internal/dram",
# "scalesim" for the façade) and <func> is the name go tool covdata prints
# ("*Model.Consume" for a method). The classes are documented at the top of
# reach.allow. The script fails on a 0 % function that has no line, and on a
# line whose function now runs or no longer exists.
#
# Usage: scripts/reach.sh [workdir]   (default $TMPDIR/scalesim-reach)
#
# The workdir keeps the binaries, the coverage counters, every command's
# output, func.txt (per-function coverage), zero.txt (the 0 % list) and
# blocks.txt, a report that gates nothing: one line per product file with
# its count of statements that ran 0 % and the line ranges of those inside
# functions that did run (a 0 % function is already in zero.txt).
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-${TMPDIR:-/tmp}/scalesim-reach}
allow=$root/reach.allow
port=${REACH_PORT:-18731}
GO=${GO:-go}

# Background processes (the slow example, the daemon) die with the script.
bg=""
trap 'if [ -n "$bg" ]; then kill $bg 2> /dev/null || true; fi' EXIT

rm -rf "$work"
mkdir -p "$work/bin" "$work/cov" "$work/run"
work=$(cd "$work" && pwd)
B=$work/bin

(cd "$root" && $GO build -cover -coverpkg=scalesim/... -o "$B/" ./cmd/... ./examples/...)

# Coverage counters are shared memory: on several cores a parallel hot
# loop spends its time on cache-line traffic, not work. One core per
# process keeps the run fast; the slow example runs beside the rest.
GOCOVERDIR=$work/cov
GOMAXPROCS=1
export GOCOVERDIR GOMAXPROCS
cd "$work/run"

# fails runs a command that must exit non-zero (a refusal by name).
fails() {
	if "$@" > /dev/null 2>&1; then
		echo "reach: expected a refusal: $*" >&2
		exit 1
	fi
}

# --- examples: the façade's consumers --------------------------------------
"$B/scalingstudy" > ex_scalingstudy.txt &
study=$!
bg=$study
for e in quickstart offload provisioning inception resnet50; do
	"$B/$e" > "ex_$e.txt"
done

# --- scalesim --------------------------------------------------------------
printf 'TF0,256,1,1,1,84,256,1\n' > tf0.csv
"$B/topogen" -net BERTTiny -o bert_tiny.json
"$B/scalesim" -config "$root/configs/scale.cfg" -net TinyNet -outdir cfg > cfg.txt
"$B/scalesim" -net TinyNet -outdir tiny -traces -metrics tiny.json -progress \
	-log tiny.log -log-level debug -timeline tiny_tl.json 2> /dev/null > tiny.txt
"$B/scalesim" -net TinyNet -workers 4 -dataflow ws -json > tiny_ws.json
"$B/scalesim" -net TinyNet -dataflow is -array 8x8 -sram 4,4,2 -metrics-jsonl tiny.jsonl > tiny_is.txt
"$B/scalesim" -graph bert_tiny.json -dram -dram-bw 4 -traces -outdir bert -json > bert.json
"$B/scalesim" -net BERTTiny -workers 4 -vector-lanes 8 -timeline bert_tl.json -timeline-window 100 > bert.txt
"$B/scalesim" -net BERTTiny -dram-bw 4 -metrics cyc.json -cycleprof cyc.pb.gz -roofline roof.csv > cyc.txt
"$B/scalesim" -net BERTBase -dram -dram-bw 4 -json > bertbase.json
"$B/scalesim" -net Resnet50 -outdir r50 -metrics r50.json -log r50.log -log-level debug > r50.txt
for i in 1 2; do
	"$B/scalesim" -topology tf0.csv -array 32x32 -sram 64,64,32 -dram-bw 4 \
		-cache-dir sc -run-dir runs -log "tf0_$i.log" -log-level debug > /dev/null
done
"$B/scalesim" -topology tf0.csv -array 32x32 -sram 64,64,32 -dram-bw 4 -timeline tf0_tl.json > /dev/null
"$B/scalesim" -topology tf0.csv -array 16x16 -sram 64,64,32 -cache-dir sc -cache-max-mb 1 -run-dir runs > /dev/null
# A 4.3 M-word OFMAP, above the dense table's limit, scanned under WS (an OS
# drain is proven fresh and never scanned): the probe table's only driver.
printf 'BIG,4200,1,1,1,1,1024,1\n' > big.csv
"$B/scalesim" -topology big.csv -dataflow ws > big.txt
# A corrupt spill file is a logged miss, never a failed run.
for f in sc/*.json; do printf '{' > "$f"; done
"$B/scalesim" -topology tf0.csv -array 32x32 -sram 64,64,32 -dram-bw 4 -cache-dir sc -log tf0_corrupt.log > /dev/null
SO="-net TinyNet -array 4x4 -sram 4,4,2 -parts 3x2"
# shellcheck disable=SC2086
"$B/scalesim" $SO -cache -metrics so.json -cycleprof so.pb.gz -roofline so.csv -outdir so > so.txt
# shellcheck disable=SC2086
"$B/scalesim" $SO -workers 1 -timeline so_tl.json -run-dir oruns > /dev/null
"$B/scalesim" -net Resnet50 -workers 2 -metrics-addr "127.0.0.1:$((port + 1))" > /dev/null
"$B/scalesim" -net TinyNet -pprof "127.0.0.1:$((port + 2))" > /dev/null 2>&1
fails "$B/scalesim" -net TinyNet -array 8x8x3
fails "$B/scalesim" -net TinyNet -parts 1x2 -dram
fails "$B/scalesim" -net TinyNet -traces

# --- scalesweep ------------------------------------------------------------
printf '[sweep]\nnets = TinyNet\narrays = 8x8, 16x16\ndataflows = os, ws\n' > sweep.spec
"$B/scalesweep" -spec sweep.spec -parallel 2 -o spec.csv
SW="-arrays 8x8,16x16 -dataflows os,ws -srams 2/2/1 -nets TinyNet,BERTTiny"
for i in 1 2; do
	# shellcheck disable=SC2086
	"$B/scalesweep" $SW -cache-dir swc -metrics "sw_$i.json" -timeline "sw_tl_$i.json" -progress \
		-o "sw_$i.csv" 2> /dev/null
done
fails "$B/scalesweep" -arrays 8x8,0x4 -nets TinyNet

# --- scaledse --------------------------------------------------------------
GRID="-nets TinyNet -arrays 4x4,8x8,16x16 -dataflows os,ws -srams 2/2/1,4/4/2 -eps 0.25"
# shellcheck disable=SC2086
"$B/scaledse" run $GRID -metrics dse.json -run-dir oruns -o dse.csv
for i in 0 1; do
	# shellcheck disable=SC2086
	"$B/scaledse" run $GRID -shard "$i/2" -part "dse_p$i.jsonl" -cache-dir "dsec$i" > /dev/null
done
"$B/scaledse" merge -o merged.csv -metrics merged.json -cache-dir dsecm -caches dsec0,dsec1 \
	dse_p0.jsonl dse_p1.jsonl
"$B/scaledse" run -nets TinyNet,AlexNet -enum-macs 4096 -min-dim 8 -dataflows os,ws,is -tier1-only \
	-config "$root/configs/scale.cfg" -metrics t1.json -progress 2> /dev/null > t1.csv
fails "$B/scaledse" run -nets TinyNet -enum-macs 64x

# --- scalestudy: every verb, small budgets ---------------------------------
"$B/scalestudy" fig4 -sizes 4,8 -o fig4.csv
"$B/scalestudy" fig9a -macs 1024 -metrics fig9a.json -progress 2> /dev/null > fig9a.csv
"$B/scalestudy" fig9bc -macs 1024 > fig9bc.csv
"$B/scalestudy" fig10a -macs 1024 > fig10a.csv
"$B/scalestudy" fig10b -macs 1024 > fig10b.csv
"$B/scalestudy" fig11 -macs 1024 -parts 1,4 > fig11.csv
"$B/scalestudy" fig11 -macs 1024 -parts 1,4 -plot > fig11.txt
"$B/scalestudy" fig12 -layer TF0 -macs 1024 -parts 1,4 > fig12.csv
"$B/scalestudy" fig13 -macs 256,1024 > fig13.csv
"$B/scalestudy" fig14 -macs 256,1024 > fig14.csv
"$B/scalestudy" sweetspot -macs 1024 -parts 1,4 > sweetspot.csv
fails "$B/scalestudy" sweetspot -macs 1024 -parts 1,4 -bw 0.01
"$B/scalestudy" bwcurve > bwcurve.csv
"$B/scalestudy" bwcurve -plot > bwcurve.txt
"$B/scalestudy" dataflow -net TinyNet > dataflow.csv
"$B/scalestudy" cells -macs 4096 > cells.csv
fails "$B/scalestudy" nosuchfig
mkdir paper && "$B/scalestudy" paper -o paper
fails "$B/scalestudy" paper -o paper -macs 1024

# --- topogen, traceanalyze -------------------------------------------------
"$B/topogen" -list > list.txt
"$B/topogen" -net TinyNet -o tiny.csv
"$B/topogen" -net TinyNet -format graph > tiny_graph.json
"$B/topogen" -net BERTTiny -stats > bert_stats.txt
"$B/topogen" -net Resnet50 -stats > r50_stats.txt
set -- tiny/*_sram_read_ifmap.csv
"$B/traceanalyze" -trace "$1" > ta1.txt
"$B/traceanalyze" -trace "$1" -plot > ta_plot.txt
set -- tiny/*_dram_read.csv
"$B/traceanalyze" -trace "$1" -trace "$2" -plot -timeline ta_tl.json > ta2.txt

# --- scalequery ------------------------------------------------------------
# runs holds the three TF0 runs, newest first: 16x16, then the replay pair.
"$B/scalequery" -dir runs list > q_list.txt
set -- $("$B/scalequery" -dir runs -ids list)
"$B/scalequery" -dir runs show "$1" > q_show.json
"$B/scalequery" -dir runs diff "$3" "$2" > q_same.txt
fails "$B/scalequery" -dir runs diff "$3" "$1" -threshold 0.01
"$B/scalequery" -dir runs top -n 5 > q_top.txt
"$B/scalequery" -dir runs top -by dram_bw_stall > q_topby.txt
"$B/scalequery" -dir oruns list > q_olist.txt
for id in $("$B/scalequery" -dir oruns -ids list); do
	"$B/scalequery" -dir oruns cycles "$id" -cycleprof "q_$id.pb.gz" -roofline "q_$id.csv" > "q_$id.txt"
done

# --- scalesimd: submit, events, cancel, load, drain ------------------------
url=http://127.0.0.1:$port
"$B/scalesimd" -addr "127.0.0.1:$port" -workers 1 -queue 8 -cache-dir dc -cache-max-mb 64 \
	-run-dir druns -log daemon.log 2> daemon.err &
daemon=$!
bg="$study $daemon"
i=0
until curl -sf "$url/healthz" > /dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 200 ] || ! kill -0 "$daemon" 2> /dev/null; then
		echo "reach: scalesimd did not start on port $port (set REACH_PORT):" >&2
		cat daemon.err >&2
		exit 1
	fi
	sleep 0.05
done
submit() { curl -sf -X POST "$url/jobs" -d "$1" | jq -r .id; }
# events waits for a job: the stream ends with its terminal status.
events() { curl -sfN "$url/jobs/$1/events" | grep -A1 '^event: status' | tail -n 1; }
GEMM=$(submit '{"topology_csv":"TF0,256,1,1,1,84,256,1\n","array":"32x32","sram":"64,64,32","dram_bw":4}')
test "$(events "$GEMM")" = "data: done"
curl -sf "$url/jobs/$GEMM/result" > d_gemm.json
curl -sf "$url/jobs/$GEMM/result?report=cycles" > d_cycles.csv
BERT=$(submit "{\"graph\":$(cat bert_tiny.json),\"dram\":true,\"workers\":2}")
test "$(events "$BERT")" = "data: done"
curl -sf "$url/jobs/$BERT/result?report=operators" > d_ops.csv
PARTS=$(submit '{"net":"TinyNet","array":"4x4","sram":"4,4,2","parts":"3x2"}')
test "$(events "$PARTS")" = "data: done"
curl -sf "$url/jobs/$PARTS/result?report=scaleout" > d_so.csv
INI=$(submit "{\"config_ini\":$(jq -Rs . < "$root/configs/scale.cfg"),\"net\":\"TinyNet\",\"dataflow\":\"ws\"}")
test "$(events "$INI")" = "data: done"
# A long job holds the single worker, so the job behind it is cancelled
# while queued; then the long job is cancelled while it runs.
LONG=$(submit '{"net":"LanguageModels"}')
QUEUED=$(submit '{"net":"AlexNet"}')
curl -sf -X POST "$url/jobs/$QUEUED/cancel" > /dev/null
curl -sf -X POST "$url/jobs/$LONG/cancel" > /dev/null
test "$(events "$QUEUED")" = "data: cancelled"
test "$(events "$LONG")" = "data: cancelled"
curl -s "$url/jobs/$QUEUED/result" > d_conflict.json
curl -sf "$url/jobs" > d_jobs.json
curl -sf "$url/jobs/$GEMM" > d_status.json
curl -s "$url/jobs/nosuchjob" > d_404.json
curl -s -X POST "$url/jobs" -d '{"net":"BERTTiny","parts":"1x2"}' > d_400.json
"$B/scaleload" -addr "127.0.0.1:$port" -clients 2 -n 4 -poll 10ms -o load.json > /dev/null
curl -sf "$url/metrics" > d_metrics.txt
kill -TERM "$daemon"
wait "$daemon"
wait "$study"
bg=""

# --- the 0 % list ----------------------------------------------------------
# covdata func prints a function without statements as 0 % even when it
# ran; the profile still counts the empty block that opens on its line.
$GO tool covdata func -i="$work/cov" > "$work/func.txt"
$GO tool covdata textfmt -i="$work/cov" -o "$work/profile.txt"
awk -F'\t+' '
	FILENAME == ARGV[1] {
		if ($1 ~ /^scalesim\// && $NF == "0.0%") {
			split($1, loc, ":")
			zero[loc[1] ":" loc[2]] = $2
		}
		next
	}
	FNR > 1 {
		split($0, blk, " ")
		split(blk[1], at, ":")
		if (blk[2] == 0 && blk[3] > 0) ran[at[1] ":" int(at[2])] = 1
	}
	END {
		for (fn in zero) {
			if (fn in ran) continue
			pkg = fn
			sub(/\/[^\/]*:[0-9]+$/, "", pkg)
			sub(/^scalesim\/?/, "", pkg)
			if (pkg == "") pkg = "scalesim"
			print pkg "." zero[fn]
		}
	}' "$work/func.txt" "$work/profile.txt" | sort -u > "$work/zero.txt"

# blocks.txt: <file> <0 % statements> <line ranges in functions that ran>.
# A block belongs to the function that starts last at or above it.
awk -F'\t+' '
	FILENAME == ARGV[1] {
		if ($1 ~ /^scalesim\//) {
			split($1, loc, ":")
			n = ++nf[loc[1]]
			fline[loc[1], n] = loc[2] + 0
			fran[loc[1], n] = $NF != "0.0%"
		}
		next
	}
	FNR > 1 {
		split($0, blk, " ")
		split(blk[1], at, ":")
		split(at[2], span, ",")
		key = blk[1]
		file[key] = at[1]
		from[key] = int(span[1])
		to[key] = int(span[2])
		stmts[key] = blk[2]
		if (blk[3] > 0) hit[key] = 1
	}
	END {
		for (key in file) {
			f = file[key]
			if (key in hit || stmts[key] == 0) {
				print f, 0, 0, 0, 0
				continue
			}
			ran = best = 0
			for (i = 1; i <= nf[f]; i++)
				if (fline[f, i] <= from[key] && fline[f, i] > best) {
					best = fline[f, i]
					ran = fran[f, i]
				}
			print f, from[key], to[key], stmts[key], ran
		}
	}' "$work/func.txt" "$work/profile.txt" | sort -k1,1 -k2,2n | awk '
	function flush() {
		if (f == "") return
		if (lo) ranges = ranges " " (lo == hi ? lo : lo "-" hi)
		sub(/^scalesim\//, "", f)
		print f "\t" zero "\t" substr(ranges, 2)
	}
	$1 != f { flush(); f = $1; zero = 0; ranges = ""; lo = hi = 0 }
	{
		zero += $4
		if (!$5) next
		if (lo && $2 <= hi + 1) {
			if ($3 > hi) hi = $3
			next
		}
		if (lo) ranges = ranges " " (lo == hi ? lo : lo "-" hi)
		lo = $2
		hi = $3
	}
	END { flush() }' > "$work/blocks.txt"

grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | awk '{ print $1 }' | sort > "$work/allowed.txt"
bad=$(grep -v -e '^#' -e '^[[:space:]]*$' "$allow" |
	grep -v -E '^[^[:space:]]+[[:space:]]+\([a-e]\): [^[:space:]]' || true)
if [ -n "$bad" ]; then
	echo "reach: malformed reach.allow lines (want '<pkg>.<func>  (<a-e>): <reason>'):" >&2
	echo "$bad" >&2
	exit 1
fi
dup=$(uniq -d "$work/allowed.txt")
if [ -n "$dup" ]; then
	echo "reach: duplicate reach.allow lines: $dup" >&2
	exit 1
fi

funcs=$(awk -F'\t+' '$1 ~ /^scalesim\//' "$work/func.txt" | wc -l)
stmts=$(awk -F'\t+' '$1 == "total" { print $NF }' "$work/func.txt")
zero=$(wc -l < "$work/zero.txt")
echo "reach: $funcs functions, $stmts of statements ran, $zero at 0 % ($(wc -l < "$work/allowed.txt") allowed)"

status=0
unlisted=$(comm -23 "$work/zero.txt" "$work/allowed.txt")
if [ -n "$unlisted" ]; then
	echo "reach: no front end runs these functions; delete them or add a reach.allow line:" >&2
	echo "$unlisted" | sed 's/^/  /' >&2
	status=1
fi
stale=$(comm -13 "$work/zero.txt" "$work/allowed.txt")
if [ -n "$stale" ]; then
	echo "reach: stale reach.allow lines (the function now runs, or is gone):" >&2
	echo "$stale" | sed 's/^/  /' >&2
	status=1
fi
exit $status
