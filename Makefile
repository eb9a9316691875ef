GO ?= go

.PHONY: all build vet test race bench smoke bench-check bench-paper profile prof-cycles fuzz figures figures-check examples lint-structure reach clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || (gofmt -l . && exit 1)

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=3 -run 'TestPlan|Parts' ./internal/core
	$(GO) test -race -count=3 -run 'ScaleOut|Parts|Sweep' ./internal/job ./internal/partition ./cmd/scalesimd
	$(GO) test -race -count=3 ./internal/dse ./cmd/scaledse
	$(GO) test -race -count=3 -run FuzzLayer ./internal/dram

bench:
	$(GO) test -bench=. -benchmem .

smoke:
	$(GO) test -run XXX -benchmem -benchtime=1x \
		-bench='BenchmarkTableIV$$|BenchmarkFoldTrace|BenchmarkMemorySystemRuns|BenchmarkDRAMModel|BenchmarkSweepCached|BenchmarkDSETier1$$' .
	$(GO) test -run XXX -benchmem -benchtime=1x -cpu 1,2 \
		-bench='BenchmarkResNet50Cold|BenchmarkBERTBaseDRAMCold' .
	$(GO) test -run 'TestSystemSetupAllocation' -count=1 ./internal/memory

# Byte-identity harness for the two gated workloads: go run ./bench exits
# 1 on a golden-digest mismatch, a failed operation or a non-zero
# ref_rel_err_max. No timing is compared (that is `go run ./bench compare`).
bench-check:
	$(GO) run ./bench -workload resnet50_cold -seconds 5
	$(GO) run ./bench -workload bertbase_dram_cold -seconds 5

# The paper-size cold path (Table IV's language models, under 1 s a pass):
# fails on drifted cycles or memory counters, or above 41 MiB a pass.
bench-paper:
	$(GO) test -run XXX -bench 'BenchmarkLanguageModelsCold$$' -benchtime 2x -benchmem .

# CPU-profile the Table IV benchmark; inspect with
# `go tool pprof results/profile.pb.gz`.
profile:
	mkdir -p results
	$(GO) test -run XXX -bench=BenchmarkTableIV -benchtime=3x \
		-cpuprofile results/profile.pb.gz .

# Simulated-cycle attribution of BERTTiny under a bounded DRAM link;
# inspect with `go tool pprof -http=: results/cycles.pb.gz`.
prof-cycles:
	mkdir -p results
	$(GO) run ./cmd/scalesim -net BERTTiny -dram-bw 4 \
		-cycleprof results/cycles.pb.gz -roofline results/roofline.csv
	$(GO) tool pprof -top results/cycles.pb.gz

fuzz:
	$(GO) test ./internal/config/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/topology/ -fuzz FuzzParseCSV -fuzztime 30s
	$(GO) test ./internal/dse/ -fuzz FuzzReadPart -fuzztime 30s
	$(GO) test ./internal/obsv/ -fuzz FuzzParseManifest -fuzztime 30s
	$(GO) test ./internal/topology/ -fuzz FuzzParseGraph -fuzztime 30s
	$(GO) test ./internal/job/ -fuzz FuzzRequest -fuzztime 30s
	$(GO) test ./internal/simcache/ -fuzz FuzzSpillDocument -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzScanCSV -fuzztime 30s
	$(GO) test ./internal/batch/ -fuzz FuzzParseSpec -fuzztime 30s
	$(GO) test ./internal/memory/ -fuzz FuzzReplayQueue -fuzztime 30s
	$(GO) test ./internal/dram/ -fuzz FuzzLayer -fuzztime 30s
	$(GO) test ./internal/rtlref/ -fuzz FuzzShiftMatchesTwoPhase -fuzztime 30s

# Every results/ CSV into directory $(1), by the commands results/README.md
# lists for them: the one list `figures` and `figures-check` both run.
define paper_figures
	$(GO) run ./cmd/scalestudy fig4 -sizes 4,8,16,32,64,128 -o $(1)/fig4.csv
	$(GO) run ./cmd/scalestudy fig9a -o $(1)/fig9a.csv
	$(GO) run ./cmd/scalestudy fig9bc -o $(1)/fig9bc.csv
	$(GO) run ./cmd/scalestudy fig10a -o $(1)/fig10a.csv
	$(GO) run ./cmd/scalestudy fig10b -o $(1)/fig10b.csv
	$(GO) run ./cmd/scalestudy fig11 -macs 16384 -parts 1,4,16,64 -o $(1)/fig11_2e14.csv
	$(GO) run ./cmd/scalestudy fig11 -macs 65536 -parts 1,4,16,64 -o $(1)/fig11_2e16.csv
	$(GO) run ./cmd/scalestudy fig11 -macs 262144 -parts 1,4,16,64,256 -o $(1)/fig11_2e18.csv
	$(GO) run ./cmd/scalestudy fig12 -layer CB2a_3 -macs 1024,4096,16384,65536,262144 -parts 1,4,16,64,256 -o $(1)/fig12_cb2a3.csv
	$(GO) run ./cmd/scalestudy fig12 -layer TF0 -macs 16384,65536 -parts 1,4,16,64 -o $(1)/fig12_tf0.csv
	$(GO) run ./cmd/scalestudy fig12 -layer TF0 -macs 262144 -parts 1,4,16,64,256 -o $(1)/fig12_tf0_2e18.csv
	$(GO) run ./cmd/scalestudy fig13 -o $(1)/fig13.csv
	$(GO) run ./cmd/scalestudy fig14 -o $(1)/fig14.csv
endef

# Regenerate every figure's data into results/.
figures:
	$(call paper_figures,results)

# Byte-identity harness for the whole paper: regenerate every CSV into a
# scratch directory and compare it with results/, both ways, so a command
# without a checked-in file and a file without a command both fail.
FIGCHECK := $(or $(TMPDIR),/tmp)/scalesim-figures-check
figures-check:
	rm -rf $(FIGCHECK) && mkdir -p $(FIGCHECK)
	$(call paper_figures,$(FIGCHECK))
	for f in results/*.csv $(FIGCHECK)/*.csv; do b=$$(basename $$f); cmp $(FIGCHECK)/$$b results/$$b || exit 1; done
	rm -rf $(FIGCHECK)

# Structural invariants of the two policies that live behind one module
# each (DESIGN.md "How bytes reach disk", "The CLI shell") and of the
# layer pipeline ("Layer pipeline": consumers wired by type, a layer
# measured once, two residency structures), of the two shared stores
# (a directory is its own index: no index schema, rebuild or flush) and of
# the trace consumers ("Strided trace representation": every Consume method
# but ConsumerFunc's is the one-line trace.ConsumeAddrs shim, the only loop
# over an element batch) and of the run record ("Cycle accounting": one
# roll-up builds every manifest's entries and cycle account) and of
# scale-out ("A partitioned layer is N windowed contexts": windows are
# enumerated in core alone, and no second scale-out runner or result type
# comes back) and of the run plan ("Run plan": core's execute is the one
# simulation fan-out; beside it only dse's tier-1 scoring fans out on the
# engine), over non-test Go outside bench/.
# cmd/traceanalyze keeps its own offline -timeline flag (trace files in, no
# run to bracket); it has no -timeline-window.
SRC = $$(git ls-files --cached --others --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/')
CORESRC = $$(git ls-files --cached --others --exclude-standard 'internal/core/*.go' | grep -v '_test\.go$$')
lint-structure:
	@test "$$(grep -lE 'os\.(CreateTemp|Rename)\(' $(SRC))" = internal/disk/disk.go
	@test "$$(grep -l 'pprof\.Index' $(SRC))" = internal/obsv/export/export.go
	@test "$$(grep -c 'pprof\.Index' internal/obsv/export/export.go)" = 1
	@test "$$(grep -lE '"(pprof|timeline-window)"' $(SRC))" = internal/cliobs/cliobs.go
	@test "$$(grep -lE '\("timeline",|, "timeline",' $(SRC) | tr '\n' ' ')" = "cmd/traceanalyze/main.go internal/cliobs/cliobs.go "
	@! grep -nE 'Sscanf|RunDAGObserved|writeAtomic|writeFileAtomic|writeFileWith|func parseInts|func ServePprof' $(SRC)
	@! grep -nE '^\s+Memory\s+memory\.Options' internal/core/core.go internal/partition/partition.go
	@! grep -nE 'ProbeKey|timelineState|func \(s \*SinkSet\) (Put|Value)|SingleBuffered' $(SRC)
	@test "$$(cat $$(git ls-files --cached --others --exclude-standard 'internal/core/*.go' 'internal/obsv/timeline/*.go' | grep -v '_test\.go$$') | grep -c 'NewStallAnalyzer(')" = 1
	@! grep -nE 'resident\s+map\[int64\]struct\{\}' $$(ls internal/memory/*.go | grep -v '_test\.go$$')
	@! grep -nE 'IndexSchema|lruIndexName|lruSchema|writeLRUIndex|func \(s \*Store\) Rebuild|func \(c \*Cache\) Flush' $(SRC)
	@! grep -nE '^func \([^)]*\) Consume\(' $(SRC) | grep -vE -e '\) Consume\(cycle int64, addrs \[\]int64\) \{ (trace\.)?ConsumeAddrs\([a-z]+, cycle, addrs\) \}$$' -e '^internal/trace/trace\.go:[0-9]+:func \(f ConsumerFunc\) Consume\('
	@test "$$(grep -c 'range addrs' $(SRC) | grep -v ':0$$')" = internal/trace/run.go:1
	@test "$$(grep -l 'cycleacct\.NewReport(' $(SRC))" = internal/obsv/manifest.go
	@! grep -nE 'func \(s \*Simulator\) CycleReport|func CycleReport' $(SRC)
	@! grep -n 'partition\.Run(' $(SRC)
	@test "$$(cat $(CORESRC) | grep -c 'engine\.RunObserved(')" = 1
	@test "$$(grep -nE 'engine\.Run(Observed)?\(' $(SRC) | grep -v '^internal/core/' | cut -d: -f1)" = internal/dse/dse.go
	@test "$$(awk '/^func /{f=$$0} /s\.runNode\(/{print f}' $(CORESRC) | sort -u | cut -d'(' -f1-2)" = "func (s *Simulator) execute"
	@! grep -n 'systolic\.Window{' $(SRC) | grep -v -e '^internal/core/' -e '^internal/systolic/'
	@! grep -nE 'execScaleOut|ScaleOut \[\]' $(SRC)
	@echo "lint-structure: ok"

# Measured reach: build every cmd/* and examples/* binary with coverage,
# run each subcommand and mode once on small inputs, and fail on a product
# function that ran 0 % without a reach.allow line, or on a stale line.
# REACHDIR keeps the binaries, every output, func.txt, zero.txt and
# blocks.txt (0 % statements per file, a report that gates nothing).
REACHDIR := $(or $(TMPDIR),/tmp)/scalesim-reach
reach:
	GO=$(GO) sh scripts/reach.sh $(REACHDIR)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/offload
	$(GO) run ./examples/provisioning
	$(GO) run ./examples/inception
	$(GO) run ./examples/resnet50
	$(GO) run ./examples/scalingstudy

clean:
	rm -f test_output.txt bench_output.txt
