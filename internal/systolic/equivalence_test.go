package systolic

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/mathutil"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// elementSim is a reference reimplementation of the pre-run schedule: one
// Mapper call and one slice element per address, exactly the per-element loops
// the production fold code used before the strided-run representation. The
// equivalence tests below assert the run path renders byte-identical CSV.
type elementSim struct {
	mp    *dataflow.Mapper
	sinks Sinks
	buf   []int64
}

func (s *elementSim) emit(c trace.Consumer, cycle int64) {
	if c != nil {
		c.Consume(cycle, s.buf)
	}
	s.buf = s.buf[:0]
}

func (s *elementSim) run(l topology.Layer, cfg config.Config, win Window) error {
	m := s.mp.Mapping()
	win, err := win.resolve(m)
	if err != nil {
		return err
	}
	R, C := int64(cfg.ArrayHeight), int64(cfg.ArrayWidth)
	foldsR := mathutil.CeilDiv(win.SrLen, R)
	foldsC := mathutil.CeilDiv(win.ScLen, C)
	var base int64
	for fr := int64(0); fr < foldsR; fr++ {
		rows := min(R, win.SrLen-fr*R)
		for fc := int64(0); fc < foldsC; fc++ {
			cols := min(C, win.ScLen-fc*C)
			f := fold{base: base, rowOff: win.SrOff + fr*R,
				colOff: win.ScOff + fc*C, rows: rows, cols: cols, T: m.T}
			switch cfg.Dataflow {
			case config.OutputStationary:
				s.foldOS(f)
			case config.WeightStationary:
				s.foldWS(f)
			case config.InputStationary:
				s.foldIS(f)
			}
			base += foldCycles(R, C, rows, cols, m.T, cfg.EdgeTrim)
		}
	}
	return nil
}

func (s *elementSim) foldOS(f fold) {
	for u := int64(0); u <= f.rows-1+f.T-1; u++ {
		for i := max(0, u-f.T+1); i <= min(f.rows-1, u); i++ {
			s.buf = append(s.buf, s.mp.RowStream(f.rowOff+i, u-i))
		}
		s.emit(s.sinks.IfmapRead, f.base+u)
	}
	for u := int64(0); u <= f.cols-1+f.T-1; u++ {
		for j := max(0, u-f.T+1); j <= min(f.cols-1, u); j++ {
			s.buf = append(s.buf, s.mp.ColStream(f.colOff+j, u-j))
		}
		s.emit(s.sinks.FilterRead, f.base+u)
	}
	finish := f.base + f.rows + f.cols + f.T - 3
	for k := int64(1); k <= f.rows; k++ {
		for j := int64(0); j < f.cols; j++ {
			s.buf = append(s.buf, s.mp.Output(f.rowOff+f.rows-k, f.colOff+j))
		}
		s.emit(s.sinks.OfmapWrite, finish+k)
	}
}

func (s *elementSim) foldWS(f fold) {
	for i := int64(0); i < f.rows; i++ {
		for j := int64(0); j < f.cols; j++ {
			s.buf = append(s.buf, s.mp.Stationary(f.rowOff+i, f.colOff+j))
		}
		s.emit(s.sinks.FilterRead, f.base+i)
	}
	s.streamAndDrain(f, s.sinks.IfmapRead)
}

func (s *elementSim) foldIS(f fold) {
	for i := int64(0); i < f.rows; i++ {
		for j := int64(0); j < f.cols; j++ {
			s.buf = append(s.buf, s.mp.Stationary(f.rowOff+i, f.colOff+j))
		}
		s.emit(s.sinks.IfmapRead, f.base+i)
	}
	s.streamAndDrain(f, s.sinks.FilterRead)
}

func (s *elementSim) streamAndDrain(f fold, streamSink trace.Consumer) {
	for u := int64(0); u <= f.rows-1+f.T-1; u++ {
		for i := max(0, u-f.T+1); i <= min(f.rows-1, u); i++ {
			s.buf = append(s.buf, s.mp.RowStream(f.rowOff+i, u-i))
		}
		s.emit(streamSink, f.base+f.rows+u)
	}
	for v := int64(0); v <= f.T-1+f.cols-1; v++ {
		for j := max(0, v-f.T+1); j <= min(f.cols-1, v); j++ {
			s.buf = append(s.buf, s.mp.Output(v-j, f.colOff+j))
		}
		s.emit(s.sinks.OfmapWrite, f.base+2*f.rows+v-1)
	}
}

// renderAll renders the three streams of one run into a single byte blob,
// building the sinks for each stream through mkSink.
func renderAll(t *testing.T, mk func(w *trace.CSVWriter, stream string) Sinks,
	run func(sinks Sinks) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, stream := range []string{"ifmap_read", "filter_read", "ofmap_write"} {
		buf.WriteString("# " + stream + "\n")
		w := trace.NewCSVWriter(&buf)
		if err := run(mk(w, stream)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func streamSinks(c trace.Consumer, stream string) Sinks {
	switch stream {
	case "ifmap_read":
		return Sinks{IfmapRead: c}
	case "filter_read":
		return Sinks{FilterRead: c}
	default:
		return Sinks{OfmapWrite: c}
	}
}

// elementOnly hides a consumer's RunConsumer implementation, forcing the
// production code through the materializing adapter (trace.Runs fallback).
type elementOnly struct{ c trace.Consumer }

func (e elementOnly) Consume(cycle int64, addrs []int64) { e.c.Consume(cycle, addrs) }

// equivalenceCases are the workloads the byte-identity guarantee is pinned
// on: the golden conv layer, the TinyNet layers, a GEMM, and a windowed
// sample of a real ResNet50 layer (full layer traces would be gigabytes).
func equivalenceCases() []struct {
	name string
	l    topology.Layer
	cfg  config.Config
	win  Window
} {
	goldenL, goldenCfg := goldenCase()
	r50 := topology.ResNet50().Layers
	mid := r50[len(r50)/2]
	cases := []struct {
		name string
		l    topology.Layer
		cfg  config.Config
		win  Window
	}{
		{"golden", goldenL, goldenCfg, Window{}},
		{"golden_trim", goldenL, func() config.Config { c := goldenCfg; c.EdgeTrim = true; return c }(), Window{}},
		{"gemm", topology.FromGEMM("gemm", 10, 7, 9), config.New().WithArray(4, 4), Window{}},
		{"resnet50_window", mid, config.New().WithArray(8, 8),
			Window{SrOff: 5, ScOff: 3, SrLen: 24, ScLen: 16}},
	}
	for i, l := range topology.TinyNet().Layers {
		cases = append(cases, struct {
			name string
			l    topology.Layer
			cfg  config.Config
			win  Window
		}{fmt.Sprintf("tinynet_%d", i), l, config.New().WithArray(4, 4), Window{}})
	}
	return cases
}

// TestRunPathMatchesElementPath is the tentpole's byte-identity guarantee:
// the strided-run fold loops must render exactly the CSV the per-element
// schedule renders, for every dataflow, both through the native run-aware
// CSV writer and through the legacy-consumer adapter.
func TestRunPathMatchesElementPath(t *testing.T) {
	for _, tc := range equivalenceCases() {
		for _, df := range config.Dataflows {
			cfg := tc.cfg.WithDataflow(df)
			t.Run(fmt.Sprintf("%s/%s", tc.name, df), func(t *testing.T) {
				want := renderAll(t, func(w *trace.CSVWriter, stream string) Sinks {
					return streamSinks(w, stream)
				}, func(sinks Sinks) error {
					ref := &elementSim{
						mp:    dataflow.NewMapper(tc.l, df, dataflow.OffsetsFromConfig(cfg)),
						sinks: sinks,
					}
					return ref.run(tc.l, cfg, tc.win)
				})

				native := renderAll(t, func(w *trace.CSVWriter, stream string) Sinks {
					return streamSinks(w, stream)
				}, func(sinks Sinks) error {
					_, err := RunWindow(tc.l, cfg, tc.win, sinks)
					return err
				})
				if !bytes.Equal(native, want) {
					t.Errorf("native run path diverges from element reference (%d vs %d bytes)",
						len(native), len(want))
				}

				adapted := renderAll(t, func(w *trace.CSVWriter, stream string) Sinks {
					return streamSinks(elementOnly{w}, stream)
				}, func(sinks Sinks) error {
					_, err := RunWindow(tc.l, cfg, tc.win, sinks)
					return err
				})
				if !bytes.Equal(adapted, want) {
					t.Errorf("adapter (legacy-consumer) path diverges from element reference (%d vs %d bytes)",
						len(adapted), len(want))
				}

				// A live SRAM-side observer behind a Tee must get the full
				// stream even next to the greediest BlockConsumer: the Tee
				// hides the capability, so no block is ever offered.
				var greedy []*blockSkipper
				teed := renderAll(t, func(w *trace.CSVWriter, stream string) Sinks {
					g := &blockSkipper{}
					greedy = append(greedy, g)
					return streamSinks(trace.Tee(g, w), stream)
				}, func(sinks Sinks) error {
					_, err := RunWindow(tc.l, cfg, tc.win, sinks)
					return err
				})
				if !bytes.Equal(teed, want) {
					t.Errorf("Tee'd sink lost part of the stream (%d vs %d bytes)", len(teed), len(want))
				}
				for _, g := range greedy {
					if g.begins != 0 {
						t.Errorf("a BlockConsumer behind a Tee was offered %d blocks", g.begins)
					}
				}
			})
		}
	}
}

// blockSkipper is the greediest trace.BlockConsumer a chain could hold: it
// claims every block it has been offered before. It also checks the
// producer's side of the contract on the blocks it does receive: the words
// each declares, and that every address it streams lies inside its declared
// hull — inside its tile, for a tile laid out from base.
type blockSkipper struct {
	base              int64
	seen              map[[3]int64]bool
	begins, skips     int
	streamed, skipped int64
	open              bool
	block             trace.Block
	openWords         int64
	violations        []string
}

func (b *blockSkipper) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(b, cycle, addrs) }

func (b *blockSkipper) ConsumeRuns(_ int64, runs []trace.Run) {
	words := trace.RunWords(runs)
	b.streamed += words
	if !b.open {
		return
	}
	b.openWords += words
	if b.block.Lo > b.block.Hi {
		return
	}
	for _, r := range runs {
		if lo, hi := min(r.Base, r.Last()), max(r.Base, r.Last()); lo < b.block.Lo || hi > b.block.Hi {
			b.violations = append(b.violations,
				fmt.Sprintf("block %+v streamed [%d, %d] outside its hull", b.block, lo, hi))
		}
	}
	if p := b.block.Pitch; p > 0 {
		lo, hi := b.block.Lo-b.base, b.block.Hi-b.base
		for _, a := range trace.ExpandRuns(runs, nil) {
			if row, col := (a-b.base)/p, (a-b.base)%p; row < lo/p || row > hi/p || col < lo%p || col > hi%p {
				b.violations = append(b.violations, fmt.Sprintf("tile %+v streamed %d outside it", b.block, a))
			}
		}
	}
}

func (b *blockSkipper) BeginBlock(blk trace.Block) bool {
	if b.open {
		b.violations = append(b.violations, "BeginBlock inside an open block")
	}
	b.begins++
	k := [3]int64{blk.Off, blk.N, blk.Words}
	if b.seen[k] {
		b.skips++
		b.skipped += blk.Words
		return true
	}
	if b.seen == nil {
		b.seen = map[[3]int64]bool{}
	}
	b.seen[k] = true
	b.open, b.openWords, b.block = true, 0, blk
	return false
}

func (b *blockSkipper) ConsumeSweep(s trace.Sweep) { s.Unroll(b) }

func (b *blockSkipper) EndBlock() {
	if !b.open {
		b.violations = append(b.violations, "EndBlock without an open block")
	}
	if b.openWords != b.block.Words {
		b.violations = append(b.violations,
			fmt.Sprintf("block declared %d words, streamed %d", b.block.Words, b.openWords))
	}
	b.open = false
}

// TestFoldBlockBracketing pins the producer's side of trace.BlockConsumer:
// blocks are never nested, each carries exactly the words it declares and
// streams only addresses inside its declared hull, a skipped block
// generates nothing, and streamed plus skipped words add up to
// the closed-form access counts. It also pins which streams repeat: under OS
// the IFMAP block recurs per column fold and the filter block per row fold;
// under WS/IS the streaming operand recurs per column fold and the output
// block per row fold, while the stationary fill is never bracketed. The OS
// drain is bracketed once per fold as that fold's output tile, and no tile
// recurs.
func TestFoldBlockBracketing(t *testing.T) {
	for _, tc := range equivalenceCases() {
		for _, df := range config.Dataflows {
			cfg := tc.cfg.WithDataflow(df)
			t.Run(fmt.Sprintf("%s/%s", tc.name, df), func(t *testing.T) {
				var ifm, flt blockSkipper
				ofm := blockSkipper{base: cfg.OfmapOffset}
				res, err := RunWindow(tc.l, cfg, tc.win, Sinks{IfmapRead: &ifm, FilterRead: &flt, OfmapWrite: &ofm})
				if err != nil {
					t.Fatal(err)
				}
				// A block recurring per column fold is skipped FoldsC-1 times
				// in every row fold, and vice versa; none is never offered.
				type expect struct{ begins, skips int }
				folds := int(res.FoldsR * res.FoldsC)
				perColFold := expect{folds, int(res.FoldsR * (res.FoldsC - 1))}
				perRowFold := expect{folds, int((res.FoldsR - 1) * res.FoldsC)}
				var none, ifmWant, fltWant, ofmWant expect
				switch df {
				case config.OutputStationary:
					ifmWant, fltWant, ofmWant = perColFold, perRowFold, expect{folds, 0}
				case config.WeightStationary:
					ifmWant, fltWant, ofmWant = perColFold, none, perRowFold
				case config.InputStationary:
					ifmWant, fltWant, ofmWant = none, perColFold, perRowFold
				}
				for _, s := range []struct {
					name  string
					b     *blockSkipper
					total int64
					want  expect
				}{
					{"ifmap", &ifm, res.IfmapReads, ifmWant},
					{"filter", &flt, res.FilterReads, fltWant},
					{"ofmap", &ofm, res.OfmapWrites, ofmWant},
				} {
					if got := s.b.streamed + s.b.skipped; got != s.total {
						t.Errorf("%s: streamed %d + skipped %d != %d accesses", s.name, s.b.streamed, s.b.skipped, s.total)
					}
					if got := (expect{s.b.begins, s.b.skips}); got != s.want {
						t.Errorf("%s: blocks offered and skipped %+v, want %+v", s.name, got, s.want)
					}
					if s.b.open {
						t.Errorf("%s: block left open", s.name)
					}
					for _, v := range s.b.violations {
						t.Errorf("%s: %s", s.name, v)
					}
				}
			})
		}
	}
}

// blockReplays is a trace.BlockConsumer that never skips: it records every
// stream of every block and keeps the first one each key produced. It also
// checks each declared-distinct stream for a repeated address.
type blockReplays struct {
	first    map[[3]int64][]int64
	key      [3]int64
	distinct bool
	stream   []int64
	streams  int
	differ   [][3]int64
	repeats  [][3]int64
}

func (b *blockReplays) Consume(_ int64, addrs []int64) { b.stream = append(b.stream, addrs...) }

func (b *blockReplays) ConsumeRuns(_ int64, runs []trace.Run) {
	b.stream = trace.ExpandRuns(runs, b.stream)
}

func (b *blockReplays) BeginBlock(blk trace.Block) bool {
	b.key, b.distinct, b.stream = [3]int64{blk.Off, blk.N, blk.Words}, blk.Distinct, b.stream[:0]
	return false
}

func (b *blockReplays) ConsumeSweep(s trace.Sweep) { s.Unroll(b) }

func (b *blockReplays) EndBlock() {
	if b.first == nil {
		b.first = map[[3]int64][]int64{}
	}
	if b.distinct {
		sorted := slices.Clone(b.stream)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(b.stream) {
			b.repeats = append(b.repeats, b.key)
		}
	}
	first, ok := b.first[b.key]
	switch {
	case !ok:
		b.first[b.key] = append([]int64(nil), b.stream...)
	case !slices.Equal(first, b.stream):
		b.differ = append(b.differ, b.key)
	default:
		b.streams++
	}
}

// TestBlockReplaysSameSequence pins the sequence half of the
// trace.BlockConsumer contract, which the SRAM buffers' all-miss proofs rest
// on: every stream of one (off, n, words) key is the same addresses in the
// same order, and a block declared distinct repeats none of them, at every
// dataflow, with edge trimming and in a window.
func TestBlockReplaysSameSequence(t *testing.T) {
	for _, tc := range equivalenceCases() {
		for _, df := range config.Dataflows {
			cfg := tc.cfg.WithDataflow(df)
			t.Run(fmt.Sprintf("%s/%s", tc.name, df), func(t *testing.T) {
				var ifm, flt, ofm blockReplays
				if _, err := RunWindow(tc.l, cfg, tc.win, Sinks{IfmapRead: &ifm, FilterRead: &flt, OfmapWrite: &ofm}); err != nil {
					t.Fatal(err)
				}
				var repeats int
				for _, b := range []*blockReplays{&ifm, &flt, &ofm} {
					for _, k := range b.differ {
						t.Errorf("block %v streamed a different address sequence on a later stream", k)
					}
					for _, k := range b.repeats {
						t.Errorf("block %v is declared distinct but repeats an address", k)
					}
					repeats += b.streams
				}
				if repeats == 0 {
					t.Skip("no block streamed twice")
				}
			})
		}
	}
}

// call is one (cycle, runs) call as a consumer received it.
type call struct {
	cycle int64
	runs  []trace.Run
}

// callLog is a plain RunConsumer that keeps every call, run for run.
type callLog struct{ calls []call }

func (c *callLog) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(c, cycle, addrs) }

func (c *callLog) ConsumeRuns(cycle int64, runs []trace.Run) {
	c.calls = append(c.calls, call{cycle, slices.Clone(runs)})
}

// sweepLog is a callLog behind trace.BlockConsumer that streams every block
// and unrolls every sweep it receives through the shared helper.
type sweepLog struct {
	callLog
	sweeps, sweepCalls int64
	bad                []trace.Sweep
}

func (s *sweepLog) BeginBlock(trace.Block) bool { return false }
func (s *sweepLog) EndBlock()                   {}

func (s *sweepLog) ConsumeSweep(sw trace.Sweep) {
	if sw.Times < 2 {
		s.bad = append(s.bad, sw)
	}
	s.sweeps++
	s.sweepCalls += sw.Times
	sw.Unroll(&s.callLog)
}

// sweepCases are the layer shapes the sweep declaration is pinned on: a
// GEMM, a 1x1 convolution, a 3x3 stride-1 and a 7x7 stride-2 convolution
// (IFMAP window rows and OFMAP rows that wrap inside the wavefront), and a
// shape whose temporal extent is below the array's rows under every
// dataflow's moving operand.
func sweepCases() map[string]topology.Layer {
	return map[string]topology.Layer{
		"gemm":         topology.FromGEMM("gemm", 40, 24, 36),
		"conv1x1":      {Name: "c1", IfmapH: 7, IfmapW: 7, FilterH: 1, FilterW: 1, Channels: 16, NumFilters: 20, Stride: 1},
		"conv3x3":      {Name: "c3", IfmapH: 9, IfmapW: 9, FilterH: 3, FilterW: 3, Channels: 4, NumFilters: 12, Stride: 1},
		"conv7x7s2":    {Name: "c7", IfmapH: 21, IfmapW: 21, FilterH: 7, FilterW: 7, Channels: 3, NumFilters: 8, Stride: 2},
		"t_below_rows": {Name: "tb", IfmapH: 8, IfmapW: 8, FilterH: 1, FilterW: 1, Channels: 2, NumFilters: 3, Stride: 1},
	}
}

// TestSweepsMatchCalls pins the producer's side of trace.Sweep: a
// BlockConsumer that unrolls every sweep it receives sees exactly the
// (cycle, runs) calls a plain RunConsumer receives — same split, counts and
// strides, run for run — on every stream, for every dataflow, shape, array,
// edge trimming and a partition window. Sweeps must fire on every stream,
// and every sweep stands for two calls or more.
func TestSweepsMatchCalls(t *testing.T) {
	var sweeps [3]int64
	for name, l := range sweepCases() {
		for _, df := range config.Dataflows {
			for _, arr := range [][2]int{{8, 8}, {5, 3}} {
				for _, trim := range []bool{false, true} {
					for _, windowed := range []bool{false, true} {
						cfg := config.New().WithArray(arr[0], arr[1]).WithDataflow(df)
						cfg.EdgeTrim = trim
						var win Window
						if m := dataflow.Map(l, df); windowed {
							win = Window{SrOff: m.Sr / 3, ScOff: m.Sc / 4, SrLen: m.Sr - m.Sr/3 - m.Sr/5, ScLen: m.Sc - m.Sc/4}
						}
						t.Run(fmt.Sprintf("%s/%s/%dx%d/trim=%t/window=%t", name, df, arr[0], arr[1], trim, windowed), func(t *testing.T) {
							var plain [3]callLog
							var swept [3]sweepLog
							if _, err := RunWindow(l, cfg, win, Sinks{IfmapRead: &plain[0], FilterRead: &plain[1], OfmapWrite: &plain[2]}); err != nil {
								t.Fatal(err)
							}
							if _, err := RunWindow(l, cfg, win, Sinks{IfmapRead: &swept[0], FilterRead: &swept[1], OfmapWrite: &swept[2]}); err != nil {
								t.Fatal(err)
							}
							for i, stream := range []string{"ifmap", "filter", "ofmap"} {
								got, want := swept[i].calls, plain[i].calls
								if !reflect.DeepEqual(got, want) {
									t.Errorf("%s: %d calls through sweeps, %d plain; first difference at %d",
										stream, len(got), len(want), firstDiff(got, want))
								}
								for _, sw := range swept[i].bad {
									t.Errorf("%s: a sweep of %d calls at cycle %d", stream, sw.Times, sw.Cycle)
								}
								sweeps[i] += swept[i].sweeps
							}
						})
					}
				}
			}
		}
	}
	if sweeps[0] == 0 || sweeps[1] == 0 || sweeps[2] == 0 {
		t.Errorf("sweeps declared on the IFMAP, filter and OFMAP streams: %v", sweeps)
	}
}

func firstDiff(a, b []call) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}
