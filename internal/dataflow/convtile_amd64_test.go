package dataflow

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"condor/internal/nn"
)

// The AVX2 tile must be the Go tile, eight lanes at a time: every cell the
// same float32 bits, on stacks whose values make a changed rounding visible.

// hostileWord draws ±0, a subnormal or an ordinary value, and — for weights
// — sometimes a huge one, so that a product rounded differently (a fused
// multiply-add) or a sum taken in another order changes the result.
func hostileWord(rng *rand.Rand, weight bool) float32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(rng.NormFloat64() * 1e-39)
	case 3:
		if weight {
			return float32(rng.NormFloat64() * 1e30)
		}
	}
	return float32(rng.NormFloat64())
}

func TestConvTile8MatchesGoTile(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(26))
	var cells, fusedDiffer int
	for _, c := range []int{1, 2, 3, 7, 20, 24} {
		for _, k := range []int{1, 3, 5} {
			for pw := 8; pw <= 40; pw++ {
				outW := pw - k + 1
				if outW < convLanes {
					continue
				}
				// Two output rows, so the last tile's last tap reads the
				// stack's final word.
				l := LayerHW{Kind: nn.Conv, Kernel: k, Stride: 1,
					InShape:  nn.Shape{Channels: c, Height: k + 1, Width: pw},
					OutShape: nn.Shape{Channels: 4, Height: 2, Width: outW}}
				taps := tapOffsets(&l)
				stack := make([]float32, c*l.PaddedHeight()*pw)
				for i := range stack {
					stack[i] = hostileWord(rng, false)
				}
				w := make([]float32, 4*len(taps))
				for i := range w {
					w[i] = hostileWord(rng, true)
				}
				if !convTile8OK(&l, taps, len(taps), len(w), len(stack)) {
					t.Fatalf("C=%d K=%d pw=%d: convTile8OK refused a well-formed layer", c, k, pw)
				}
				rows := [4][]float32{w[:len(taps)], w[len(taps) : 2*len(taps)], w[2*len(taps) : 3*len(taps)], w[3*len(taps):]}
				for oy := 0; oy < 2; oy++ {
					for ox := 0; ox < outW; ox += convLanes {
						col := min(ox, outW-convLanes)
						base := oy*pw + col
						// With zero biases the tile stores chain + 0: the
						// chain, a −0 one as +0.
						var got [4][convLanes]float32
						convTile8(&stack[base], &taps[0], len(taps), &rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0],
							&got[0][0], &got[1][0], &got[2][0], &got[3][0], 0, 0, 0, 0)
						var want [4][convLanes]float32
						for half := 0; half < convLanes; half += convPosTile {
							for pair := 0; pair < 4; pair += 2 {
								a, b := convTileGo[float32, float32](stack[base+half:], 1, 2, 3, rows[pair], rows[pair+1], taps)
								copy(want[pair][half:], a[:])
								copy(want[pair+1][half:], b[:])
							}
						}
						for j := range got {
							for i := range got[j] {
								cells++
								if math.Float32bits(got[j][i]) != math.Float32bits(want[j][i]+0) {
									t.Fatalf("C=%d K=%d pw=%d row %d col %d: channel %d lane %d = %g (%#08x), Go tile %g (%#08x)",
										c, k, pw, oy, col, j, i, got[j][i], math.Float32bits(got[j][i]), want[j][i]+0, math.Float32bits(want[j][i]+0))
								}
								if fused := fusedChain(stack[base+i:], rows[j], taps); math.Float32bits(fused) != math.Float32bits(want[j][i]) {
									fusedDiffer++
								}
							}
						}
					}
				}
			}
		}
	}
	// The sweep is only a test of "no FMA" if one would have shown.
	if fusedDiffer == 0 {
		t.Fatalf("a fused-multiply-add chain matched all %d cells: the values cannot tell the roundings apart", cells)
	}
	t.Logf("%d cells bit-identical; a fused chain differs on %d", cells, fusedDiffer)
}

// fusedChain is one cell's chain with each product added unrounded, as a
// fused multiply-add does: the float64 product of two float32 values is
// exact, so only the sum is rounded (to float64, then float32 — a rare double
// rounding aside, the FMA result).
func fusedChain(win, w []float32, taps []int32) float32 {
	var acc float32
	for t, o := range taps {
		acc = float32(float64(acc) + float64(w[t])*float64(win[o]))
	}
	return acc
}

// TestConvTile8OKGuards pins what sends a layer back to the Go tile: the
// geometry the AVX2 tiles do not cover, and anything that would let their
// unchecked loads leave the stack or a weight row — for the float32 tile
// (one tap per weight word over the word stack) and the int8 tile (a tap
// pair per weight word over the pair planes) alike. The well-formed layers
// read their stacks' last word: the last row pair's second row is the
// layer's last row, also at an odd height and for a one-row layer.
func TestConvTile8OKGuards(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	type guard struct {
		l                      LayerHW
		taps                   []int32
		row, weights, stackLen int
	}
	// Channels 3 × 3×3 taps: the int8 tile pairs channels 0 and 1 at the 9
	// taps and channel 2's taps (m,0)+(m,1) and (m,2)+zero, 15 steps over
	// two pair planes.
	geom := func(stride, outH, outW int, int8Codes bool) guard {
		l := LayerHW{Kind: nn.Conv, Kernel: 3, Stride: stride,
			InShape:  nn.Shape{Channels: 3, Height: (outH-1)*stride + 3, Width: (outW-1)*stride + 3},
			OutShape: nn.Shape{Channels: 3, Height: outH, Width: outW}}
		plane := l.PaddedHeight() * l.PaddedWidth()
		g := guard{l: l, taps: tapOffsets(&l), stackLen: l.InShape.Channels * plane}
		if int8Codes {
			g.taps, g.stackLen = pairTapOffsets(&l), (l.InShape.Channels+1)/2*plane
		}
		g.row = len(g.taps)
		g.weights = l.OutShape.Channels * g.row
		return g
	}
	for _, dtype := range []string{"float32", "int8"} {
		int8Codes := dtype == "int8"
		ok := geom(1, 3, 8, int8Codes)
		if int8Codes && ok.row != 15 {
			t.Fatalf("int8 geometry: %d-word pair rows; want 15", ok.row)
		}
		with := func(edit func(*guard)) guard {
			g := ok
			g.taps = slices.Clone(ok.taps)
			edit(&g)
			return g
		}
		for _, tc := range []struct {
			name  string
			g     guard
			admit bool
		}{
			{"well-formed", ok, true},
			{"even height", geom(1, 4, 8, int8Codes), true},
			{"one row", geom(1, 1, 9, int8Codes), true},
			{"one row, stack one element short", with(func(g *guard) { *g = geom(1, 1, 9, int8Codes); g.stackLen-- }), false},
			{"stride 2", geom(2, 3, 8, int8Codes), false},
			{"outW 7", geom(1, 3, 7, int8Codes), false},
			{"stack one element short", with(func(g *guard) { g.stackLen-- }), false},
			{"taps out of order", with(func(g *guard) { g.taps[1], g.taps[2] = g.taps[2], g.taps[1] }), false},
			{"negative first tap", with(func(g *guard) { g.taps[0] = -1 }), false},
			{"short weight table", with(func(g *guard) { g.weights-- }), false},
		} {
			if got := convTile8OK(&tc.g.l, tc.g.taps, tc.g.row, tc.g.weights, tc.g.stackLen); got != tc.admit {
				t.Errorf("%s/%s: convTile8OK = %v, want %v", dtype, tc.name, got, tc.admit)
			}
		}
	}
}

// The int8 tiles must be the Go kernels, sixteen products at a time: every
// sum the same int32, on codes at both ends of the int8 range and on chains
// as deep as rule CND026 admits.

// hostileCode draws an extreme code (−128, −127, 127), zero or any code.
func hostileCode(rng *rand.Rand) int8 {
	switch rng.Intn(5) {
	case 0:
		return -128
	case 1:
		return -127
	case 2:
		return 0
	case 3:
		return 127
	}
	return int8(rng.Intn(256) - 128)
}

// tileEpilogue is what the int8 tile's epilogue is given: the
// dequantization scale, the four channels' biases, the ReLU flag and the
// channels' running maxima to fold into.
type tileEpilogue struct {
	deq  float64
	bias [4]float32
	relu bool
	m    [4]uint32
}

// checkConvTile8I8 runs every tile of a conv layer of c input channels,
// k×k taps, padding pad and an outH × outW output of f ≤ 4 channels (one
// quad, which repeats its last channel when f < 4) on the AVX2 int8 tile,
// over the layer's pair planes and row pairs as run8 walks them, with the
// epilogue that epi picks from the Go tile's sums, and compares what it
// stores and the channel maxima it folds with the Go tile's sums through
// deqStoreGo, bit for bit, both over the same padded code stack. A row's
// last tile overlaps the one before unless the row is a whole number of
// tiles, an odd height's last row pair overlaps the one before, and a
// one-row layer runs its row as both. It returns the reference floats.
func checkConvTile8I8(t *testing.T, c, k, pad, outH, outW, f int, code, weight func() int8, epi func(sums [][]int32) tileEpilogue) []float32 {
	t.Helper()
	l := convLayerHW(c, outH+k-1-2*pad, outW+k-1-2*pad, k, 1, pad, f)
	if d := Int8AccumulatorRange("pe0", &l); d != nil {
		t.Fatal(d)
	}
	in := make([]int8, l.InShape.Volume())
	for i := range in {
		in[i] = code()
	}
	plane, pw := l.PaddedHeight()*l.PaddedWidth(), l.PaddedWidth()
	stack := stackPlanes(make([]int8, c*plane), &l, in)
	taps := tapOffsets(&l)
	w := make([]int8, f*len(taps))
	for i := range w {
		w[i] = weight()
	}
	taps2, tp := pairTapOffsets(&l), convPairWeights(&l, w)
	pairs := len(taps2)
	planes := make([]uint32, (c+1)/2*plane)
	stagePairPlanes(planes, stack, &l)
	if !convTile8OK(&l, taps2, pairs, len(tp), len(planes)) {
		t.Fatalf("C=%d K=%d pad=%d %dx%d: convTile8OK refused a well-formed layer", c, k, pad, outH, outW)
	}
	hw := outH * outW
	sums := make([][]int32, f)
	for fi := range sums {
		sums[fi] = make([]int32, hw)
		row := w[fi*len(taps):][:len(taps)]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox += convPosTile {
				n := min(convPosTile, outW-ox)
				a, _ := convTileGo[int8, int32](stack[oy*pw+ox:], min(1, n-1), min(2, n-1), n-1, row, row, taps)
				copy(sums[fi][oy*outW+ox:][:n], a[:])
			}
		}
	}
	e := epi(sums)
	act := NoActivation
	if e.relu {
		act = nn.ReLU
	}
	want, wantM := make([]float32, f*hw), e.m
	for fi, s := range sums {
		wantM[fi] = deqStoreGo(want[fi*hw:][:hw], s, e.deq, float64(e.bias[fi]), act, e.m[fi])
	}
	got, gotM := make([]float32, f*hw), e.m
	q := quad(0, f)
	rowIn, rowOut := pw, outW
	if outH == 1 {
		rowIn, rowOut = 0, 0
	}
	for oy := 0; oy < outH; oy += 2 {
		y := max(min(oy, outH-2), 0)
		for ox := 0; ox < outW; ox += convLanes {
			col := min(ox, outW-convLanes)
			pos := y*outW + col
			convTile16I8(&planes[y*pw+col], &taps2[0], pairs, &tp[q[0]*pairs], &tp[q[1]*pairs], &tp[q[2]*pairs], &tp[q[3]*pairs], rowIn,
				&got[q[0]*hw+pos], &got[q[1]*hw+pos], &got[q[2]*hw+pos], &got[q[3]*hw+pos], rowOut,
				e.deq, e.bias[q[0]], e.bias[q[1]], e.bias[q[2]], e.bias[q[3]], e.relu, &gotM[q[0]], &gotM[q[1]], &gotM[q[2]], &gotM[q[3]])
		}
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			fi, pos := i/hw, i%hw
			t.Fatalf("C=%d K=%d pad=%d %dx%d F=%d channel %d position %d: sum %d · %g + %g, relu %v: AVX2 stored %g (%#08x), Go tile + deqStoreGo %g (%#08x)",
				c, k, pad, outH, outW, f, fi, pos, sums[fi][pos], e.deq, e.bias[fi], e.relu, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if gotM != wantM {
		t.Fatalf("C=%d K=%d pad=%d %dx%d F=%d relu %v: channel maxima %#08x, Go tile + deqStoreGo %#08x (start %#08x)", c, k, pad, outH, outW, f, e.relu, gotM[:f], wantM[:f], e.m[:f])
	}
	return want
}

// tileSweep lists the int8 tile's test geometries: input channel counts
// that pair up and that leave a last channel alone (and one deep stack),
// odd and even kernels — whose last channel's last row step pairs a tap
// with a zero or not — padding 0 to 2, output heights of one row, odd and
// even, and widths whose rows are and are not a whole number of tiles.
func tileSweep(visit func(c, k, pad, outH, outW int)) {
	for _, c := range []int{1, 2, 3, 20} {
		for _, k := range []int{1, 2, 3, 5} {
			for pad := 0; pad <= min(2, k-1); pad++ {
				for _, outH := range []int{1, 3, 4} {
					if outH+k-1-2*pad < 1 {
						continue // no input row left
					}
					for _, outW := range []int{8, 11, 16, 21} {
						visit(c, k, pad, outH, outW)
					}
				}
			}
		}
	}
}

// TestConvTile8I8MatchesGoTile holds the int8 tile, sums and epilogue, to the
// Go tile and deqStoreGo over tileSweep's geometries and quads that repeat a
// channel: once at scale 1 with no bias — which stores every sum of the
// sweep exactly, |sum| ≤ 500·128² < 2²⁴ — and twice with deqCase's scales
// and biases, with and without ReLU, which must push −0 through ReLU, NaN
// and ±Inf lanes through the epilogue; then on the deepest chains CND026
// admits, where a bias cancels the sum exactly.
func TestConvTile8I8MatchesGoTile(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(27))
	draw := func() int8 { return hostileCode(rng) }
	exact := func([][]int32) tileEpilogue { return tileEpilogue{deq: 1} }
	hostile := func(relu bool) func([][]int32) tileEpilogue {
		return func([][]int32) tileEpilogue {
			e := tileEpilogue{relu: relu}
			for j := range e.bias {
				var b float64
				e.deq, b = deqScaleBias(rng)
				e.bias[j] = float32(b)
				e.m[j] = []uint32{0, rng.Uint32() >> 1, 0x7f800000}[rng.Intn(3)]
			}
			return e
		}
	}
	var cells, negZero, nan, inf int
	tileSweep(func(c, k, pad, outH, outW int) {
		f := 3 + outW%2 // F = 3 repeats the last channel
		cells += len(checkConvTile8I8(t, c, k, pad, outH, outW, f, draw, draw, exact))
		for _, relu := range []bool{false, true} {
			for _, v := range checkConvTile8I8(t, c, k, pad, outH, outW, f, draw, draw, hostile(relu)) {
				cells++
				switch v := float64(v); {
				case math.IsNaN(v):
					nan++
				case math.IsInf(v, 0):
					inf++
				case v == 0 && math.Signbit(v) && relu:
					negZero++
				}
			}
		}
	})
	if negZero == 0 || nan == 0 || inf == 0 {
		t.Fatalf("the epilogues missed a class: %d −0 lanes through ReLU, %d NaN lanes, %d ±Inf lanes", negZero, nan, inf)
	}
	// The deepest chain CND026 admits, every product at an extreme of one
	// sign: 131 067 products of −128·−128 or −128·127 sum to 99.996 % and
	// −99.2 % of the int32 range. Both sums are float32s, so each channel's
	// bias cancels its sum exactly and every cell must store +0: a lane that
	// wrapped, or a sum off by one, would show. The channel count is odd, so
	// the last channel's row steps run too.
	const depthC = (1<<31/(128*128) - 1) / 9
	cancel := func(sums [][]int32) tileEpilogue {
		e := tileEpilogue{deq: 1}
		for j, s := range sums {
			if e.bias[j] = -float32(s[0]); int32(e.bias[j]) != -s[0] {
				t.Fatalf("saturated sum %d is not a float32", s[0])
			}
		}
		return e
	}
	for _, wcode := range []int8{-128, 127} {
		for i, v := range checkConvTile8I8(t, depthC, 3, 0, 2, 8, 4, func() int8 { return -128 }, func() int8 { return wcode }, cancel) {
			if math.Float32bits(v) != 0 {
				t.Fatalf("weight code %d: cell %d stores %g, not +0", wcode, i, v)
			}
			cells++
		}
	}
	t.Logf("%d int8 cells identical to the Go tile + deqStoreGo (%d −0 through ReLU, %d NaN, %d ±Inf)", cells, negZero, nan, inf)
}

// TestConvTile8I8StoreMatchesGo runs int8 conv layers through the executor
// twice — on the AVX2 tile, whose epilogue stores its own cells and folds
// the channel maxima, and on the Go tile (convTileGo, then store4) — over
// tileSweep's geometries, channel counts that end inside a quad and every
// folded activation. The float stage, the output codes and the output scale
// must match bit for bit: a Sigmoid or TanH layer, which the tile stores
// unactivated, is activated after it and its scale scanned.
func TestConvTile8I8StoreMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(56))
	acts := []nn.Kind{NoActivation, nn.ReLU, nn.Sigmoid, nn.TanH}
	cells, run := 0, 0
	tileSweep(func(c, k, pad, outH, outW int) {
		run++
		h, w := outH+k-1-2*pad, outW+k-1-2*pad
		f := []int{1, 3, 4, 6, 11}[run%5]
		l := convLayerHW(c, h, w, k, 1, pad, f)
		l.Name, l.Activation, l.Normalize = "conv", acts[run%len(acts)], NoActivation
		wf := make([]float32, l.WeightWords())
		for i := range wf {
			wf[i] = float32(rng.NormFloat64())
		}
		x := newI8Exec(oneLayerPE(t, 8, l, wf, randomBias(rng, f)))
		x.prepare()
		p, o := &x.pass, x.el.(*i8Ops)
		p.cur, p.inScale = withSlack(randomCodes(rng, l.InShape.Volume())), 0.001+0.1*rng.Float64()
		x.runLayer0()
		if !o.tiles.tile8 {
			t.Fatalf("run %d: C=%d K=%d pad=%d %dx%d: the layer did not run on the AVX2 tile", run, c, k, pad, h, w)
		}
		vol := l.OutShape.Volume()
		floats, codes, scale := slices.Clone(x.el.floats(vol)), slices.Clone(p.out), p.outScale
		withoutAVX2(func() { x.runLayer0() })
		if o.tiles.tile8 {
			t.Fatal("the Go leg ran on the AVX2 tile")
		}
		for i, want := range x.el.floats(vol) {
			if math.Float32bits(floats[i]) != math.Float32bits(want) {
				t.Fatalf("run %d: C=%d K=%d pad=%d %dx%d F=%d act %v cell %d: AVX2 %g (%#08x), Go %g (%#08x)",
					run, c, k, pad, h, w, f, l.Activation, i, floats[i], math.Float32bits(floats[i]), want, math.Float32bits(want))
			}
		}
		if scale != p.outScale || !slices.Equal(codes, p.out) {
			t.Fatalf("run %d: act %v: AVX2 scale %g, Go %g; codes equal: %v", run, l.Activation, scale, p.outScale, slices.Equal(codes, p.out))
		}
		cells += vol
	})
	t.Logf("%d int8 cells bit-identical to the Go tile, every activation, over %d layers", cells, run)
}

// TestFCDot4I8MatchesGoFCBand runs each FC layer through the executor twice
// over the same row-major codes — on the AVX2 kernel, and on the Go tile —
// with neuron counts that end inside a quad. Scale 1 and no bias make each
// output the exact sum (|sum| < 2²⁴).
func TestFCDot4I8MatchesGoFCBand(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every FC layer runs the Go kernel")
	}
	rng := rand.New(rand.NewSource(28))
	for _, v := range []int{1, 15, 16, 17, 31, 800} {
		for _, neurons := range []int{1, 3, 5, 7, 9, 13} {
			tc := int8KernelCase{l: fcLayerHW(v, neurons), scale: 1,
				in: make([]int8, v), w: make([]int8, neurons*v)}
			for i := range tc.in {
				tc.in[i] = hostileCode(rng)
			}
			for i := range tc.w {
				tc.w[i] = max(hostileCode(rng), -127) // weights are symmetric codes
			}
			tc.w[rng.Intn(len(tc.w))] = 127
			var tile8 bool
			got := runInt8Kernel(t, tc, func(st *layerState) { tile8 = st.tile8 })
			if !tile8 {
				t.Fatalf("v=%d o=%d: the layer did not resolve to the AVX2 kernel", v, neurons)
			}
			got = slices.Clone(got)
			want := runInt8Kernel(t, tc, func(st *layerState) { st.tile8 = false })
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("v=%d o=%d neuron %d: AVX2 %v, Go %v", v, neurons, i, got[i], want[i])
				}
			}
		}
	}
}

// newFloatExec prepares a float32 executor for a one-layer PE, lowered with
// the layer's weights (if any), and its input staged as a worker stages
// it.
func newFloatExec(t *testing.T, l LayerHW, w, bias, in []float32) *peExec[float32] {
	t.Helper()
	l.Activation, l.Normalize = NoActivation, NoActivation
	x := newF32Exec(oneLayerPE(t, 32, l, w, bias))
	x.prepare()
	x.pass.cur = withSlack(in)
	return x
}

// TestFCRows8MatchesGoFCBand runs each FC layer through the executor twice —
// once with AVX2, which puts every whole group of eight neurons on the AVX2
// kernel and reruns a ragged last group as the layer's last eight, and once
// with the Go tile forced — over neuron counts on both sides of one and two
// groups. Inputs past the last whole 8-input block (v = 9, 15, 17) are the
// Go tile's either way. Inputs draw ±0, ±Inf, subnormals and ordinary
// values, weights also huge ones: every neuron must match bit for bit (two
// NaNs match), and on enough of them a fused chain must not, or the sweep
// could not see an FMA.
func TestFCRows8MatchesGoFCBand(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every FC layer runs the Go band")
	}
	rng := rand.New(rand.NewSource(29))
	var neuronsRun, fusedDiffer int
	for _, v := range []int{1, 7, 8, 9, 15, 16, 17, 800} {
		for neurons := 1; neurons <= 17; neurons++ {
			in := make([]float32, v)
			for i := range in {
				in[i] = hostileWord(rng, false)
				if rng.Intn(50) == 0 {
					in[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
				}
			}
			w := make([]float32, neurons*v)
			for i := range w {
				w[i] = hostileWord(rng, true)
			}
			for _, bias := range [][]float32{nil, randomBias(rng, neurons)} {
				l := fcLayerHW(v, neurons)
				l.Name = "fc"
				x := newFloatExec(t, l, w, bias, in)
				p := &x.pass
				x.runLayer0()
				got := slices.Clone(p.out)
				withoutAVX2(func() { x.runLayer0() })
				for oi, want := range p.out {
					if math.Float32bits(got[oi]) != math.Float32bits(want) && !(isNaN32(got[oi]) && isNaN32(want)) {
						t.Fatalf("v=%d o=%d bias=%v neuron %d: AVX2 %g (%#08x), Go band %g (%#08x)",
							v, neurons, bias != nil, oi, got[oi], math.Float32bits(got[oi]), want, math.Float32bits(want))
					}
					neuronsRun++
					fused := biasAt(bias, oi)
					for h, xv := range in {
						fused = float32(float64(fused) + float64(w[oi*v+h])*float64(xv))
					}
					if math.Float32bits(fused) != math.Float32bits(want) {
						fusedDiffer++
					}
				}
			}
		}
	}
	if fusedDiffer == 0 {
		t.Fatalf("a fused-multiply-add chain matched all %d neurons: the values cannot tell the roundings apart", neuronsRun)
	}
	t.Logf("%d neurons bit-identical to the Go band; a fused chain differs on %d", neuronsRun, fusedDiffer)
}

func isNaN32(v float32) bool { return math.IsNaN(float64(v)) }

// TestFCLanes8MatchesRowKernels runs float32 FC layers of v ∈ {1, 7, 8, 9,
// 800} inputs and {4, 5, 10, 500} neurons, with and without bias, over
// chunks of 2–8 images through the executor's chunk pass (run), which puts
// the chunk on the image-lane kernel fcLanes8, and each image alone through
// the per-image pass, which puts it on fcRows8 and the Go band: every sum
// must match bit for bit (two NaNs match). Under DisableAVX2 the chunk pass
// runs the Go band image by image over the same chunk layout.
func TestFCLanes8MatchesRowKernels(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every FC layer runs the Go band")
	}
	rng := rand.New(rand.NewSource(53))
	var sums int
	for _, leg := range []struct {
		name   string
		noAVX2 bool
	}{{"AVX2", false}, {"DisableAVX2", true}} {
		t.Run(leg.name, func(t *testing.T) {
			if leg.noAVX2 {
				DisableAVX2(t)
			}
			for _, v := range []int{1, 7, 8, 9, 800} {
				for _, neurons := range []int{4, 5, 10, 500} {
					w := make([]float32, neurons*v)
					for i := range w {
						w[i] = hostileWord(rng, true)
					}
					for _, bias := range [][]float32{nil, randomBias(rng, neurons)} {
						l := fcLayerHW(v, neurons)
						l.Name = "fc"
						for c := 2; c <= convLanes; c++ {
							x := newFloatExec(t, l, w, bias, nil)
							wk := &worker[float32]{pes: []*peExec[float32]{x}, stride: max(v, neurons) + poolSlack}
							for side := range wk.vols {
								wk.vols[side], wk.scales[side] = make([]float32, c*wk.stride), make([]float64, c)
							}
							ins := make([][]float32, c)
							for i := range ins {
								ins[i] = make([]float32, v)
								for h := range ins[i] {
									ins[i][h] = hostileWord(rng, false)
								}
								copy(wk.vols[0][i*wk.stride:], ins[i])
							}
							out := wk.vols[x.run(wk, 0, 0, c)]
							if lanes := len(x.el.(*f32Ops).lanes) > 0; lanes == leg.noAVX2 {
								t.Fatalf("v=%d o=%d c=%d: the chunk ran on the lane kernel: %v", v, neurons, c, lanes)
							}
							for i, in := range ins {
								one := newFloatExec(t, l, w, bias, in)
								one.runLayer0()
								for oi, want := range one.pass.out {
									if got := out[i*wk.stride+oi]; math.Float32bits(got) != math.Float32bits(want) && !(isNaN32(got) && isNaN32(want)) {
										t.Fatalf("v=%d o=%d bias=%v c=%d image %d neuron %d: chunk %g (%#08x), one image %g (%#08x)",
											v, neurons, bias != nil, c, i, oi, got, math.Float32bits(got), want, math.Float32bits(want))
									}
									sums++
								}
							}
						}
					}
				}
			}
		})
	}
	t.Logf("%d sums bit-identical to the row kernels", sums)
}

// dot4Sums is i8Ops.fc's integer part on one image: each neuron's sum over
// the row-major codes from fcDot4I8's whole 16-code blocks, its lanes added
// up, and fcTileGo past them.
func dot4Sums(in, w []int8, neurons int) []int32 {
	v := len(in)
	body := v &^ 15
	out := make([]int32, neurons)
	for oi := 0; oi < neurons; oi += 4 {
		f := quad(oi, neurons)
		var acc [4][convLanes]int32
		var s [4]int32
		fcDot4I8(&in[0], body/16, &w[f[0]*v], &w[f[1]*v], &w[f[2]*v], &w[f[3]*v], &acc)
		for j := range s {
			for _, a := range acc[j] {
				s[j] += a
			}
		}
		s = fcTileGo(in[body:], w[body:], v, f, s)
		for j, fj := range f {
			out[fj] = s[j]
		}
	}
	return out
}

// lanes8I8Sums runs fcLanes8I8 over the images ins (at most convLanes),
// staged and grouped as i8Ops.fcChunk stages and groups them, and returns
// each image's neuron sums; the idle lanes must sum to zero.
func lanes8I8Sums(t *testing.T, ins [][]int8, w []int8, neurons int) [][]int32 {
	t.Helper()
	v := len(ins[0])
	pairs := (v + 1) / 2
	lanes, table := make([]uint32, pairs*convLanes), pairWeights(w, v)
	for i, in := range ins {
		pairCodes(lanes[i:], convLanes, in)
	}
	out := make([][]int32, len(ins))
	for i := range out {
		out[i] = make([]int32, neurons)
	}
	var rows [convLanes]*uint32
	var acc [convLanes][convLanes]int32
	for g := 0; g < neurons; g += convLanes {
		first := min(g, max(neurons-convLanes, 0))
		for j := range rows {
			rows[j] = &table[min(first+j, neurons-1)*pairs]
		}
		fcLanes8I8(&lanes[0], pairs, &rows, &acc)
		for j := range rows {
			for i, a := range acc[j] {
				if i >= len(ins) {
					if a != 0 {
						t.Fatalf("v=%d o=%d c=%d: idle lane %d of neuron %d sums to %d", v, neurons, len(ins), i, first+j, a)
					}
					continue
				}
				out[i][min(first+j, neurons-1)] = a
			}
		}
	}
	return out
}

// TestFCLanes8I8MatchesDot4 holds the int8 image-lane FC kernel to the
// per-image kernel (fcDot4I8 + fcTileGo) and to a plain int32 loop, sum for
// sum: over odd input volumes, where the last pair's high half is zero,
// neuron counts below convLanes and not a multiple of it (LeNet ip2's 10),
// chunks of 2–8 images, so that lanes sit idle, and codes saturated at
// ±127/−128 at CND026's depth limit. Then the executor's chunk pass
// (fcChunk, per-image input scales) must leave each image the codes, output
// scale and float results of the per-image pass; under DisableAVX2 it
// declines and the chunk runs image by image.
func TestFCLanes8I8MatchesDot4(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every FC layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(54))
	check := func(ins [][]int8, w []int8, neurons int) int {
		got := lanes8I8Sums(t, ins, w, neurons)
		for i, in := range ins {
			dot4, plain := dot4Sums(in, w, neurons), refFCInt8(in, w, neurons)
			for oi := range plain {
				if got[i][oi] != dot4[oi] || got[i][oi] != plain[oi] {
					t.Fatalf("v=%d o=%d c=%d image %d neuron %d: lanes %d, fcDot4I8+fcTileGo %d, int32 loop %d",
						len(in), neurons, len(ins), i, oi, got[i][oi], dot4[oi], plain[oi])
				}
			}
		}
		return len(ins) * neurons
	}
	sums := 0
	for _, v := range []int{1, 2, 15, 16, 17, 31, 33, 800, 801} {
		for _, neurons := range []int{1, 3, 7, 8, 10, 13, 17} {
			w := make([]int8, neurons*v)
			for i := range w {
				w[i] = hostileCode(rng)
			}
			for c := 2; c <= convLanes; c++ {
				ins := make([][]int8, c)
				for i := range ins {
					ins[i] = make([]int8, v)
					for h := range ins[i] {
						ins[i][h] = hostileCode(rng)
					}
				}
				sums += check(ins, w, neurons)
			}
		}
	}
	// CND026's depth limit, odd: each image's codes and each neuron's
	// weights are all −128, all 127 or the two alternating, so the lanes hold
	// the largest sums of both signs, −128·−128 products summing to 99.999 %
	// of the int32 range.
	const depth = 1<<31/(128*128) - 1
	fill := func(codes []int8, k int) {
		for h := range codes {
			switch {
			case k%3 == 0, k%3 == 2 && h%2 == 0:
				codes[h] = -128
			default:
				codes[h] = 127
			}
		}
	}
	const neurons = 10
	w := make([]int8, neurons*depth)
	for oi := 0; oi < neurons; oi++ {
		fill(w[oi*depth:][:depth], oi)
	}
	ins := make([][]int8, convLanes)
	for i := range ins {
		ins[i] = make([]int8, depth)
		fill(ins[i], i+1)
	}
	sums += check(ins, w, neurons)
	t.Logf("%d int8 sums identical to fcDot4I8+fcTileGo and the int32 loop", sums)

	for _, leg := range []struct {
		name   string
		noAVX2 bool
	}{{"AVX2", false}, {"DisableAVX2", true}} {
		t.Run(leg.name, func(t *testing.T) {
			if leg.noAVX2 {
				DisableAVX2(t)
			}
			for _, v := range []int{9, 800} {
				for _, neurons := range []int{5, 10, 500} {
					l := fcLayerHW(v, neurons)
					l.Name = "fc"
					wf, bias := make([]float32, neurons*v), randomBias(rng, neurons)
					for i := range wf {
						wf[i] = float32(rng.NormFloat64())
					}
					for c := 2; c <= convLanes; c++ {
						l.Activation, l.Normalize = nn.ReLU, NoActivation
						if c%2 == 0 {
							l.Activation, l.Normalize = NoActivation, nn.LogSoftMax
						}
						x := newI8Exec(oneLayerPE(t, 8, l, wf, bias))
						x.prepare()
						wk := &worker[int8]{pes: []*peExec[int8]{x}, stride: max(v, neurons) + poolSlack}
						for side := range wk.vols {
							wk.vols[side], wk.scales[side] = make([]int8, c*wk.stride), make([]float64, c)
						}
						ins := make([][]int8, c)
						for i := range ins {
							ins[i] = randomCodes(rng, v)
							copy(wk.vols[0][i*wk.stride:], ins[i])
							wk.scales[0][i] = math.Ldexp(1+rng.Float64(), -rng.Intn(12))
						}
						side := x.run(wk, 0, 0, c)
						o := x.el.(*i8Ops)
						if lanes := len(o.lanes) > 0; lanes == leg.noAVX2 {
							t.Fatalf("v=%d o=%d c=%d: the chunk ran on the lane kernel: %v", v, neurons, c, lanes)
						}
						var maxRequant float64
						for i, in := range ins {
							one := newI8Exec(oneLayerPE(t, 8, l, wf, bias))
							one.prepare()
							one.pass.cur, one.pass.inScale = withSlack(in), wk.scales[0][i]
							one.runLayer0()
							maxRequant = max(maxRequant, one.pass.outScale)
							if got, want := wk.scales[side][i], one.pass.outScale; got != want {
								t.Fatalf("v=%d o=%d c=%d image %d: output scale %g, one image %g", v, neurons, c, i, got, want)
							}
							if !leg.noAVX2 {
								for oi, want := range one.el.floats(neurons) {
									if got := o.sums[i*neurons+oi]; math.Float32bits(got) != math.Float32bits(want) {
										t.Fatalf("v=%d o=%d c=%d image %d neuron %d: chunk %g, one image %g", v, neurons, c, i, oi, got, want)
									}
								}
							}
							if got := wk.vols[side][i*wk.stride:][:neurons]; !slices.Equal(got, one.pass.out) {
								t.Fatalf("v=%d o=%d c=%d image %d: chunk codes %v, one image %v", v, neurons, c, i, got, one.pass.out)
							}
						}
						if x.maxRequant != maxRequant {
							t.Fatalf("v=%d o=%d c=%d: MaxRequantScale %g, the images' largest %g", v, neurons, c, x.maxRequant, maxRequant)
						}
					}
				}
			}
		})
	}
}

// hostilePoolWord draws the values max pooling must not reorder or skip
// differently: ±0, NaN, ±Inf, a subnormal or an ordinary value.
func hostilePoolWord(rng *rand.Rand) float32 {
	switch rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(math.NaN())
	case 3, 4:
		return float32(math.Inf(-1))
	case 5:
		return float32(math.Inf(1))
	case 6:
		return float32(rng.NormFloat64() * 1e-39)
	}
	return float32(rng.NormFloat64())
}

// TestPoolMax8MatchesGoPool runs max-pool layers through the executor twice —
// once with AVX2, which puts the rows poolMax8Rows admits on the AVX2 kernel,
// and once with the Go loop forced — at stride 1 and 2, k 1–3, padded widths
// from k to 40 (rows of one window to rows of several kernel steps), pad 0
// and 1 and input heights 8 and 9 (at pad 0, height 8 stacks the 2×2
// stride-2 layer's planes into one call, stackedPool), and compares every
// window bit for bit. With poolSlack every row must run on the kernel. It also counts the windows whose order the comparison must respect —
// +0 before −0 and after it, a NaN first and later, all −Inf — and fails if
// the sweep drew none of one. Each layer runs the same way on int8 codes
// drawn heavy in −128, +127 and ties (int8PoolBothWays).
func TestPoolMax8MatchesGoPool(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every pool layer runs the Go loop")
	}
	rng := rand.New(rand.NewSource(30))
	const c = 3
	var windows, kernelRows, goRows, stacked int
	var zeroThenNeg, negThenZero, nanFirst, nanLater, allNegInf int
	for _, h := range []int{8, 9} {
		for _, s := range []int{1, 2} {
			for k := 1; k <= 3; k++ {
				for pad := 0; pad <= 1; pad++ {
					for pw := max(k, 2*pad+1); pw <= 40; pw++ {
						l := LayerHW{Name: "pool", Kind: nn.MaxPool, Kernel: k, Stride: s, Pad: pad,
							InShape:  nn.Shape{Channels: c, Height: h, Width: pw - 2*pad},
							OutShape: nn.Shape{Channels: c, Height: (h+2*pad-k)/s + 1, Width: (pw-k)/s + 1}}
						if _, ok := stackedPool(&l); ok {
							stacked++
						}
						in := make([]float32, l.InShape.Volume())
						for i := range in {
							in[i] = hostilePoolWord(rng)
						}
						codes := extremeCodes(rng, len(in))
						kernelRows8, goRows8 := int8PoolBothWays(t, l, codes)
						kernelRows += kernelRows8
						goRows += goRows8
						x := newFloatExec(t, l, nil, nil, in)
						p := &x.pass
						x.runLayer0()
						rows8 := poolKernelRows(&l, in, poolSlack)
						if rows8 != c*l.OutShape.Height {
							t.Fatalf("s=%d k=%d pad=%d pw=%d: %d of %d rows ran on the AVX2 kernel", s, k, pad, pw, rows8, c*l.OutShape.Height)
						}
						kernelRows += rows8
						goRows += c*l.OutShape.Height - rows8
						got := slices.Clone(p.out)
						withoutAVX2(func() { x.runLayer0() })
						for i, want := range p.out {
							if math.Float32bits(got[i]) != math.Float32bits(want) {
								t.Fatalf("s=%d k=%d pad=%d pw=%d window %d: AVX2 %g (%#08x), Go loop %g (%#08x)",
									s, k, pad, pw, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
							}
						}
						// Classify the windows the sweep compared, on the padded planes.
						outHW := l.OutShape.Height * l.OutShape.Width
						for ci := 0; ci < c; ci++ {
							plane := padPlane(make([]float32, l.PaddedHeight()*pw), &l, in[ci*h*l.InShape.Width:][:h*l.InShape.Width])
							for i := 0; i < outHW; i++ {
								oy, ox := i/l.OutShape.Width, i%l.OutShape.Width
								win := plane[(oy*pw+ox)*s:]
								var taps []float32
								for m := 0; m < k; m++ {
									taps = append(taps, win[m*pw:][:k]...)
								}
								windows++
								zero := slices.IndexFunc(taps, func(e float32) bool { return math.Float32bits(e) == 0 })
								neg := slices.IndexFunc(taps, func(e float32) bool { return math.Float32bits(e) == 1<<31 })
								if zero >= 0 && neg > zero {
									zeroThenNeg++
								} else if neg >= 0 && zero > neg {
									negThenZero++
								}
								switch nan := slices.IndexFunc(taps, isNaN32); {
								case nan == 0:
									nanFirst++
								case nan > 0:
									nanLater++
								}
								if !slices.ContainsFunc(taps, func(e float32) bool { return !math.IsInf(float64(e), -1) }) {
									allNegInf++
								}
							}
						}
					}
				}
			}
		}
	}
	if zeroThenNeg == 0 || negThenZero == 0 || nanFirst == 0 || nanLater == 0 || allNegInf == 0 || stacked == 0 {
		t.Fatalf("the sweep drew +0 then −0 in %d windows, −0 then +0 in %d, a NaN first in %d, a later NaN in %d, all −Inf in %d, and %d layers whose planes stack: every count must be positive",
			zeroThenNeg, negThenZero, nanFirst, nanLater, allNegInf, stacked)
	}
	t.Logf("%d windows, once each per element type: %d rows on the AVX2 kernels (%d layers in one call) and %d on the Go loop identical to the Go loop", windows, kernelRows, stacked, goRows)
}

// int8PoolBothWays is TestPoolMax8MatchesGoPool's int8 leg: max-pool layer l
// over the codes through the int8 executor, once through runLayer, which
// puts the rows poolMax8Rows admits (its planes carry poolSlack) on
// poolMaxPlaneI8 — every row — and again with the Go loop forced; every code
// must match. It returns the rows each way ran.
func int8PoolBothWays(t *testing.T, l LayerHW, codes []int8) (kernelRows, goRows int) {
	t.Helper()
	l.Activation, l.Normalize = NoActivation, NoActivation
	x := newInt8PoolExec(t, l, codes, 1)
	p := &x.pass
	x.runLayer0()
	kernelRows = poolKernelRows(&l, codes, poolSlack)
	if kernelRows != l.InShape.Channels*l.OutShape.Height {
		t.Fatalf("int8 s=%d k=%d pad=%d pw=%d: %d of %d rows ran on the AVX2 kernel",
			l.Stride, l.Kernel, l.Pad, l.PaddedWidth(), kernelRows, l.InShape.Channels*l.OutShape.Height)
	}
	got := slices.Clone(p.out)
	goRows = l.InShape.Channels*l.OutShape.Height - kernelRows
	withoutAVX2(func() { x.runLayer0() })
	for i, want := range p.out {
		if got[i] != want {
			t.Fatalf("int8 s=%d k=%d pad=%d pw=%d window %d: AVX2 %d, Go loop %d",
				l.Stride, l.Kernel, l.Pad, l.PaddedWidth(), i, got[i], want)
		}
	}
	return kernelRows, goRows
}

// TestPoolMax8RowsGuards pins which rows the AVX2 max-pool kernels run: none
// for a geometry they do not cover, and — their loads being unchecked — only
// the rows whose last step's loads end inside the plane, for float32 words
// (16 raw words a step) and int8 codes (32) apart.
func TestPoolMax8RowsGuards(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every pool layer runs the Go loop")
	}
	pool := func(kind nn.Kind, k, s, c, hw int) LayerHW {
		return LayerHW{Kind: kind, Kernel: k, Stride: s, InShape: nn.Shape{Channels: c, Height: hw, Width: hw},
			OutShape: nn.Shape{Channels: c, Height: (hw-k)/s + 1, Width: (hw-k)/s + 1}}
	}
	pool1 := pool(nn.MaxPool, 2, 2, 20, 24) // LeNet's: 12 rows of 12 windows
	s1 := pool(nn.MaxPool, 3, 1, 1, 10)     // 8 rows of 8 windows, the last reading the plane's last word
	rows4 := pool(nn.MaxPool, 2, 2, 1, 8)   // 4 rows of 4 windows
	for _, tc := range []struct {
		name     string
		l        LayerHW
		planeLen int
		rows     [2]int // float32, int8
	}{
		// A pool1 row's one step (int8) or two (float32) read 57 elements
		// from the row's first window on, where its windows use 48: on a
		// plane that ends on the last window's last element, the last row
		// reads 9 past the plane.
		{"LeNet pool1, nothing readable after the plane", pool1, 24 * 24, [2]int{11, 11}},
		{"LeNet pool1, 8 elements of slack", pool1, 24*24 + 8, [2]int{11, 11}},
		{"LeNet pool1, 9 elements of slack", pool1, 24*24 + 9, [2]int{12, 12}},
		{"stride 1, exact plane", s1, 100, [2]int{7, 5}},
		{"stride 1, a float32 step past the last row", s1, 70 + 38, [2]int{8, 6}},
		{"stride 1, an int8 step past the last row", s1, 70 + 54, [2]int{8, 8}},
		{"rows of four, exact plane", rows4, 8 * 8, [2]int{3, 2}},
		{"rows of four, a float32 step past the last row", rows4, 48 + 25, [2]int{4, 3}},
		{"rows of four, an int8 step past the last row", rows4, 48 + 41, [2]int{4, 4}},
		{"rows of three", pool(nn.MaxPool, 2, 2, 1, 6), 6 * 6, [2]int{2, 0}},
		{"rows of forty, three float32 steps and two int8", pool(nn.MaxPool, 1, 1, 1, 40), 40 * 40, [2]int{39, 39}},
		{"rows of forty, a float32 step past the last row", pool(nn.MaxPool, 1, 1, 1, 40), 40*40 + 8, [2]int{40, 39}},
		{"rows of forty, an int8 step past the last row", pool(nn.MaxPool, 1, 1, 1, 40), 40*40 + 24, [2]int{40, 40}},
		{"average pooling", pool(nn.AvgPool, 2, 2, 20, 24), 24 * 24, [2]int{0, 0}},
		{"stride 3", pool(nn.MaxPool, 3, 3, 1, 30), 30 * 30, [2]int{0, 0}},
		{"plane shorter than one row's reach", pool1, 40, [2]int{0, 0}},
	} {
		if got := [2]int{poolMax8Rows[float32](&tc.l, tc.planeLen), poolMax8Rows[int8](&tc.l, tc.planeLen)}; got != tc.rows {
			t.Errorf("%s: poolMax8Rows = %d (float32, int8), want %d", tc.name, got, tc.rows)
		}
	}

	// An unpadded plane is a view into the layer input, so every channel but
	// the last can read on into the next one and runs all its rows on the
	// kernels; the executor's frames and planes also carry poolSlack elements
	// past the input's end, which admits the last channel's last rows as
	// well. So LeNet's pool1 and pool2 run every row there, on both element
	// types.
	pool2 := pool(nn.MaxPool, 2, 2, 50, 8) // LeNet's: 4 rows of 4 windows
	for _, tc := range []struct {
		name string
		l    LayerHW
		rows int
	}{{"LeNet pool1", pool1, 20 * 12}, {"LeNet pool2", pool2, 50 * 4}, {"stride 1", s1, 8}} {
		f32 := poolKernelRows(&tc.l, make([]float32, tc.l.InShape.Volume()), poolSlack)
		if kernelRows, _ := int8PoolBothWays(t, tc.l, make([]int8, tc.l.InShape.Volume())); f32 != tc.rows || kernelRows != tc.rows {
			t.Errorf("%s: %d float32 and %d int8 rows on the kernels, want %d", tc.name, f32, kernelRows, tc.rows)
		}
	}
}

// poolKernelRows is how many output rows, summed over the channels, the
// executors put on the AVX2 max-pool kernel for layer l over input in, whose
// buffer carries slack elements past its end: the stacked plane's rows
// where the layer's planes stack (stackedPool), else each channel's.
func poolKernelRows[E float32 | int8](l *LayerHW, in []E, slack int) (rows int) {
	if s, ok := stackedPool(l); ok {
		return poolMax8Rows[E](&s, len(in)+slack)
	}
	plane := make([]E, l.PaddedHeight()*l.PaddedWidth())
	for ci := 0; ci < l.InShape.Channels; ci++ {
		rows += poolMax8Rows[E](l, poolReach(l, in, plane, ci)+slack)
	}
	return rows
}

// withoutAVX2 runs f with the AVX2 kernels switched off: every layer pass it
// makes takes the Go kernels.
func withoutAVX2(f func()) {
	was := haveAVX2
	haveAVX2 = false
	defer func() { haveAVX2 = was }()
	f()
}

// TestConvTile8StoreMatchesGo runs conv layers through the executor twice —
// on the storing AVX2 tile, which adds the bias to each finished chain and
// leaves the activation to the layer, and on the Go tile (convTileGo, then
// store4 per tile) — over random geometries, channel counts that end
// inside a quad, layers with and without biases (some −0), inputs and
// weights drawing ±0, NaN and ±Inf, and every folded activation. Every cell
// must match bit for bit (two NaNs match). A chain from +0 is never −0, so a
// −0 bias must store +0: a tile that seeded its chains with the bias instead
// would keep −0 there and round differently elsewhere, and the sweep counts
// the cells where such a chain would differ.
func TestConvTile8StoreMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(39))
	special := func(weight bool) float32 {
		switch rng.Intn(24) {
		case 0:
			return float32(math.NaN())
		case 1:
			return float32(math.Inf(1 - 2*rng.Intn(2)))
		}
		return hostileWord(rng, weight)
	}
	acts := []nn.Kind{NoActivation, nn.ReLU, nn.Sigmoid, nn.TanH}
	var cells, biasFirstDiffers, negZeroBias, raggedQuads int
	for run := 0; run < 120; run++ {
		c, k, pad := 1+rng.Intn(4), 1+2*rng.Intn(3), rng.Intn(2)
		h, w := k+rng.Intn(4), 8+k-1-2*pad+rng.Intn(20)
		f := 1 + rng.Intn(11)
		l := convLayerHW(c, h, w, k, 1, pad, f)
		l.Name = "conv"
		in := make([]float32, l.InShape.Volume())
		for i := range in {
			in[i] = special(false)
		}
		wts := make([]float32, l.WeightWords())
		for i := range wts {
			wts[i] = special(true)
		}
		var bias []float32
		if run%3 != 0 {
			bias = randomBias(rng, f)
			for i := range bias {
				if rng.Intn(4) == 0 {
					bias[i] = float32(math.Copysign(0, -1))
				}
			}
		}
		act := acts[run%len(acts)]
		if f%4 != 0 {
			raggedQuads++ // the last quad repeats its last channel
		}
		x := newFloatExec(t, l, wts, bias, in)
		x.pe.Layers[0].Activation = act
		p, o := &x.pass, x.el.(*f32Ops)
		x.runLayer0()
		if !o.tiles.tile8 {
			t.Fatalf("run %d: C=%d K=%d pad=%d %dx%d: the layer did not run on the AVX2 tile", run, c, k, pad, h, w)
		}
		got := slices.Clone(p.out)
		withoutAVX2(func() { x.runLayer0() })
		if o.tiles.tile8 {
			t.Fatal("the Go leg ran on the AVX2 tile")
		}
		l = x.pe.Layers[0]
		taps, hw := tapOffsets(&l), l.OutShape.Height*l.OutShape.Width
		stack := stackPlanes(make([]float32, c*l.PaddedHeight()*l.PaddedWidth()), &l, in)
		for i, want := range p.out {
			cells++
			if math.Float32bits(got[i]) != math.Float32bits(want) && !(isNaN32(got[i]) && isNaN32(want)) {
				t.Fatalf("run %d: C=%d K=%d pad=%d %dx%d F=%d act %v bias=%v cell %d: AVX2 %g (%#08x), Go %g (%#08x)",
					run, c, k, pad, h, w, f, act, bias != nil, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
			}
			fi, pos := i/hw, i%hw
			b := biasAt(bias, fi)
			if math.Float32bits(b) == 1<<31 {
				negZeroBias++
			}
			seeded := b
			win := stack[pos/l.OutShape.Width*l.PaddedWidth()+pos%l.OutShape.Width:]
			for ti, o := range taps {
				seeded += wts[fi*len(taps)+ti] * win[o]
			}
			if v := applyActivation(act, seeded); math.Float32bits(v) != math.Float32bits(want) && !(isNaN32(v) && isNaN32(want)) {
				biasFirstDiffers++
			}
		}
	}
	if biasFirstDiffers == 0 || negZeroBias == 0 || raggedQuads == 0 {
		t.Fatalf("a bias-seeded chain differed on %d of %d cells, %d cells had a −0 bias and %d layers a channel count ending inside a quad: each must be positive",
			biasFirstDiffers, cells, negZeroBias, raggedQuads)
	}
	t.Logf("%d cells bit-identical to the Go tile; a bias-seeded chain differs on %d", cells, biasFirstDiffers)
}

// TestGoKernelFallbacksRun keeps the Go kernels the AVX2 paths fall back to
// exercised and checked: windowMax on a stride-2 max pool, and fcTileGo
// beside a ragged last group of eight neurons and under DisableAVX2 — each
// against the oracle's chain computed here.
func TestGoKernelFallbacksRun(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go kernels")
	}
	rng := rand.New(rand.NewSource(40))
	pool := LayerHW{Name: "pool", Kind: nn.MaxPool, Kernel: 2, Stride: 2,
		InShape:  nn.Shape{Channels: 3, Height: 8, Width: 8},
		OutShape: nn.Shape{Channels: 3, Height: 4, Width: 4}}
	in := make([]float32, pool.InShape.Volume())
	for i := range in {
		in[i] = hostilePoolWord(rng)
	}
	const v, neurons = 37, 20
	fc := fcLayerHW(v, neurons)
	fc.Name = "fc"
	fin, w, bias := make([]float32, v), make([]float32, neurons*v), randomBias(rng, neurons)
	for i := range fin {
		fin[i] = hostileWord(rng, false)
	}
	for i := range w {
		w[i] = hostileWord(rng, true)
	}
	for _, leg := range []struct {
		name   string
		noAVX2 bool
	}{{"AVX2", false}, {"DisableAVX2", true}} {
		run := func(x *peExec[float32]) {
			if leg.noAVX2 {
				withoutAVX2(func() { x.runLayer0() })
			} else {
				x.runLayer0()
			}
		}
		x := newFloatExec(t, pool, nil, nil, in)
		run(x)
		for i, got := range x.pass.out {
			ci, oy, ox := i/16, i%16/4, i%4
			want := float32(math.Inf(-1))
			for _, e := range []float32{in[ci*64+oy*16+ox*2], in[ci*64+oy*16+ox*2+1], in[ci*64+oy*16+8+ox*2], in[ci*64+oy*16+8+ox*2+1]} {
				if e > want {
					want = e
				}
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: pool window %d: %g, the oracle's %g", leg.name, i, got, want)
			}
		}
		x = newFloatExec(t, fc, w, bias, fin)
		run(x)
		for oi, got := range x.pass.out {
			want := bias[oi]
			for h, xv := range fin {
				want += float32(w[oi*v+h] * xv)
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: neuron %d = %g, the oracle's %g", leg.name, oi, got, want)
			}
		}
	}
}
