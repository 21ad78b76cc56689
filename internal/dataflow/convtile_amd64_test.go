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
	if !haveConvTile8 {
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
				st := layerState{w: w, taps: taps}
				if !convTile8OK(&l, &st, stack) {
					t.Fatalf("C=%d K=%d pw=%d: convTile8OK refused a well-formed layer", c, k, pw)
				}
				rows := [4][]float32{w[:len(taps)], w[len(taps) : 2*len(taps)], w[2*len(taps) : 3*len(taps)], w[3*len(taps):]}
				for oy := 0; oy < 2; oy++ {
					for ox := 0; ox < outW; ox += convLanes {
						col := min(ox, outW-convLanes)
						base := oy*pw + col
						var got [4][convLanes]float32
						convTile8(&stack[base], &taps[0], len(taps), &rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &got)
						var want [4][convLanes]float32
						for half := 0; half < convLanes; half += convPosTile {
							for pair := 0; pair < 4; pair += 2 {
								a, b := convTileF32(stack[base+half:], 1, 2, 3, rows[pair], rows[pair+1], taps)
								copy(want[pair][half:], a[:])
								copy(want[pair+1][half:], b[:])
							}
						}
						for j := range got {
							for i := range got[j] {
								cells++
								if math.Float32bits(got[j][i]) != math.Float32bits(want[j][i]) {
									t.Fatalf("C=%d K=%d pw=%d row %d col %d: channel %d lane %d = %g (%#08x), Go tile %g (%#08x)",
										c, k, pw, oy, col, j, i, got[j][i], math.Float32bits(got[j][i]), want[j][i], math.Float32bits(want[j][i]))
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
// geometry the AVX2 tile does not cover, and anything that would let its
// unchecked loads leave the stack or a weight row.
func TestConvTile8OKGuards(t *testing.T) {
	if !haveConvTile8 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	geom := func(stride, outW int) (LayerHW, layerState, []float32) {
		l := LayerHW{Kind: nn.Conv, Kernel: 3, Stride: stride,
			InShape:  nn.Shape{Channels: 2, Height: 5, Width: (outW-1)*stride + 3},
			OutShape: nn.Shape{Channels: 3, Height: (5-3)/stride + 1, Width: outW}}
		taps := tapOffsets(&l)
		st := layerState{w: make([]float32, l.OutShape.Channels*len(taps)), taps: taps}
		return l, st, make([]float32, l.InShape.Channels*l.PaddedHeight()*l.PaddedWidth())
	}
	l, st, stack := geom(1, 8)
	l2, st2, stack2 := geom(2, 8)
	l7, st7, stack7 := geom(1, 7)
	swapped := slices.Clone(st.taps)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	negative := slices.Clone(st.taps)
	negative[0] = -1
	for _, tc := range []struct {
		name  string
		l     LayerHW
		st    layerState
		stack []float32
		admit bool
	}{
		{"well-formed", l, st, stack, true},
		{"stride 2", l2, st2, stack2, false},
		{"outW 7", l7, st7, stack7, false},
		{"stack one word short", l, st, stack[:len(stack)-1], false},
		{"taps out of order", l, layerState{w: st.w, taps: swapped}, stack, false},
		{"negative first tap", l, layerState{w: st.w, taps: negative}, stack, false},
		{"short weight stream", l, layerState{w: st.w[:len(st.w)-1], taps: st.taps}, stack, false},
	} {
		if got := convTile8OK(&tc.l, &tc.st, tc.stack); got != tc.admit {
			t.Errorf("%s: convTile8OK = %v, want %v", tc.name, got, tc.admit)
		}
	}
}
