package dataflow

import (
	"math/rand"
	"os"
	"syscall"
	"testing"
	"unsafe"

	"condor/internal/nn"
)

// The AVX2 kernels' loads are unchecked: convTile8OK and poolMax8Rows admit
// only what ends inside the elements the caller says are readable. These
// tests put those elements flush against an unmapped page, so a kernel that
// loads one element too far faults instead of reading a neighbour's value.

// guarded returns n elements of type T that end exactly where a PROT_NONE
// page begins.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	size, page := n*int(unsafe.Sizeof(zero)), os.Getpagesize()
	body := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[body-size])), n)
}

// TestPoolKernelsStayInPlane runs both max-pool kernels over the rows
// poolMax8Rows admits of a plane with nothing readable after it, and checks
// those rows against windowMax.
func TestPoolKernelsStayInPlane(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every pool layer runs the Go loop")
	}
	rng := rand.New(rand.NewSource(57))
	for _, g := range []struct{ k, s, h, w int }{
		{2, 2, 24, 24}, {2, 2, 8, 8}, {3, 1, 10, 10}, {1, 1, 40, 40}, {3, 2, 9, 33}, {2, 2, 6, 6}, {1, 2, 5, 3},
	} {
		l := LayerHW{Kind: nn.MaxPool, Kernel: g.k, Stride: g.s,
			InShape:  nn.Shape{Channels: 1, Height: g.h, Width: g.w},
			OutShape: nn.Shape{Channels: 1, Height: (g.h-g.k)/g.s + 1, Width: (g.w-g.k)/g.s + 1}}
		f32, i8 := guarded[float32](t, g.h*g.w), guarded[int8](t, g.h*g.w)
		for i := range f32 {
			f32[i], i8[i] = float32(rng.NormFloat64()), int8(rng.Intn(256)-128)
		}
		checkPoolInPlane(t, &l, f32, poolMaxPlane)
		checkPoolInPlane(t, &l, i8, poolMaxPlaneI8)
	}
}

func checkPoolInPlane[E float32 | int8](t *testing.T, l *LayerHW, plane []E, kernel func(*E, int, int, int, int, int, *E)) {
	t.Helper()
	rows, outW := poolMax8Rows[E](l, len(plane)), l.OutShape.Width
	if rows == 0 {
		return
	}
	out := make([]E, rows*outW)
	kernel(&plane[0], l.Kernel, l.PaddedWidth(), l.Stride, outW, rows, &out[0])
	for i, got := range out {
		if want := windowMax(plane[(i/outW*l.PaddedWidth()+i%outW)*l.Stride:], l.Kernel, l.PaddedWidth()); got != want {
			t.Fatalf("k=%d s=%d %dx%d window %d: kernel %v, Go %v", l.Kernel, l.Stride, l.InShape.Height, l.InShape.Width, i, got, want)
		}
	}
}

// TestConvTilesStayInStack runs the AVX2 conv tiles over every tile of
// layers whose stack (float32) or pair planes (int8) end where an unmapped
// page begins, as convTile8OK admits them, and checks the int8 stores
// against the same tiles over ordinary memory.
func TestConvTilesStayInStack(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every layer runs the Go tile")
	}
	rng := rand.New(rand.NewSource(58))
	for _, g := range []struct{ c, k, outH, outW int }{{1, 5, 24, 24}, {20, 5, 8, 8}, {3, 2, 3, 9}, {2, 3, 1, 8}, {1, 1, 5, 11}} {
		l := convLayerHW(g.c, g.outH+g.k-1, g.outW+g.k-1, g.k, 1, 0, 4)
		plane, pw := l.PaddedHeight()*l.PaddedWidth(), l.PaddedWidth()
		codes := randomCodes(rng, g.c*plane)
		taps, w := tapOffsets(&l), randomCodes(rng, 4*g.c*g.k*g.k)
		taps2, tp := pairTapOffsets(&l), convPairWeights(&l, w)
		planes, free := guarded[uint32](t, (g.c+1)/2*plane), make([]uint32, (g.c+1)/2*plane)
		stagePairPlanes(planes, codes, &l)
		copy(free, planes)
		words := guarded[float32](t, g.c*plane)
		wf := make([]float32, len(w))
		for i := range words {
			words[i] = float32(codes[i])
		}
		for i := range wf {
			wf[i] = float32(w[i])
		}
		if !convTile8OK(&l, taps2, len(taps2), len(tp), len(planes)) || !convTile8OK(&l, taps, len(taps), len(wf), len(words)) {
			t.Fatalf("C=%d K=%d %dx%d: convTile8OK refused a well-formed layer", g.c, g.k, g.outH, g.outW)
		}
		n, hw := len(taps2), g.outH*g.outW
		for _, src := range [][]uint32{planes, free} {
			var got [2][4][]float32
			for j := range got[0] {
				got[0][j], got[1][j] = make([]float32, hw), make([]float32, hw)
			}
			var m [4]uint32
			for oy := 0; oy < g.outH; oy += 2 {
				y, rowIn, rowOut := max(min(oy, g.outH-2), 0), pw, g.outW
				if g.outH == 1 {
					rowIn, rowOut = 0, 0
				}
				for ox := 0; ox < g.outW; ox += convLanes {
					col := min(ox, g.outW-convLanes)
					pos := y*g.outW + col
					convTile16I8(&src[y*pw+col], &taps2[0], n, &tp[0], &tp[n], &tp[2*n], &tp[3*n], rowIn,
						&got[0][0][pos], &got[0][1][pos], &got[0][2][pos], &got[0][3][pos], rowOut, 1, 0, 0, 0, 0, false, &m[0], &m[1], &m[2], &m[3])
					for r := y; r <= min(y+1, g.outH-1); r++ {
						v := len(taps)
						convTile8(&words[r*pw+col], &taps[0], v, &wf[0], &wf[v], &wf[2*v], &wf[3*v],
							&got[1][0][r*g.outW+col], &got[1][1][r*g.outW+col], &got[1][2][r*g.outW+col], &got[1][3][r*g.outW+col], 0, 0, 0, 0)
					}
				}
			}
			// Small integer products and sums are exact in float32 too, so
			// both tiles store the same values.
			for j := range got[0] {
				for i := range got[0][j] {
					if got[0][j][i] != got[1][j][i] {
						t.Fatalf("C=%d K=%d %dx%d channel %d cell %d: int8 tile %g, float32 tile %g", g.c, g.k, g.outH, g.outW, j, i, got[0][j][i], got[1][j][i])
					}
				}
			}
		}
	}
}
