package dataflow

import (
	"math/rand"
	"testing"
)

// BenchmarkGoConvTile times the Go conv tile — what every conv layer runs on
// a CPU without AVX2 or off amd64, and a stride-2 or narrow layer runs
// everywhere — over LeNet conv2's 20×5×5 taps, one call per iteration (2
// channels × 4 positions × 500 taps), walking the layer's output positions.
// Compare the float32 and int8 legs by their ns/MAC.
func BenchmarkGoConvTile(b *testing.B) {
	l := convLayerHW(20, 12, 12, 5, 1, 0, 2)
	b.Run("float32", func(b *testing.B) { benchGoConvTile[float32, float32](b, &l) })
	b.Run("int8", func(b *testing.B) { benchGoConvTile[int8, int32](b, &l) })
}

func benchGoConvTile[E float32 | int8, A float32 | int32](b *testing.B, l *LayerHW) {
	rng := rand.New(rand.NewSource(30))
	draw := func(n int) []E {
		v := make([]E, n)
		for i := range v {
			v[i] = E(rng.Intn(255) - 127)
		}
		return v
	}
	taps := tapOffsets(l)
	stack, w := draw(l.InShape.Volume()), draw(l.WeightWords())
	n, pw, outW := len(taps), l.PaddedWidth(), l.OutShape.Width
	tiles := l.OutShape.Height * outW / convPosTile
	var keep A
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := i % tiles * convPosTile
		a, c := convTileGo[E, A](stack[pos/outW*pw+pos%outW:], 1, 2, 3, w[:n], w[n:2*n], taps)
		keep += a[0] + c[convPosTile-1]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(2*convPosTile*n)), "ns/MAC")
	benchSink = float64(keep)
}

// benchSink keeps benchmarked results live.
var benchSink float64
