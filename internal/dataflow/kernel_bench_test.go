package dataflow

import (
	"math/rand"
	"testing"

	"condor/internal/nn"
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

// BenchmarkConvTile8 times the AVX2 conv tiles over whole layers of LeNet
// conv1's and conv2's shapes (ReLU, stored into the layer's float results):
// float32 on convTile8, int8 on convTile16I8 with its pair-plane staging
// (convTiles), but neither the requantization nor the stacking of padded
// planes (LeNet pads none). Compare the legs by their ns/MAC.
func BenchmarkConvTile8(b *testing.B) {
	if !haveAVX2 {
		b.Skip("CPU without AVX2: every conv layer runs the Go tile")
	}
	conv1, conv2 := convLayerHW(1, 28, 28, 5, 1, 0, 20), convLayerHW(20, 12, 12, 5, 1, 0, 50)
	conv1.Name, conv2.Name = "conv1", "conv2"
	for _, l := range []LayerHW{conv1, conv2} {
		l.Activation, l.Normalize = nn.ReLU, NoActivation
		rng := rand.New(rand.NewSource(31))
		w, bias := make([]float32, l.WeightWords()), randomBias(rng, l.OutShape.Channels)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		macs := float64(l.OutShape.Volume() * l.InShape.Channels * l.Kernel * l.Kernel)
		b.Run(l.Name+"/float32", func(b *testing.B) {
			x := newF32Exec(oneLayerPE(b, 32, l, w, bias))
			x.prepare()
			p, o := &x.pass, x.el.(*f32Ops)
			p.l, p.st = &x.pe.Layers[0], &x.plan.layers[0]
			in := make([]float32, l.InShape.Volume())
			for i := range in {
				in[i] = float32(rng.NormFloat64())
			}
			p.cur, p.out = in, make([]float32, l.OutShape.Volume())
			o.tiles.set(p.l, in, p.st.w, p.st.taps, in, p.st.w, p.st.taps, len(p.st.taps))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.tiles.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*macs), "ns/MAC")
		})
		b.Run(l.Name+"/int8", func(b *testing.B) {
			x := newI8Exec(oneLayerPE(b, 8, l, w, bias))
			x.prepare()
			p, o := &x.pass, x.el.(*i8Ops)
			p.l, p.st = &x.pe.Layers[0], &x.plan.layers[0]
			in := randomCodes(rng, l.InShape.Volume())
			p.cur, p.out, p.inScale = in, make([]int8, l.OutShape.Volume()), 0.01
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.convTiles(in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*macs), "ns/MAC")
		})
	}
}

// BenchmarkMaxPool times max-pool layers of LeNet pool1's and pool2's shapes
// (2×2 windows at stride 2, no folded activation) through the executor, on
// the AVX2 plane kernels: float32 words and int8 codes, in ns/window.
func BenchmarkMaxPool(b *testing.B) {
	if !haveAVX2 {
		b.Skip("CPU without AVX2: every pool layer runs the Go loop")
	}
	pool1 := LayerHW{Name: "pool1", Kind: nn.MaxPool, Kernel: 2, Stride: 2,
		InShape: nn.Shape{Channels: 20, Height: 24, Width: 24}, OutShape: nn.Shape{Channels: 20, Height: 12, Width: 12}}
	pool2 := LayerHW{Name: "pool2", Kind: nn.MaxPool, Kernel: 2, Stride: 2,
		InShape: nn.Shape{Channels: 50, Height: 8, Width: 8}, OutShape: nn.Shape{Channels: 50, Height: 4, Width: 4}}
	for _, l := range []LayerHW{pool1, pool2} {
		rng := rand.New(rand.NewSource(32))
		l.Activation, l.Normalize = NoActivation, NoActivation
		windows := float64(l.OutShape.Volume())
		b.Run(l.Name+"/float32", func(b *testing.B) {
			in := make([]float32, l.InShape.Volume())
			for i := range in {
				in[i] = float32(rng.NormFloat64())
			}
			x := newF32Exec(oneLayerPE(b, 32, l, nil, nil))
			x.prepare()
			x.pass.cur = withSlack(in)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.runLayer0()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*windows), "ns/window")
		})
		b.Run(l.Name+"/int8", func(b *testing.B) {
			x := newI8Exec(oneLayerPE(b, 8, l, nil, nil))
			x.prepare()
			x.pass.cur, x.pass.inScale = withSlack(randomCodes(rng, l.InShape.Volume())), 0.01
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.runLayer0()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*windows), "ns/window")
		})
	}
}

// BenchmarkInt8FC times an int8 FC layer of LeNet ip1's shape (800 inputs,
// 500 neurons, ReLU) through the executor, eight images per iteration, each
// with its dequantization, fold and requantization: "image" runs them one
// by one on fcDot4I8, as a lone image runs, and "chunk8" as one chunk on
// fcLanes8I8. ns/MAC sizes the FC share of an int8 session without the
// session around it.
func BenchmarkInt8FC(b *testing.B) {
	if !haveAVX2 {
		b.Skip("CPU without AVX2: int8 FC layers run the Go tile")
	}
	const v, neurons = 800, 500
	l := fcLayerHW(v, neurons)
	l.Name, l.Activation, l.Normalize = "ip1", nn.ReLU, NoActivation
	rng := rand.New(rand.NewSource(55))
	w := make([]float32, neurons*v)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	x := newI8Exec(oneLayerPE(b, 8, l, w, randomBias(rng, neurons)))
	x.prepare()
	wk := &worker[int8]{pes: []*peExec[int8]{x}, stride: v + poolSlack}
	for side := range wk.vols {
		wk.vols[side], wk.scales[side] = make([]int8, convLanes*wk.stride), make([]float64, convLanes)
	}
	for i := 0; i < convLanes; i++ {
		copy(wk.vols[0][i*wk.stride:], randomCodes(rng, v))
		wk.scales[0][i] = 0.01
	}
	for _, leg := range []struct {
		name  string
		chunk int
	}{{"image", 1}, {"chunk8", convLanes}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for first := 0; first < convLanes; first += leg.chunk {
					x.run(wk, 0, first, leg.chunk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*convLanes*v*neurons), "ns/MAC")
		})
	}
}

// benchSink keeps benchmarked results live.
var benchSink float64
