package dataflow

// Packed-datapath variants of the alternate convolution algorithms (see
// algopath.go for the float32 versions and the error contracts). The
// im2col+GEMM lowering stays entirely on the int8 grid — int8 panel, int32
// accumulators, the same dequantize/requantize boundary as the direct int8
// path. Winograd runs its transform domain in float32 over dequantized
// tiles (the ±½ transform combinations do not survive the int8 grid), then
// requantizes the output; both algorithms keep the per-tensor scale
// accounting that parameterises QuantErrorBound.

import "math"

// runConvGEMM is the quantized im2col+GEMM convolution: per input-channel
// pass the padded code plane is unrolled into the tap-major panel, then the
// register-tiled int32 microkernel drives the output-channel bands over it.
// The dequantize/activate/requantize tail is the direct int8 path's, so the
// error accounting is unchanged.
func (x *peExecInt8) runConvGEMM() float64 {
	l := x.pass.l
	outHW := l.OutShape.Height * l.OutShape.Width
	x.partial = growSlice(x.partial, l.OutShape.Channels*outHW)
	clear(x.partial)
	x.panel = growSlice(x.panel, l.Kernel*l.Kernel*outHW)
	x.convPasses(outHW, l.Kernel*l.Kernel, x.im2colPass, x.fns.gemm)
	return x.convTail()
}

// im2colPass stages a GEMM pass: pad the channel's code plane and unroll it
// into the panel.
func (x *peExecInt8) im2colPass(chmap []int8) {
	buildIm2ColPanel(x.panel, x.padChannel(x.pass.l, chmap), x.pass.l)
}

// gemmBand drives the int32 microkernel over the panel of input channel
// pass.ci for output channels [lo,hi).
func (x *peExecInt8) gemmBand(_, lo, hi int) {
	p := &x.pass
	l := p.l
	c, kk := l.InShape.Channels, l.Kernel*l.Kernel
	outHW := l.OutShape.Height * l.OutShape.Width
	wq, panel := p.st.w, x.panel
	for fi := lo; fi < hi; fi++ {
		base := (fi*c + p.ci) * kk
		acc := x.partial[fi*outHW : (fi+1)*outHW]
		pos := 0
		for ; pos+gemmPosTile <= outHW; pos += gemmPosTile {
			a0, a1, a2, a3 := acc[pos], acc[pos+1], acc[pos+2], acc[pos+3]
			for t := 0; t < kk; t++ {
				wv := int32(wq[base+t])
				row := panel[t*outHW+pos : t*outHW+pos+gemmPosTile]
				a0 += wv * int32(row[0])
				a1 += wv * int32(row[1])
				a2 += wv * int32(row[2])
				a3 += wv * int32(row[3])
			}
			acc[pos], acc[pos+1], acc[pos+2], acc[pos+3] = a0, a1, a2, a3
		}
		for ; pos < outHW; pos++ {
			a := acc[pos]
			for t := 0; t < kk; t++ {
				a += int32(wq[base+t]) * int32(panel[t*outHW+pos])
			}
			acc[pos] = a
		}
	}
}

// runConvWinograd is the packed-datapath F(2,3) convolution: input codes are
// dequantized channel by channel into a padded float plane, the float
// transform-domain schedule of peExec.runConvWinograd runs over it against
// the float transformed weights, and the result requantizes with a fresh
// per-tensor scale. Output deviation from the oracle is bounded by
// QuantErrorBound + WinogradErrorBound.
func (x *peExecInt8) runConvWinograd() float64 {
	l := x.pass.l
	f := l.OutShape.Channels
	outHW := l.OutShape.Height * l.OutShape.Width
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	x.padF = growSlice(x.padF, l.PaddedHeight()*l.PaddedWidth())
	x.vBuf = growSlice(x.vBuf, tiles*16)
	x.mBuf = growSlice(x.mBuf, f*tiles*16)
	clear(x.mBuf)
	x.convPasses(tiles, 16, x.winogradPass, x.fns.wgMul)
	x.floatBuf = growSlice(x.floatBuf, f*outHW)
	clear(x.mags)
	x.pool.bands(f, x.outBands, x.fns.wgInv)
	for _, m := range x.mags {
		if m > x.stats.MaxWinogradMag {
			x.stats.MaxWinogradMag = m
		}
	}
	return x.requantize(x.floatBuf[:f*outHW])
}

// winogradPass stages a Winograd pass: dequantize the channel's codes
// straight into the padded float plane and transform its tiles.
func (x *peExecInt8) winogradPass(chmap []int8) {
	l := x.pass.l
	w, pad, pw := l.InShape.Width, l.Pad, l.PaddedWidth()
	clear(x.padF)
	for y := 0; y < l.InShape.Height; y++ {
		row := x.padF[(y+pad)*pw+pad:]
		for i, code := range chmap[y*w : (y+1)*w] {
			row[i] = float32(float64(code) * x.pass.inScale)
		}
	}
	winogradTransformPlane(x.vBuf, x.padF, l)
}

func (x *peExecInt8) winogradMulBand(_, lo, hi int) {
	l := x.pass.l
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	winogradMulAcc(x.mBuf, x.vBuf, x.pass.st.wg, l.InShape.Channels, x.pass.ci, tiles, lo, hi)
}

// winogradInverseBand inverse-transforms output channels [lo,hi), folds bias
// and activation into the float buffer and records the band's largest
// pre-activation output magnitude.
func (x *peExecInt8) winogradInverseBand(band, lo, hi int) {
	p := &x.pass
	l := p.l
	outW := l.OutShape.Width
	outHW := l.OutShape.Height * outW
	tW := outW / 2
	tiles := l.OutShape.Height / 2 * tW
	fb := x.floatBuf
	mag := x.mags[band]
	for fi := lo; fi < hi; fi++ {
		var bias float32
		if len(p.st.b) > 0 {
			bias = p.st.b[fi]
		}
		for ti := 0; ti < tiles; ti++ {
			y := winogradInverse(x.mBuf[(fi*tiles+ti)*16 : (fi*tiles+ti)*16+16])
			ty, tx := ti/tW, ti%tW
			base := fi*outHW + (2*ty)*outW + 2*tx
			for _, v := range y {
				if a := math.Abs(float64(v)); a > mag {
					mag = a
				}
			}
			fb[base] = applyActivation(l.Activation, y[0]+bias)
			fb[base+1] = applyActivation(l.Activation, y[1]+bias)
			fb[base+outW] = applyActivation(l.Activation, y[2]+bias)
			fb[base+outW+1] = applyActivation(l.Activation, y[3]+bias)
		}
	}
	x.mags[band] = mag
}
