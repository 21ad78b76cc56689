package dataflow

// The packed datapath's Winograd convolution (algopath.go has the float32
// version and the error contract; int8 direct and im2col_gemm are both
// peExecInt8.runConv). The transform domain runs in float32 over dequantized
// tiles — the ±½ transform combinations do not survive the int8 grid — and
// the output requantizes, keeping the per-tensor scale accounting that
// parameterises QuantErrorBound.

// runConvWinograd is the packed-datapath F(2,3) convolution: input codes are
// dequantized channel by channel into a padded float plane, the float
// transform-domain schedule of peExec.runConvWinograd runs over it against
// the float transformed weights, one banded pass per input channel, and the
// result requantizes with a fresh per-tensor scale. Output deviation from
// the oracle is bounded by QuantErrorBound + WinogradErrorBound.
func (x *peExecInt8) runConvWinograd() float64 {
	p := &x.pass
	l := p.l
	f := l.OutShape.Channels
	inHW := l.InShape.Height * l.InShape.Width
	outHW := l.OutShape.Height * l.OutShape.Width
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	clear(x.mBuf[:f*tiles*16])
	for ci := 0; ci < l.InShape.Channels; ci++ {
		p.ci = ci
		x.winogradPass(p.cur[ci*inHW : (ci+1)*inHW])
		x.pool.bands(f, x.outBands, x.fns.wgMul)
	}
	x.accountConv(l, p.st.streamBytes, tiles, 16)
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
	padF := x.padF[:l.PaddedHeight()*pw]
	clear(padF)
	for y := 0; y < l.InShape.Height; y++ {
		row := padF[(y+pad)*pw+pad:]
		for i, code := range chmap[y*w : (y+1)*w] {
			row[i] = float32(float64(code) * x.pass.inScale)
		}
	}
	winogradTransformPlane(x.vBuf, padF, l)
}

func (x *peExecInt8) winogradMulBand(_, lo, hi int) {
	l := x.pass.l
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	winogradMulAcc(x.mBuf, x.vBuf, x.pass.st.wg, l.InShape.Channels, x.pass.ci, tiles, lo, hi)
}

// winogradInverseBand inverse-transforms output channels [lo,hi) into the
// float buffer, records their largest magnitude, then folds bias and
// activation in.
func (x *peExecInt8) winogradInverseBand(band, lo, hi int) {
	p := &x.pass
	outHW := p.l.OutShape.Height * p.l.OutShape.Width
	x.mags[band] = winogradInverseInto(x.floatBuf, x.mBuf, p.l, lo, hi, x.mags[band])
	for fi := lo; fi < hi; fi++ {
		var bias float32
		if len(p.st.b) > 0 {
			bias = p.st.b[fi]
		}
		fb := x.floatBuf[fi*outHW:][:outHW]
		for i, v := range fb {
			fb[i] = applyActivation(p.l.Activation, v+bias)
		}
	}
}
