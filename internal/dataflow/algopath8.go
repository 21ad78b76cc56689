package dataflow

import "condor/internal/quant"

// runConvWinograd is the packed datapath's F(2,3) convolution (algopath.go has
// the algorithm and its error contract; int8 direct and im2col_gemm are both
// runConv): the input codes are dequantized, peStream's float32
// transform-domain schedule runs over them against the float transformed
// weights, and the result requantizes with a fresh per-tensor scale, keeping
// the scale accounting that parameterises QuantErrorBound. Output deviation
// from the oracle is bounded by QuantErrorBound + WinogradErrorBound.
func (x *peExecInt8) runConvWinograd() float64 {
	p := &x.pass
	in, fb := x.deqBuf[:len(p.cur)], x.floatBuf[:len(p.out)]
	quant.DequantizeInto(in, p.cur, p.inScale)
	x.runWinograd(p.l, p.st.layerState, in, fb)
	return x.requantize(fb)
}
