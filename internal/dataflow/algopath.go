package dataflow

// This file is the Winograd F(2,3) transform-domain convolution, the one
// convolution algorithm with a host kernel of its own (direct and im2col_gemm
// share each element type's tap-table kernel; the algorithm only drives the
// cycle, resource and verification models there). It rides the same workers,
// stream accounting and tracing as every other layer — only the intra-PE
// compute schedule changes — and runs in float32 on both datapaths: the ±½ transform
// combinations do not survive the int8 grid, so on the packed datapath the
// executor dequantizes the layer's input, calls runWinograd and requantizes.
//
// Contract: winograd_f23 is bounded-error. The transform-domain rounding
// deviation from the direct-convolution oracle is bounded by
// RunStats.WinogradErrorBound, derived from the per-PE output magnitudes the
// run itself records (the same accounting pattern as the int8 path's
// QuantErrorBound).

import "math"

// F(2×2, 3×3): each 2×2 output tile is computed from a 4×4 input tile as
// Y = Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A with the standard small-integer transforms
//
//	G  = [1 0 0; ½ ½ ½; ½ −½ ½; 0 0 1]          (4×3, weights)
//	Bᵀ = [1 0 −1 0; 0 1 1 0; 0 −1 1 0; 0 1 0 −1] (4×4, input)
//	Aᵀ = [1 1 1 0; 0 1 −1 −1]                    (2×4, inverse)
//
// 16 multiplies produce 4 outputs where the direct path spends 36 — the
// 2.25× arithmetic reduction the cycle/resource models encode.

// winogradTransformWeights computes U = G g Gᵀ for every (filter, channel)
// 3×3 kernel of a flat OIHW weight slice, returning f·c·16 transformed
// words in (fi·c+ci)·16 layout.
func winogradTransformWeights(w []float32, c, f int) []float32 {
	out := make([]float32, f*c*16)
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			g := w[(fi*c+ci)*9 : (fi*c+ci)*9+9]
			u := out[(fi*c+ci)*16 : (fi*c+ci)*16+16]
			// t = G g  (4×3)
			var t [12]float32
			for col := 0; col < 3; col++ {
				g0, g1, g2 := g[col], g[3+col], g[6+col]
				t[col] = g0
				t[3+col] = 0.5 * (g0 + g1 + g2)
				t[6+col] = 0.5 * (g0 - g1 + g2)
				t[9+col] = g2
			}
			// u = t Gᵀ  (4×4)
			for row := 0; row < 4; row++ {
				t0, t1, t2 := t[row*3], t[row*3+1], t[row*3+2]
				u[row*4] = t0
				u[row*4+1] = 0.5 * (t0 + t1 + t2)
				u[row*4+2] = 0.5 * (t0 - t1 + t2)
				u[row*4+3] = t2
			}
		}
	}
	return out
}

// winogradInputTransform computes V = Bᵀ d B for one 4×4 input tile d.
func winogradInputTransform(d *[16]float32, v []float32) {
	// t = Bᵀ d  (4×4)
	var t [16]float32
	for col := 0; col < 4; col++ {
		d0, d1, d2, d3 := d[col], d[4+col], d[8+col], d[12+col]
		t[col] = d0 - d2
		t[4+col] = d1 + d2
		t[8+col] = d2 - d1
		t[12+col] = d1 - d3
	}
	// v = t B  (4×4); B's columns are Bᵀ's rows.
	for row := 0; row < 4; row++ {
		t0, t1, t2, t3 := t[row*4], t[row*4+1], t[row*4+2], t[row*4+3]
		v[row*4] = t0 - t2
		v[row*4+1] = t1 + t2
		v[row*4+2] = t2 - t1
		v[row*4+3] = t1 - t3
	}
}

// winogradInverse computes Y = Aᵀ m A for one transform-domain 4×4 tile,
// returning the 2×2 output tile.
func winogradInverse(m []float32) (y [4]float32) {
	// t = Aᵀ m  (2×4)
	var t [8]float32
	for col := 0; col < 4; col++ {
		m0, m1, m2, m3 := m[col], m[4+col], m[8+col], m[12+col]
		t[col] = m0 + m1 + m2
		t[4+col] = m1 - m2 - m3
	}
	// y = t A  (2×2)
	for row := 0; row < 2; row++ {
		t0, t1, t2, t3 := t[row*4], t[row*4+1], t[row*4+2], t[row*4+3]
		y[row*2] = t0 + t1 + t2
		y[row*2+1] = t1 - t2 - t3
	}
	return y
}

// winogradPass is the scratch peExec.prepare sizes for the PE's most
// demanding winograd_f23 layer.
type winogradPass struct {
	plane []float32 // zero-padded channel plane
	v     []float32 // transformed input tiles, 16 words per tile
	m     []float32 // transform-domain accumulators, f·tiles·16
}

// runWinograd is the F(2,3) convolution schedule over a float32 input
// volume: per input channel the padded plane is cut into overlapping 4×4
// tiles, each transformed once (V = BᵀdB) and multiplied element-wise against
// the pre-transformed weights, accumulating in the transform domain. After
// the last channel the inverse transform produces the 2×2 output tiles in
// dst and the bias and folded activation are applied in place. Results are
// deterministic, though not bit-identical to the direct path — see the file
// comment for the error contract.
func (x *peBase) runWinograd(l *LayerHW, st *layerState, cur, dst []float32) {
	p := &x.wino
	f, c := l.OutShape.Channels, l.InShape.Channels
	inHW := l.InShape.Height * l.InShape.Width
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	acc := p.m[:f*tiles*16]
	clear(acc)
	for ci := 0; ci < c; ci++ {
		winogradTransformPlane(p.v, padPlane(p.plane, l, cur[ci*inHW:(ci+1)*inHW]), l)
		// m[fi][tile] += U[fi][ci] ⊙ V[tile], element-wise.
		for fi := 0; fi < f; fi++ {
			u := st.wg[(fi*c+ci)*16:][:16]
			for ti := 0; ti < tiles; ti++ {
				m, v := acc[(fi*tiles+ti)*16:][:16], p.v[ti*16:][:16]
				for j := range m {
					m[j] += u[j] * v[j]
				}
			}
		}
	}
	x.maxWinograd = max(x.maxWinograd, winogradInverseLayer(l, st.b, acc, dst))
}

// winogradTransformPlane cuts a padded plane into the layer's overlapping
// 4×4 tiles and writes V = BᵀdB of each to vBuf, 16 words per tile.
func winogradTransformPlane(vBuf, plane []float32, l *LayerHW) {
	tH, tW, pw := l.OutShape.Height/2, l.OutShape.Width/2, l.PaddedWidth()
	var d [16]float32
	for ty := 0; ty < tH; ty++ {
		for tx := 0; tx < tW; tx++ {
			for r := 0; r < 4; r++ {
				copy(d[r*4:r*4+4], plane[(2*ty+r)*pw+2*tx:(2*ty+r)*pw+2*tx+4])
			}
			winogradInputTransform(&d, vBuf[(ty*tW+tx)*16:])
		}
	}
}

// winogradInverseLayer inverse-transforms every output channel from the
// transform-domain accumulators m into the output volume and returns the
// largest output magnitude — the value that parameterises the error bound —
// before it folds bias and activation in.
func winogradInverseLayer(l *LayerHW, bias, m, dst []float32) (mag float64) {
	outW := l.OutShape.Width
	outHW := l.OutShape.Height * outW
	tW := outW / 2
	tiles := l.OutShape.Height / 2 * tW
	for fi := 0; fi < l.OutShape.Channels; fi++ {
		out := dst[fi*outHW:][:outHW]
		for ti := 0; ti < tiles; ti++ {
			y := winogradInverse(m[(fi*tiles+ti)*16:][:16])
			base := ti/tW*2*outW + ti%tW*2
			out[base], out[base+1] = y[0], y[1]
			out[base+outW], out[base+outW+1] = y[2], y[3]
			for _, v := range y {
				if a := math.Abs(float64(v)); a > mag {
					mag = a
				}
			}
		}
		b := biasAt(bias, fi)
		for i, v := range out {
			out[i] = v + b
		}
		activateInPlace(l.Activation, out)
	}
	return mag
}
