package dataflow

// This file implements the alternate convolution algorithms of the burst
// datapath: the im2col+GEMM lowering and the Winograd F(2,3) transform-
// domain convolution. Both ride the same FIFOs, frame protocol and tracing
// as the direct path in pe.go — only the intra-PE compute schedule changes.
//
// Contract:
//   - im2col_gemm (float32) is BIT-IDENTICAL to the direct path and to the
//     RunWords oracle: every output cell still accumulates its input
//     channels ci-major with the same ascending K²-tap order; the panel
//     and the register-tiled microkernel only reorder *independent* cells.
//   - winograd_f23 is bounded-error: the transform-domain rounding
//     deviation is bounded by RunStats.WinogradErrorBound, derived from
//     the per-PE output magnitudes the run itself records (the same
//     accounting pattern as the int8 path's QuantErrorBound).

import "math"

// gemmPosTile is the output-position register-tile width of the GEMM
// microkernel: one weight load feeds this many accumulating positions.
const gemmPosTile = 4

// buildIm2ColPanel unrolls one padded channel plane (float words or int8
// codes) into the tap-major im2col panel: row t = (m·K+n) holds the input
// element under tap (m,n) of every output position, so panel[t*outHW+pos] is the same value the direct
// path's window gather would deliver as win[t] at pos. For stride 1 every
// row is outH contiguous copies — the cheap gather that makes the lowering
// profitable.
func buildIm2ColPanel[T float32 | int8](panel, padded []T, l *LayerHW) {
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	for m := 0; m < k; m++ {
		for n := 0; n < k; n++ {
			dst := panel[(m*k+n)*outHW:]
			for oy := 0; oy < outH; oy++ {
				src := padded[(oy*stride+m)*pw+n:]
				if stride == 1 {
					copy(dst[oy*outW:(oy+1)*outW], src[:outW])
				} else {
					for ox := 0; ox < outW; ox++ {
						dst[oy*outW+ox] = src[ox*stride]
					}
				}
			}
		}
	}
}

// runConvGEMM is the im2col+GEMM convolution schedule: each input channel's
// padded plane is unrolled once into the tap-major panel, then the
// register-tiled microkernel drives every output channel band over it. Per
// output cell the accumulation chain is identical to runConv — ci-major
// over input channels, ascending tap order within a channel — so float32
// results are bit-identical to the direct path and the RunWords oracle at
// every parallelism setting. Stats accounting is runConv's (convPasses).
func (x *peExec) runConvGEMM() {
	l := x.pass.l
	outHW := l.OutShape.Height * l.OutShape.Width
	clear(x.partial[:l.OutShape.Channels*outHW])
	x.convPasses(outHW, l.Kernel*l.Kernel, x.im2colPass, x.fns.gemm)
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.tail)
}

// im2colPass unrolls the pass's plane into the panel.
func (x *peExec) im2colPass() { buildIm2ColPanel(x.panel, x.pass.plane, x.pass.l) }

// gemmBand drives the microkernel over the panel of input channel pass.ci
// for output channels [lo,hi).
func (x *peExec) gemmBand(_, lo, hi int) {
	p := &x.pass
	l := p.l
	c, kk := l.InShape.Channels, l.Kernel*l.Kernel
	outHW := l.OutShape.Height * l.OutShape.Width
	w, panel := p.st.w, x.panel
	for fi := lo; fi < hi; fi++ {
		base := (fi*c + p.ci) * kk
		acc := x.partial[fi*outHW : (fi+1)*outHW]
		pos := 0
		for ; pos+gemmPosTile <= outHW; pos += gemmPosTile {
			a0, a1, a2, a3 := acc[pos], acc[pos+1], acc[pos+2], acc[pos+3]
			for t := 0; t < kk; t++ {
				wv := w[base+t]
				row := panel[t*outHW+pos : t*outHW+pos+gemmPosTile]
				a0 += wv * row[0]
				a1 += wv * row[1]
				a2 += wv * row[2]
				a3 += wv * row[3]
			}
			acc[pos], acc[pos+1], acc[pos+2], acc[pos+3] = a0, a1, a2, a3
		}
		for ; pos < outHW; pos++ {
			a := acc[pos]
			for t := 0; t < kk; t++ {
				a += w[base+t] * panel[t*outHW+pos]
			}
			acc[pos] = a
		}
	}
}

// --- Winograd F(2,3) ---
//
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

// runConvWinograd is the F(2,3) convolution schedule: per input channel the
// padded plane is cut into overlapping 4×4 tiles, each transformed once
// (V = BᵀdB) and multiplied element-wise against the pre-transformed
// weights, accumulating in the transform domain; after the last input
// channel the inverse transform produces the 2×2 output tiles, then the
// shared bias/activation tail runs. Banding shards output channels, never
// an accumulation chain, so results are deterministic at every parallelism
// setting (though not bit-identical to the direct path — see the file
// comment for the error contract).
func (x *peExec) runConvWinograd() {
	l := x.pass.l
	f := l.OutShape.Channels
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	clear(x.mBuf[:f*tiles*16])
	x.convPasses(tiles, 16, x.winogradInputTiles, x.fns.wgMul)
	// Inverse transform into the partial buffer, tracking the output
	// magnitude that parameterises the error bound, then the shared tail.
	clear(x.mags)
	x.pool.bands(f, x.outBands, x.fns.wgInv)
	for _, m := range x.mags {
		if m > x.stats.MaxWinogradMag {
			x.stats.MaxWinogradMag = m
		}
	}
	x.pool.bands(f, x.outBands, x.fns.tail)
}

// winogradInputTiles transforms every 4×4 input tile of the pass's plane
// into vBuf, once per channel pass.
func (x *peExec) winogradInputTiles() {
	winogradTransformPlane(x.vBuf, x.pass.plane, x.pass.l)
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

// winogradMulAcc is the transform-domain pass of output channels [lo,hi):
// mBuf[fi][tile] += U[fi][ci] ⊙ V[tile], element-wise.
func winogradMulAcc(mBuf, vBuf, wg []float32, c, ci, tiles, lo, hi int) {
	for fi := lo; fi < hi; fi++ {
		u := wg[(fi*c+ci)*16 : (fi*c+ci)*16+16]
		for ti := 0; ti < tiles; ti++ {
			m := mBuf[(fi*tiles+ti)*16 : (fi*tiles+ti)*16+16]
			v := vBuf[ti*16 : ti*16+16]
			for j := 0; j < 16; j++ {
				m[j] += u[j] * v[j]
			}
		}
	}
}

func (x *peExec) winogradMulBand(_, lo, hi int) {
	l := x.pass.l
	tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
	winogradMulAcc(x.mBuf, x.vBuf, x.pass.st.wg, l.InShape.Channels, x.pass.ci, tiles, lo, hi)
}

// winogradInverseInto inverse-transforms output channels [lo,hi) of mBuf into
// dst's channel-major planes; it returns the largest output magnitude or mag.
func winogradInverseInto(dst, mBuf []float32, l *LayerHW, lo, hi int, mag float64) float64 {
	outW := l.OutShape.Width
	outHW := l.OutShape.Height * outW
	tW := outW / 2
	tiles := l.OutShape.Height / 2 * tW
	for fi := lo; fi < hi; fi++ {
		for ti := 0; ti < tiles; ti++ {
			y := winogradInverse(mBuf[(fi*tiles+ti)*16 : (fi*tiles+ti)*16+16])
			ty, tx := ti/tW, ti%tW
			base := fi*outHW + (2*ty)*outW + 2*tx
			dst[base], dst[base+1] = y[0], y[1]
			dst[base+outW], dst[base+outW+1] = y[2], y[3]
			for _, v := range y {
				if a := math.Abs(float64(v)); a > mag {
					mag = a
				}
			}
		}
	}
	return mag
}

// winogradInverseBand inverse-transforms output channels [lo,hi) into the
// partial buffer and records the band's largest output magnitude.
func (x *peExec) winogradInverseBand(band, lo, hi int) {
	x.mags[band] = winogradInverseInto(x.partial, x.mBuf, x.pass.l, lo, hi, x.mags[band])
}
