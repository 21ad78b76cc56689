package nn

import (
	"fmt"

	"condor/internal/tensor"
)

// This file implements the unified matrix-multiplication formulation of CNN
// layers used by the baseline accelerators the paper compares against
// (Caffeine, Zhang et al. ICCAD'16; Suda et al. FPGA'16): convolutions are
// lowered to GEMM via im2col, and fully-connected layers are GEMV. It
// serves as an independent second implementation of the reference engine
// (cross-checked against the direct forward pass) and as the computational
// model of the baseline systolic accelerator in internal/baseline.

// Im2Col lowers a CHW input into the im2col matrix for a square window:
// each output column is one window position, each row one (channel, m, n)
// element of the receptive field. Output shape: [C*K*K, OutH*OutW].
func Im2Col(in *tensor.Tensor, shape Shape, k, stride, pad int) (*tensor.Tensor, error) {
	if in.Len() != shape.Volume() {
		return nil, fmt.Errorf("nn: im2col input volume %d, want %d", in.Len(), shape.Volume())
	}
	outH := (shape.Height+2*pad-k)/stride + 1
	outW := (shape.Width+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: im2col window %d does not fit input %v", k, shape)
	}
	rows := shape.Channels * k * k
	cols := outH * outW
	out := tensor.New(rows, cols)
	dst := out.Data()
	src := in.Data()
	h, w := shape.Height, shape.Width
	for c := 0; c < shape.Channels; c++ {
		cmap := src[c*h*w : (c+1)*h*w]
		for m := 0; m < k; m++ {
			for n := 0; n < k; n++ {
				row := (c*k+m)*k + n
				base := row * cols
				// Padded positions read as zero; dst is zero-initialised, so
				// only in-bounds input elements are materialised. For the
				// unit-stride case each output row is one contiguous segment
				// of the input row, moved with a single copy.
				oxLo, oxHi := 0, outW
				if n < pad {
					oxLo = (pad - n + stride - 1) / stride
				}
				if hi := (w - 1 - n + pad) / stride; hi+1 < oxHi {
					oxHi = hi + 1
				}
				for oy := 0; oy < outH; oy++ {
					y := oy*stride + m - pad
					if y < 0 || y >= h {
						continue
					}
					irow := cmap[y*w : (y+1)*w]
					drow := dst[base+oy*outW : base+(oy+1)*outW]
					if stride == 1 {
						copy(drow[oxLo:oxHi], irow[oxLo+n-pad:])
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							drow[ox] = irow[ox*stride+n-pad]
						}
					}
				}
			}
		}
	}
	return out, nil
}

// MatMul computes C = A×B for row-major matrices A[m×k] and B[k×n].
func MatMul(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("nn: matmul needs rank-2 tensors, got %v x %v", a.Shape(), b.Shape())
	}
	m, ka := a.Dim(0), a.Dim(1)
	kb, n := b.Dim(0), b.Dim(1)
	if ka != kb {
		return nil, fmt.Errorf("nn: matmul inner dims %d vs %d", ka, kb)
	}
	out := tensor.New(m, n)
	ad, bd, cd := a.Data(), b.Data(), out.Data()
	// Row bands are independent, so they run on the bounded worker pool;
	// within a band the i/kk/j order (and therefore each element's
	// accumulation order over kk) is unchanged. The kk dimension is
	// additionally blocked so the touched rows of B stay cache-resident
	// across the band's output rows.
	const kkBlock = 256
	parallelFor(m, func(iLo, iHi int) {
		for kk0 := 0; kk0 < ka; kk0 += kkBlock {
			kk1 := kk0 + kkBlock
			if kk1 > ka {
				kk1 = ka
			}
			for i := iLo; i < iHi; i++ {
				arow := ad[i*ka : (i+1)*ka]
				crow := cd[i*n : (i+1)*n]
				for kk := kk0; kk < kk1; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := bd[kk*n : (kk+1)*n]
					for j, bv := range brow {
						crow[j] += float32(av * bv)
					}
				}
			}
		}
	})
	return out, nil
}

// forwardConvGEMM evaluates a convolutional layer via im2col + GEMM: the
// weight tensor [F, C, K, K] is viewed as an F×(C·K·K) matrix and multiplied
// with the im2col matrix, matching the Caffeine formulation.
func forwardConvGEMM(l *Layer, in *tensor.Tensor, shape Shape) (*tensor.Tensor, error) {
	outShape, err := l.OutputShape(shape)
	if err != nil {
		return nil, err
	}
	cols, err := Im2Col(in, shape, l.Kernel, l.Stride, l.Pad)
	if err != nil {
		return nil, err
	}
	wmat := l.Weights.Reshape(outShape.Channels, shape.Channels*l.Kernel*l.Kernel)
	prod, err := MatMul(wmat, cols)
	if err != nil {
		return nil, err
	}
	out := prod.Reshape(outShape.Channels, outShape.Height, outShape.Width)
	if l.Bias != nil {
		data := out.Data()
		hw := outShape.Height * outShape.Width
		for f := 0; f < outShape.Channels; f++ {
			b := l.Bias.At(f)
			for p := 0; p < hw; p++ {
				data[f*hw+p] += b
			}
		}
	}
	return out, nil
}

// forwardFCGEMM evaluates a fully-connected layer as a GEMV (the 1×1 GEMM
// case of the unified representation).
func forwardFCGEMM(l *Layer, in *tensor.Tensor, shape Shape) (*tensor.Tensor, error) {
	x := in.Reshape(shape.Volume(), 1)
	prod, err := MatMul(l.Weights, x)
	if err != nil {
		return nil, err
	}
	out := prod.Reshape(l.OutputCount, 1, 1)
	if l.Bias != nil {
		data := out.Data()
		for o := range data {
			data[o] += l.Bias.At(o)
		}
	}
	return out, nil
}

// GEMMForward runs the whole network with the matrix-multiplication
// formulation (conv→im2col+GEMM, FC→GEMV; pooling and pointwise layers use
// the direct implementations). It is an independent oracle for the direct
// engine and the computational model of the baseline accelerator.
func (n *Network) GEMMForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if got, want := in.Shape(), n.Input; len(got) != 3 || got[0] != want.Channels || got[1] != want.Height || got[2] != want.Width {
		return nil, fmt.Errorf("nn: input shape %v, want %v", in.Shape(), want)
	}
	cur := in
	shape := n.Input
	for i, l := range n.Layers {
		var out *tensor.Tensor
		var err error
		switch l.Kind {
		case Conv:
			out, err = forwardConvGEMM(l, cur, shape)
		case FullyConnected:
			out, err = forwardFCGEMM(l, cur, shape)
		default:
			out, err = forwardLayer(l, cur, shape)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name, err)
		}
		shape, err = l.OutputShape(shape)
		if err != nil {
			return nil, err
		}
		cur = out
	}
	return cur, nil
}

// Im2ColWords returns the size of the im2col matrix a layer expands to —
// the K²-fold input duplication the GEMM formulation pays in memory traffic
// (the cost the dataflow architecture's reuse buffers avoid).
func Im2ColWords(l *Layer, in Shape) int64 {
	out, err := l.OutputShape(in)
	if err != nil {
		return 0
	}
	return int64(in.Channels) * int64(l.Kernel) * int64(l.Kernel) *
		int64(out.Height) * int64(out.Width)
}
