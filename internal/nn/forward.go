package nn

import (
	"fmt"
	"math"

	"condor/internal/tensor"
)

// forwardLayer evaluates one layer on a CHW input with the reference
// (direct, non-streaming) algorithm. The implementations follow the paper's
// equations (1), (4) and (5) literally.
func forwardLayer(l *Layer, in *tensor.Tensor, shape Shape) (*tensor.Tensor, error) {
	switch l.Kind {
	case Conv:
		return forwardConv(l, in, shape)
	case MaxPool:
		return forwardPool(l, in, shape, true)
	case AvgPool:
		return forwardPool(l, in, shape, false)
	case FullyConnected:
		return forwardFC(l, in, shape)
	case ReLU:
		return mapUnary(in, func(x float32) float32 {
			if x < 0 {
				return 0
			}
			return x
		}), nil
	case Sigmoid:
		return mapUnary(in, func(x float32) float32 {
			return float32(1 / (1 + math.Exp(-float64(x))))
		}), nil
	case TanH:
		return mapUnary(in, func(x float32) float32 {
			return float32(math.Tanh(float64(x)))
		}), nil
	case SoftMax:
		return forwardSoftMax(in, false), nil
	case LogSoftMax:
		return forwardSoftMax(in, true), nil
	default:
		return nil, fmt.Errorf("unknown layer kind %v", l.Kind)
	}
}

// forwardConv implements equation (1): each output point (i,j) of output map
// φ is the windowed dot product of the weights with the input, summed over
// all input channels, plus the optional bias b_φ.
//
// The loop nest is restructured from the literal per-window form into a
// scalar-times-row accumulation over flat slices: for every weight
// (f,c,m,n) the contribution w·x is added across a whole output row at
// once, with the column range clamped so zero-padded positions are skipped
// (their w·0 leaves a sum that starts from +0 unchanged). Each output point
// accumulates its terms from zero in (c,m,n) order — zero weights included —
// and adds the bias last: the dataflow fabric's chain, so its float32 output
// is this one bit for bit. Output channels are independent and computed in
// parallel bands.
func forwardConv(l *Layer, in *tensor.Tensor, shape Shape) (*tensor.Tensor, error) {
	outShape, err := l.OutputShape(shape)
	if err != nil {
		return nil, err
	}
	out := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
	k, s, p := l.Kernel, l.Stride, l.Pad
	h, w, cIn := shape.Height, shape.Width, shape.Channels
	outH, outW := outShape.Height, outShape.Width
	outHW := outH * outW
	src := in.Data()
	dst := out.Data()
	wd := l.Weights.Data()
	parallelFor(outShape.Channels, func(fLo, fHi int) {
		for f := fLo; f < fHi; f++ {
			fmap := dst[f*outHW : (f+1)*outHW]
			for c := 0; c < cIn; c++ {
				cmap := src[c*h*w : (c+1)*h*w]
				wbase := (f*cIn + c) * k * k
				for m := 0; m < k; m++ {
					for n := 0; n < k; n++ {
						wv := wd[wbase+m*k+n]
						// Valid output columns: 0 ≤ ox·s+n-p < w.
						oxLo, oxHi := 0, outW
						if n < p {
							oxLo = (p - n + s - 1) / s
						}
						if hi := (w - 1 - n + p) / s; hi+1 < oxHi {
							oxHi = hi + 1
						}
						for oy := 0; oy < outH; oy++ {
							y := oy*s + m - p
							if y < 0 || y >= h {
								continue
							}
							irow := cmap[y*w:]
							orow := fmap[oy*outW:]
							for ox := oxLo; ox < oxHi; ox++ {
								orow[ox] += float32(wv * irow[ox*s+n-p])
							}
						}
					}
				}
			}
			if l.Bias != nil {
				bias := l.Bias.At(f)
				for i := range fmap {
					fmap[i] += bias
				}
			}
		}
	})
	return out, nil
}

// forwardPool implements the sub-sampling layer: the window is replaced by
// its maximum (max-pooling) or its average.
func forwardPool(l *Layer, in *tensor.Tensor, shape Shape, isMax bool) (*tensor.Tensor, error) {
	outShape, err := l.OutputShape(shape)
	if err != nil {
		return nil, err
	}
	out := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
	k, s, p := l.Kernel, l.Stride, l.Pad
	h, w := shape.Height, shape.Width
	outH, outW := outShape.Height, outShape.Width
	outHW := outH * outW
	src := in.Data()
	dst := out.Data()
	// The average is the window sum times the float32 reciprocal of k², as
	// the fabric's pool stage computes it; a division rounds differently
	// whenever 1/k² is inexact (k = 3, 5, 7, ...).
	inv := 1 / float32(k*k)
	parallelFor(shape.Channels, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			cmap := src[c*h*w : (c+1)*h*w]
			orow := dst[c*outHW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var v float32
					if isMax {
						v = float32(math.Inf(-1))
					}
					clipped := false
					for m := 0; m < k; m++ {
						y := oy*s + m - p
						if y < 0 || y >= h {
							clipped = true
							continue
						}
						irow := cmap[y*w : (y+1)*w]
						for nn := 0; nn < k; nn++ {
							x := ox*s + nn - p
							if x < 0 || x >= w {
								clipped = true
								continue
							}
							if isMax {
								if irow[x] > v {
									v = irow[x]
								}
							} else {
								v += irow[x]
							}
						}
					}
					if isMax {
						// Padded positions read as zero and participate in
						// the max, exactly as in the literal form.
						if clipped && v < 0 {
							v = 0
						}
					} else {
						v *= inv
					}
					orow[oy*outW+ox] = v
				}
			}
		}
	})
	return out, nil
}

// forwardFC implements equation (4): each output neuron is the weighted sum
// of all inputs plus an optional bias. The CHW input is flattened in
// row-major order, matching both Caffe's inner-product layout and the
// streaming order of the hardware datamover.
func forwardFC(l *Layer, in *tensor.Tensor, shape Shape) (*tensor.Tensor, error) {
	flat := in.Data()
	if len(flat) != shape.Volume() {
		return nil, fmt.Errorf("fc input volume %d, want %d", len(flat), shape.Volume())
	}
	out := tensor.New(l.OutputCount, 1, 1)
	dst := out.Data()
	wd := l.Weights.Data()
	v := len(flat)
	parallelFor(l.OutputCount, func(oLo, oHi int) {
		for o := oLo; o < oHi; o++ {
			var acc float32
			if l.Bias != nil {
				acc = l.Bias.At(o)
			}
			wrow := wd[o*v : (o+1)*v]
			for h, x := range flat {
				acc += float32(wrow[h] * x)
			}
			dst[o] = acc
		}
	})
	return out, nil
}

// forwardSoftMax implements equation (5), optionally in log space. The max
// is subtracted first for numerical stability; this does not change the
// result since σ is shift-invariant.
func forwardSoftMax(in *tensor.Tensor, logSpace bool) *tensor.Tensor {
	out := tensor.New(in.Shape()...)
	src, dst := in.Data(), out.Data()
	max := float64(math.Inf(-1))
	for _, v := range src {
		if float64(v) > max {
			max = float64(v)
		}
	}
	var sum float64
	for _, v := range src {
		sum += math.Exp(float64(v) - max)
	}
	logSum := math.Log(sum)
	for i, v := range src {
		if logSpace {
			dst[i] = float32(float64(v) - max - logSum)
		} else {
			dst[i] = float32(math.Exp(float64(v)-max) / sum)
		}
	}
	return out
}

func mapUnary(in *tensor.Tensor, f func(float32) float32) *tensor.Tensor {
	out := tensor.New(in.Shape()...)
	src, dst := in.Data(), out.Data()
	for i, v := range src {
		dst[i] = f(v)
	}
	return out
}
