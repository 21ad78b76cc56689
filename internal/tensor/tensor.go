// Package tensor provides the dense float32 tensor type used throughout the
// Condor framework. Tensors are stored in row-major NCHW order, matching both
// the Caffe blob layout and the streaming order of the hardware datamover.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float32 array with an explicit shape. Data is stored in
// row-major order with the last dimension contiguous.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. A tensor with no
// dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps an existing slice in a tensor with the given shape. The
// slice is used directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Views splits data into consecutive tensors of the given shape that share
// data and one copy of the shape: three allocations for any number of
// views. Each view's data is capped at its own volume, so an append to it
// reallocates instead of overwriting the next view.
func Views(data []float32, shape ...int) []*Tensor {
	vol := Volume(shape)
	if vol <= 0 || len(data)%vol != 0 {
		panic(fmt.Sprintf("tensor: %d words are not whole tensors of shape %v", len(data), shape))
	}
	sh := append([]int(nil), shape...)
	ts := make([]Tensor, len(data)/vol)
	views := make([]*Tensor, len(ts))
	for i := range ts {
		ts[i] = Tensor{shape: sh, data: data[i*vol : (i+1)*vol : (i+1)*vol]}
		views[i] = &ts[i]
	}
	return views
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// offset computes the linear index of a multi-dimensional coordinate.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given coordinate.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx...)] }

// Set stores v at the given coordinate.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// FillRandom fills the tensor with uniform values in [-scale, scale) drawn
// from rng. Deterministic for a fixed seed, which the synthetic models rely on.
func (t *Tensor) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Channel returns a view of channel c of a CHW tensor (rank 3) as an HxW
// tensor sharing storage.
func (t *Tensor) Channel(c int) *Tensor {
	if len(t.shape) != 3 {
		panic("tensor: Channel requires a rank-3 (CHW) tensor")
	}
	h, w := t.shape[1], t.shape[2]
	off := c * h * w
	return &Tensor{shape: []int{h, w}, data: t.data[off : off+h*w]}
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// tensors of identical shape.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	max := 0.0
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// AllClose reports whether every pair of elements differs by at most tol,
// treating NaNs as unequal.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if math.IsNaN(d) || d > tol {
			return false
		}
	}
	return true
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool { return ShapeEq(a.shape, b.shape) }

// ShapeEq reports whether two dimension lists are identical. It is the one
// supported way to compare raw shape slices (the shapecompare analyzer in
// internal/analysis rejects hand-rolled alternatives).
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Volume returns the product of the dimensions of a shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ArgMax returns the index of the largest element of a flat tensor. Ties go
// to the lowest index. Panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best := 0
	for i, v := range t.data {
		if v > t.data[best] {
			best = i
		}
	}
	return best
}

// String renders a compact description (shape only) for debugging.
func (t *Tensor) String() string { return fmt.Sprintf("Tensor%v", t.shape) }
