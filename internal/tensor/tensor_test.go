package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	if tt.Rank() != 3 || tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad shape %v", tt.Shape())
	}
	for _, v := range tt.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len = %d, want 1", s.Len())
	}
	s.Set(7)
	if s.At() != 7 {
		t.Fatalf("scalar At = %v, want 7", s.At())
	}
}

func TestAtSetRowMajor(t *testing.T) {
	tt := New(2, 3)
	tt.Set(5, 1, 2)
	if tt.Data()[1*3+2] != 5 {
		t.Fatal("Set did not write row-major offset")
	}
	if tt.At(1, 2) != 5 {
		t.Fatal("At did not read back value")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestWrongRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong index count")
		}
	}()
	New(2, 2).At(1)
}

func TestNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(1, 0) != 4 {
		t.Fatalf("At(1,0) = %v, want 4", tt.At(1, 0))
	}
	d[0] = 9
	if tt.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias, not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Fill(3)
	b := a.Clone()
	b.Set(1, 0)
	if a.At(0) != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 6)
	a.Set(8, 1, 1)
	b := a.Reshape(3, 4)
	if b.At(1, 3) != 8 {
		t.Fatalf("reshaped read = %v, want 8", b.At(1, 3))
	}
	b.Set(2, 0, 0)
	if a.At(0, 0) != 2 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeBadVolumePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on volume mismatch")
		}
	}()
	New(2, 3).Reshape(7)
}

func TestChannelView(t *testing.T) {
	tt := New(2, 2, 3)
	tt.Set(5, 1, 0, 2)
	ch := tt.Channel(1)
	if got := ch.At(0, 2); got != 5 {
		t.Fatalf("channel view At(0,2) = %v, want 5", got)
	}
	ch.Set(7, 1, 1)
	if tt.At(1, 1, 1) != 7 {
		t.Fatal("Channel must be a view")
	}
}

func TestMaxAbsDiffAndAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.5, 3}, 3)
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
	if !AllClose(a, b, 0.5) {
		t.Fatal("AllClose(tol=0.5) should hold")
	}
	if AllClose(a, b, 0.4) {
		t.Fatal("AllClose(tol=0.4) should fail")
	}
	if AllClose(a, New(4), 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestArgMax(t *testing.T) {
	tt := FromSlice([]float32{1, 5, 5, 2}, 4)
	if i := tt.ArgMax(); i != 1 {
		t.Fatalf("ArgMax = %d, want 1 (first of ties)", i)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := New(100), New(100)
	a.FillRandom(rand.New(rand.NewSource(42)), 1)
	b.FillRandom(rand.New(rand.NewSource(42)), 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("FillRandom not deterministic for equal seeds")
	}
	for _, v := range a.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1,1)", v)
		}
	}
}

// Property: for any shape up to rank 4, offset arithmetic round-trips — the
// element written at a coordinate is read back at that coordinate and lives
// at the expected row-major position.
func TestRowMajorProperty(t *testing.T) {
	f := func(d1, d2, d3 uint8) bool {
		a, b, c := int(d1%5)+1, int(d2%5)+1, int(d3%5)+1
		tt := New(a, b, c)
		rng := rand.New(rand.NewSource(int64(d1)<<16 | int64(d2)<<8 | int64(d3)))
		i, j, k := rng.Intn(a), rng.Intn(b), rng.Intn(c)
		tt.Set(3.25, i, j, k)
		return tt.At(i, j, k) == 3.25 && tt.Data()[(i*b+j)*c+k] == 3.25
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolume(t *testing.T) {
	if Volume([]int{2, 3, 4}) != 24 {
		t.Fatal("Volume wrong")
	}
	if Volume(nil) != 1 {
		t.Fatal("Volume(nil) should be 1 (scalar)")
	}
}

func TestViewsShareShapeAndStayApart(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	views := Views(data, 3, 1, 1)
	if len(views) != 2 {
		t.Fatalf("%d views of 6 words in 3-word tensors", len(views))
	}
	if &views[0].Shape()[0] != &views[1].Shape()[0] || !ShapeEq(views[1].Shape(), []int{3, 1, 1}) {
		t.Fatalf("views do not share the shape [3 1 1]: %v, %v", views[0].Shape(), views[1].Shape())
	}
	views[1].Data()[0] = 40
	if data[3] != 40 {
		t.Fatal("a view does not write through to the shared data")
	}
	if grown := append(views[0].Data(), -1); grown[3] != -1 || views[1].At(0, 0, 0) != 40 {
		t.Fatalf("append on view 0 overwrote view 1: %v", views[1].Data())
	}
	if got := Views(nil, 3, 1, 1); len(got) != 0 {
		t.Fatalf("%d views of no words", len(got))
	}
	for _, shape := range [][]int{{4}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Views of 6 words as %v did not panic", shape)
				}
			}()
			Views(data, shape...)
		}()
	}
}
