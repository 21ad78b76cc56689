package dataflow

import (
	"testing"

	"condor/internal/condorir"
)

// Hooks for the external test package (digest_test.go, scheduling_test.go):
// it builds LeNet and TC1 through the root package, which imports this one,
// so it cannot be an internal test; these give it the internal tests' net
// builders and goroutine count.
var (
	BuildIR         = buildIR
	RandomImages    = randomImages
	SetConvAlgo     = setConvAlgo
	Conv            = conv
	TinyLeNetLayers = tinyLeNetLayers

	PackageGoroutines = packageGoroutines
)

// PanicAt makes a worker of s panic as it starts PE pe on image img of a
// batch.
func PanicAt(s *Session, pe, img int) {
	s.testPanic = func(p, i int) {
		if p == pe && i == img {
			panic("dataflow: test panic")
		}
	}
}

// DisableAVX2 makes every accelerator instantiated until t ends run the Go
// kernels, as on a CPU without AVX2.
func DisableAVX2(t testing.TB) {
	was := haveAVX2
	haveAVX2 = false
	t.Cleanup(func() { haveAVX2 = was })
}

// GatherCase returns the input and layers of the named gather-sweep net.
func GatherCase(name string) (condorir.InputShape, []condorir.Layer) {
	for _, tc := range gatherCases {
		if tc.name == name {
			return tc.input, tc.layers
		}
	}
	panic("dataflow: no gather case " + name)
}
