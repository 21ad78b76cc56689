//go:build !amd64

package dataflow

// Off amd64 every convolution, FC and pooling layer runs the portable Go
// kernels. A variable, as on amd64, so that the test hook which switches the
// AVX2 kernels off (DisableAVX2) builds everywhere.
var haveAVX2 = false

func convTile8(*float32, *int32, int, *float32, *float32, *float32, *float32, *float32, *float32, *float32, *float32, float32, float32, float32, float32) {
	panic("dataflow: convTile8 called without AVX2")
}

func fcRows8(*float32, int, *float32, int, *float32) {
	panic("dataflow: fcRows8 called without AVX2")
}

func fcLanes8(*float32, int, *[convLanes]*float32, *[convLanes][convLanes]float32) {
	panic("dataflow: fcLanes8 called without AVX2")
}

func poolMaxPlane(*float32, int, int, int, int, int, *float32) {
	panic("dataflow: poolMaxPlane called without AVX2")
}

func poolMaxPlaneI8(*int8, int, int, int, int, int, *int8) {
	panic("dataflow: poolMaxPlaneI8 called without AVX2")
}

func convTile16I8(*uint32, *int32, int, *uint32, *uint32, *uint32, *uint32, int, *float32, *float32, *float32, *float32, int, float64, float32, float32, float32, float32, bool, *uint32, *uint32, *uint32, *uint32) {
	panic("dataflow: convTile16I8 called without AVX2")
}

func fcDot4I8(*int8, int, *int8, *int8, *int8, *int8, *[4][convLanes]int32) {
	panic("dataflow: fcDot4I8 called without AVX2")
}

func fcLanes8I8(*uint32, int, *[convLanes]*uint32, *[convLanes][convLanes]int32) {
	panic("dataflow: fcLanes8I8 called without AVX2")
}

func deqStore4(*int32, int, *float32, float64, float64, bool, uint32) uint32 {
	panic("dataflow: deqStore4 called without AVX2")
}

func quantize8(*int8, *float32, int, float64) {
	panic("dataflow: quantize8 called without AVX2")
}
