//go:build !amd64

package dataflow

// Off amd64 every float32 convolution runs the portable Go tile.
const haveConvTile8 = false

func convTile8(*float32, *int32, int, *float32, *float32, *float32, *float32, *[4][convLanes]float32) {
	panic("dataflow: convTile8 called without AVX2")
}
