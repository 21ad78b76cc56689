package dataflow

// convTile8 runs the whole C·K² chain of a 4-channel × convLanes-position
// float32 tile in AVX2 (convtile_amd64.s): win points at the first window's
// top-left word in channel 0's plane, the other seven windows start at the
// words after it, taps are the layer's n gather offsets and w0–w3 the four
// channels' weight rows. The loads are unchecked; convTile8OK is their guard.
//
//go:noescape
func convTile8(win *float32, taps *int32, n int, w0, w1, w2, w3 *float32, acc *[4][convLanes]float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveConvTile8 reports whether the CPU has AVX2 and the OS saves the ymm
// registers across context switches.
var haveConvTile8 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()
