package dataflow

import (
	"testing"

	"condor/internal/condorir"
	"condor/internal/nn"
)

// TestDDRTrafficMatchesFunctionalAccounting validates the analytic traffic
// model against the datamover's run-time byte counters.
func TestDDRTrafficMatchesFunctionalAccounting(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*condorir.Network, *Spec)
	}{
		{"default", func(*condorir.Network, *Spec) {}},
		{"streamed-weights", func(_ *condorir.Network, s *Spec) {
			for _, pe := range s.PEs {
				pe.WeightsOnChip = false
			}
		}},
		{"cached-weights", func(_ *condorir.Network, s *Spec) {
			for _, pe := range s.PEs {
				pe.WeightsOnChip = true
			}
		}},
		{"spilled-partials", func(_ *condorir.Network, s *Spec) {
			for _, pe := range s.PEs {
				pe.PartialsOnChip = false
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layers := tinyLeNetLayers()
			ir, ws, _ := buildIR(t, "traffic-"+tc.name, condorir.InputShape{Channels: 1, Height: 12, Width: 12}, layers, 3)
			spec, err := BuildSpec(ir)
			if err != nil {
				t.Fatal(err)
			}
			// Default: partials on-chip, weights streamed (zero values).
			for _, pe := range spec.PEs {
				pe.PartialsOnChip = true
			}
			tc.mut(ir, spec)

			acc, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			batch := 3
			imgs := randomImages(batch, nn.Shape{Channels: 1, Height: 12, Width: 12}, 4)
			_, stats, err := acc.Run(imgs)
			if err != nil {
				t.Fatal(err)
			}
			measured := stats.DRAM.BytesRead + stats.DRAM.BytesWritten
			want := spec.OnChipLoadBytes() + int64(batch)*spec.DDRBytesPerImage()
			if measured != want {
				t.Fatalf("measured %d bytes, analytic model says %d", measured, want)
			}
		})
	}
}

func TestDDRTrafficWithFusion(t *testing.T) {
	layers := tinyLeNetLayers()
	layers[0].PEGroup = 0
	layers[1].PEGroup = 0
	ir, ws, _ := buildIR(t, "traffic-fused", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, layers, 5)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range spec.PEs {
		pe.PartialsOnChip = true
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	imgs := randomImages(2, nn.Shape{Channels: 1, Height: 12, Width: 12}, 6)
	_, stats, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	measured := stats.DRAM.BytesRead + stats.DRAM.BytesWritten
	want := spec.OnChipLoadBytes() + 2*spec.DDRBytesPerImage()
	if measured != want {
		t.Fatalf("fused: measured %d bytes, analytic %d", measured, want)
	}
}

func TestQuantizedTrafficScalesWithWordBytes(t *testing.T) {
	layers := tinyLeNetLayers()
	ir, _, _ := buildIR(t, "traffic-q", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, layers, 7)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the 4-byte partial spill scales by the word size;
	// with partials on-chip int8 traffic is a quarter of float32's exactly.
	for _, pe := range spec.PEs {
		pe.PartialsOnChip = true
	}
	spec.WordBits = 32
	full := spec.DDRBytesPerImage()
	spec.WordBits = 8
	quarter := spec.DDRBytesPerImage()
	if 4*quarter != full {
		t.Fatalf("int8 traffic %d should be a quarter of %d", quarter, full)
	}
}
