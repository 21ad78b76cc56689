package bitstream

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/models"
	"condor/internal/tensor"
)

func tc1Spec(t *testing.T) (*dataflow.Spec, *condorir.WeightSet) {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	return spec, ws
}

func TestContainerRoundTrip(t *testing.T) {
	sections := []Section{
		{Name: "a", Data: []byte("hello")},
		{Name: "b/c", Data: []byte{}},
		{Name: "bin", Data: []byte{0, 1, 2, 255}},
	}
	data, err := WriteContainer("TEST", sections)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadContainer("TEST", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("section count %d", len(got))
	}
	for i := range sections {
		if got[i].Name != sections[i].Name || string(got[i].Data) != string(sections[i].Data) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}

func TestContainerDetectsCorruption(t *testing.T) {
	data, err := WriteContainer("TEST", []Section{{Name: "x", Data: []byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x1 // flip a payload bit
	if _, err := ReadContainer("TEST", data); err == nil {
		t.Fatal("expected checksum error")
	}
}

func TestContainerRejectsWrongMagicAndTrailing(t *testing.T) {
	data, _ := WriteContainer("AAAA", nil)
	if _, err := ReadContainer("BBBB", data); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadContainer("AAAA", append(data, 0)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
	if _, err := ReadContainer("AAAA", data[:3]); err == nil {
		t.Fatal("expected truncation error")
	}
}

// Property: containers with arbitrary binary sections round-trip intact.
func TestContainerProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		sections := make([]Section, len(payloads))
		for i, p := range payloads {
			sections[i] = Section{Name: strings.Repeat("s", i+1), Data: p}
		}
		data, err := WriteContainer("PROP", sections)
		if err != nil {
			return false
		}
		got, err := ReadContainer("PROP", data)
		if err != nil || len(got) != len(sections) {
			return false
		}
		for i := range sections {
			if got[i].Name != sections[i].Name || string(got[i].Data) != string(sections[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelXML(t *testing.T) {
	spec, _ := tc1Spec(t)
	xmlStr, err := KernelXML(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"condor_TC1", "m_axi_gmem", "s_axi_control", "<?xml"} {
		if !strings.Contains(xmlStr, want) {
			t.Fatalf("kernel XML missing %q:\n%s", want, xmlStr)
		}
	}
}

func TestXORoundTrip(t *testing.T) {
	spec, _ := tc1Spec(t)
	data, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := ReadXO(data)
	if err != nil {
		t.Fatal(err)
	}
	if xo.Spec.Name != "TC1" || len(xo.Spec.PEs) != len(spec.PEs) {
		t.Fatalf("xo spec lost structure")
	}
	if len(xo.Sources) != len(spec.PEs) {
		t.Fatalf("xo has %d sources, want %d", len(xo.Sources), len(spec.PEs))
	}
	for _, pe := range spec.PEs {
		if !strings.Contains(xo.Sources[pe.ID], "void "+pe.ID) {
			t.Fatalf("source for %s missing", pe.ID)
		}
	}
}

func TestXOCCProducesLoadableXclbin(t *testing.T) {
	spec, ws := tc1Spec(t)
	xoData, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xclbinData, rep, err := XOCC(xoData, "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fits {
		t.Fatal("TC1 must fit the F1")
	}
	x, err := ReadXclbin(xclbinData)
	if err != nil {
		t.Fatal(err)
	}
	if x.Meta.Board != "aws-f1-vu9p" || x.Meta.Kernel != "condor_TC1" {
		t.Fatalf("metadata = %+v", x.Meta)
	}
	if x.Meta.AchievedMHz < 100 || x.Meta.AchievedMHz > x.Meta.RequestedMHz {
		t.Fatalf("achieved clock %v vs requested %v", x.Meta.AchievedMHz, x.Meta.RequestedMHz)
	}
	if x.Host == "" || !strings.Contains(x.Host, "condor_init") {
		t.Fatal("xclbin missing default host code")
	}

	// The deserialised fabric must still execute correctly.
	acc, err := dataflow.Instantiate(x.Spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.USPSImages(1, 3)
	outs, _, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	ir, ws2, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	net, err := ir.BuildNN(ws2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Predict(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(outs[0], want, 2e-3) {
		t.Fatal("deserialised fabric computes wrong outputs")
	}
}

func TestXOCCRejectsOverclock(t *testing.T) {
	spec, _ := tc1Spec(t)
	spec.FreqMHz = 400
	xoData, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := XOCC(xoData, "aws-f1-vu9p"); err == nil {
		t.Fatal("expected clock-limit error")
	}
}

// TestXOCCRejectsWordBits: the fabric has datapaths for 8- and 32-bit words
// only, so XOCC refuses any other width with CND016 before compiling, as the
// verifier and the device load do; 8 and 32 compile.
func TestXOCCRejectsWordBits(t *testing.T) {
	for _, bits := range []int{32, 8, 16, 7, 0} {
		spec, _ := tc1Spec(t)
		spec.WordBits = bits
		xoData, err := PackageXO(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = XOCC(xoData, "aws-f1-vu9p")
		if bits == 8 || bits == 32 {
			if err != nil {
				t.Errorf("%d-bit fabric refused: %v", bits, err)
			}
			continue
		}
		var d *diag.Diagnostic
		if !errors.As(err, &d) || d.Rule != diag.RuleWordBits {
			t.Errorf("%d-bit fabric: error %v, want %s", bits, err, diag.RuleWordBits)
		}
	}
}

// TestCompileReturnsWhatReadXclbinReads: Compile's parsed xclbin — the
// metadata and host code a build records without decoding its binary —
// equals what ReadXclbin decodes from the bytes it returns.
func TestCompileReturnsWhatReadXclbinReads(t *testing.T) {
	spec, _ := tc1Spec(t)
	xoData, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, x, _, err := Compile(xoData, "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadXclbin(data)
	if err != nil {
		t.Fatal(err)
	}
	if x.Meta != read.Meta || x.Host != read.Host {
		t.Fatalf("Compile returned %+v, ReadXclbin reads %+v", x.Meta, read.Meta)
	}
	if !reflect.DeepEqual(x.Spec, read.Spec) {
		t.Fatal("Compile's fabric differs from the one ReadXclbin decodes")
	}
}

func TestXOCCRejectsUnknownBoard(t *testing.T) {
	spec, _ := tc1Spec(t)
	xoData, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := XOCC(xoData, "nope"); err == nil {
		t.Fatal("expected unknown-board error")
	}
}

func TestXOCCRetargetsBoard(t *testing.T) {
	spec, _ := tc1Spec(t)
	xoData, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xclbinData, _, err := XOCC(xoData, "zc706")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReadXclbin(xclbinData)
	if err != nil {
		t.Fatal(err)
	}
	if x.Meta.Board != "zc706" || x.Meta.Part != "xc7z045-ffg900-2" {
		t.Fatalf("retarget metadata = %+v", x.Meta)
	}
}

func TestAFITarballRoundTrip(t *testing.T) {
	spec, _ := tc1Spec(t)
	xoData, _ := PackageXO(spec)
	xclbinData, _, err := XOCC(xoData, "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	tarball, err := PackageAFITarball(xclbinData)
	if err != nil {
		t.Fatal(err)
	}
	m, embedded, err := ReadAFITarball(tarball)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kernel != "condor_TC1" || m.Board != "aws-f1-vu9p" {
		t.Fatalf("manifest = %+v", m)
	}
	if string(embedded) != string(xclbinData) {
		t.Fatal("embedded xclbin altered")
	}
}

func TestAFITarballRejectsLocalBoards(t *testing.T) {
	spec, _ := tc1Spec(t)
	xoData, _ := PackageXO(spec)
	xclbinData, _, err := XOCC(xoData, "zc706")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PackageAFITarball(xclbinData); err == nil {
		t.Fatal("AFI creation must be F1-only")
	}
}

func TestReadXclbinRejectsGarbage(t *testing.T) {
	if _, err := ReadXclbin([]byte("not an xclbin")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestReadXOErrors(t *testing.T) {
	if _, err := ReadXO([]byte("garbage")); err == nil {
		t.Fatal("expected magic error")
	}
	// A container with the right magic but no fabric section.
	data, err := WriteContainer(xoMagic, []Section{{Name: sectionKernelXML, Data: []byte("<x/>")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadXO(data); err == nil {
		t.Fatal("expected missing-fabric error")
	}
	// Fabric present but not JSON.
	data, err = WriteContainer(xoMagic, []Section{
		{Name: sectionKernelXML, Data: []byte("<x/>")},
		{Name: sectionFabric, Data: []byte("{bad json")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadXO(data); err == nil {
		t.Fatal("expected fabric-parse error")
	}
	// Valid JSON but empty fabric.
	data, err = WriteContainer(xoMagic, []Section{
		{Name: sectionKernelXML, Data: []byte("<x/>")},
		{Name: sectionFabric, Data: []byte("{}")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadXO(data); err == nil {
		t.Fatal("expected empty-fabric error")
	}
}

func TestXOCCRejectsDesignTooLarge(t *testing.T) {
	// A heavily parallelised conv cannot fit the small ZC706.
	ir := &condorir.Network{
		Name: "huge", Board: "zc706", FrequencyMHz: 100,
		Input: condorir.InputShape{Channels: 64, Height: 64, Width: 64},
		Layers: []condorir.Layer{
			{Name: "c", Type: "Convolution", KernelSize: 7, NumOutput: 64, Bias: true, PEGroup: -1,
				Parallelism: condorir.Parallelism{In: 16, Out: 16}},
		},
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := XOCC(xo, "zc706"); err == nil {
		t.Fatal("expected does-not-fit error")
	}
}

func TestReadAFITarballErrors(t *testing.T) {
	if _, _, err := ReadAFITarball([]byte("nope")); err == nil {
		t.Fatal("expected magic error")
	}
	// Tarball missing the DCP section.
	spec, _ := tc1Spec(t)
	xo, _ := PackageXO(spec)
	xclbin, _, err := XOCC(xo, "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	manifest := []byte(`{"name":"x","board":"aws-f1-vu9p"}`)
	data, err := WriteContainer(afiMagic, []Section{
		{Name: sectionManifest, Data: manifest},
		{Name: sectionXclbin, Data: xclbin},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAFITarball(data); err == nil {
		t.Fatal("expected missing-DCP error")
	}
	// Manifest not JSON.
	data, err = WriteContainer(afiMagic, []Section{
		{Name: sectionManifest, Data: []byte("{bad")},
		{Name: sectionXclbin, Data: xclbin},
		{Name: sectionDCP, Data: []byte("dcp")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAFITarball(data); err == nil {
		t.Fatal("expected manifest-parse error")
	}
}

func TestXclbinMissingMetadata(t *testing.T) {
	data, err := WriteContainer(xclbinMagic, []Section{{Name: sectionFabric, Data: []byte("{}")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadXclbin(data); err == nil {
		t.Fatal("expected missing-metadata error")
	}
}

func TestWriteContainerBadMagic(t *testing.T) {
	if _, err := WriteContainer("TOOLONG", nil); err == nil {
		t.Fatal("expected magic-length error")
	}
}
