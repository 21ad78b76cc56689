package bitstream

import (
	"encoding/json"
	"fmt"

	"condor/internal/board"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/hls"
)

// Metadata is the xclbin header record describing the compiled design.
type Metadata struct {
	Name         string            `json:"name"`
	Kernel       string            `json:"kernel"`
	Board        string            `json:"board"`
	Part         string            `json:"part"`
	RequestedMHz float64           `json:"requested_mhz"`
	AchievedMHz  float64           `json:"achieved_mhz"`
	Resources    board.Resources   `json:"resources"`
	Utilization  board.Utilization `json:"utilization"`
}

// Xclbin is a parsed kernel binary.
type Xclbin struct {
	Meta Metadata
	Spec *dataflow.Spec
	Host string // generated default host code
}

// XOCC compiles a .xo for the target device, running memory planning, the
// synthesis estimate and the placement/timing-closure model — the step that
// "creates custom logic based on the characteristics of the selected target
// device". It fails when the design does not fit the device, and records
// the achieved kernel clock in the xclbin metadata. The fabric has a
// datapath for 8- and 32-bit words only, so any other width is refused
// (CND016), as the device load and the verifier refuse it.
func XOCC(xoData []byte, boardID string) ([]byte, *hls.Report, error) {
	data, _, rep, err := Compile(xoData, boardID)
	return data, rep, err
}

// Compile is XOCC that also returns the xclbin it wrote as ReadXclbin would
// parse it — its metadata, fabric and host code — so the caller need not
// decode the binary it just compiled.
func Compile(xoData []byte, boardID string) ([]byte, *Xclbin, *hls.Report, error) {
	xo, err := ReadXO(xoData)
	if err != nil {
		return nil, nil, nil, err
	}
	spec := xo.Spec
	if w := spec.WordBits; w != 8 && w != 32 {
		return nil, nil, nil, fmt.Errorf("bitstream: %w", diag.Errorf(diag.RuleWordBits, "", "",
			"fabric word width %d bits is not 8 or 32", w))
	}
	b, err := board.Lookup(boardID)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Board != boardID {
		// Retarget: the same IP can be compiled for any catalogued device.
		spec.Board = boardID
	}
	if spec.FreqMHz > b.MaxClockMHz {
		return nil, nil, nil, fmt.Errorf("bitstream: requested clock %.0f MHz exceeds platform limit %.0f MHz", spec.FreqMHz, b.MaxClockMHz)
	}
	if err := hls.PlanMemory(spec); err != nil {
		return nil, nil, nil, err
	}
	rep, err := hls.Estimate(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	if !rep.Fits {
		return nil, nil, nil, fmt.Errorf("bitstream: design does not fit %s (kernel %+v vs available %+v)",
			b.ID, rep.KernelTotal, b.Available())
	}

	meta := Metadata{
		Name:         spec.Name,
		Kernel:       hls.KernelName(spec),
		Board:        b.ID,
		Part:         b.Part,
		RequestedMHz: spec.FreqMHz,
		AchievedMHz:  rep.AchievedMHz,
		Resources:    rep.Total,
		Utilization:  rep.Utilization,
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, nil, nil, err
	}
	fabric, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	host := hls.GenerateHostCode(spec)
	data, err := WriteContainer(xclbinMagic, []Section{
		{Name: sectionMetadata, Data: metaJSON},
		{Name: sectionFabric, Data: fabric},
		{Name: sectionHostCode, Data: []byte(host)},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return data, &Xclbin{Meta: meta, Spec: spec, Host: host}, rep, nil
}

// ReadXclbin parses and validates an xclbin container.
func ReadXclbin(data []byte) (*Xclbin, error) {
	sections, meta, err := readXclbinMeta(data)
	if err != nil {
		return nil, err
	}
	out := &Xclbin{Meta: meta}
	fabric, err := FindSection(sections, sectionFabric)
	if err != nil {
		return nil, err
	}
	var spec dataflow.Spec
	if err := json.Unmarshal(fabric, &spec); err != nil {
		return nil, fmt.Errorf("bitstream: xclbin fabric: %w", err)
	}
	out.Spec = &spec
	if host, err := FindSection(sections, sectionHostCode); err == nil {
		out.Host = string(host)
	}
	return out, nil
}

// readXclbinMeta checks an xclbin container, every section's checksum
// included, and decodes its metadata section only.
func readXclbinMeta(data []byte) ([]Section, Metadata, error) {
	var meta Metadata
	sections, err := ReadContainer(xclbinMagic, data)
	if err != nil {
		return nil, meta, err
	}
	metaJSON, err := FindSection(sections, sectionMetadata)
	if err != nil {
		return nil, meta, err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, meta, fmt.Errorf("bitstream: xclbin metadata: %w", err)
	}
	return sections, meta, nil
}

// AFIManifest describes the design inside an AFI creation tarball.
type AFIManifest struct {
	Name        string  `json:"name"`
	Board       string  `json:"board"`
	Kernel      string  `json:"kernel"`
	AchievedMHz float64 `json:"achieved_mhz"`
	ShellVer    string  `json:"shell_version"`
}

// PackageAFITarball wraps an xclbin (plus the design-checkpoint placeholder
// and manifest) into the tarball uploaded to S3 for AFI generation. Only
// F1-targeted xclbins are accepted, matching the AWS flow. Of the xclbin's
// sections only the metadata is decoded; the fabric is decoded when a slot
// loads the image.
func PackageAFITarball(xclbinData []byte) ([]byte, error) {
	_, meta, err := readXclbinMeta(xclbinData)
	if err != nil {
		return nil, err
	}
	b, err := board.Lookup(meta.Board)
	if err != nil {
		return nil, err
	}
	if !b.CloudOnly {
		return nil, fmt.Errorf("bitstream: board %s is not an F1 target; AFI creation is cloud-only", b.ID)
	}
	manifest, err := json.Marshal(AFIManifest{
		Name:        meta.Name,
		Board:       meta.Board,
		Kernel:      meta.Kernel,
		AchievedMHz: meta.AchievedMHz,
		ShellVer:    "0x04261818", // the F1 shell release the flow targets
	})
	if err != nil {
		return nil, err
	}
	// The DCP section stands in for the routed design checkpoint; the AFI
	// service only validates its presence and integrity.
	dcp := []byte("condor-routed-dcp:" + meta.Kernel)
	return WriteContainer(afiMagic, []Section{
		{Name: sectionManifest, Data: manifest},
		{Name: sectionXclbin, Data: xclbinData},
		{Name: sectionDCP, Data: dcp},
	})
}

// ReadAFITarball parses an AFI creation tarball, returning the manifest and
// the embedded xclbin bytes.
func ReadAFITarball(data []byte) (*AFIManifest, []byte, error) {
	sections, err := ReadContainer(afiMagic, data)
	if err != nil {
		return nil, nil, err
	}
	manifestJSON, err := FindSection(sections, sectionManifest)
	if err != nil {
		return nil, nil, err
	}
	var m AFIManifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, nil, fmt.Errorf("bitstream: AFI manifest: %w", err)
	}
	xclbin, err := FindSection(sections, sectionXclbin)
	if err != nil {
		return nil, nil, err
	}
	if _, err := FindSection(sections, sectionDCP); err != nil {
		return nil, nil, fmt.Errorf("bitstream: AFI tarball missing design checkpoint: %w", err)
	}
	return &m, xclbin, nil
}
