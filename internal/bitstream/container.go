// Package bitstream implements the packaging half of the Condor backend:
// the SDAccel kernel-description XML, the Xilinx Object (.xo) packaging of
// the accelerator IP, the XOCC compile step that produces the xclbin binary
// for a target device (with the placement/timing-closure model deciding the
// achieved clock), and the AFI tarball the cloud flow uploads to S3. All
// artifacts are real binary container files with integrity checks, so the
// downstream runtime and cloud services consume exactly what this layer
// produces.
package bitstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Section is one named payload of a container file.
type Section struct {
	Name string
	Data []byte
}

// containerVersion is the format version of all Condor containers.
const containerVersion = 1

// WriteContainer serialises sections under a 4-byte magic:
//
//	magic [4]byte | version u32 | count u32 |
//	{ nameLen u16 | name | size u32 | payload | crc32 }*
func WriteContainer(magic string, sections []Section) ([]byte, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("bitstream: magic %q must be 4 bytes", magic)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	binary.Write(&buf, binary.LittleEndian, uint32(containerVersion)) //nolint:errcheck
	binary.Write(&buf, binary.LittleEndian, uint32(len(sections)))    //nolint:errcheck
	for _, s := range sections {
		if len(s.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("bitstream: section name too long")
		}
		binary.Write(&buf, binary.LittleEndian, uint16(len(s.Name))) //nolint:errcheck
		buf.WriteString(s.Name)
		binary.Write(&buf, binary.LittleEndian, uint32(len(s.Data))) //nolint:errcheck
		buf.Write(s.Data)
		binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(s.Data)) //nolint:errcheck
	}
	return buf.Bytes(), nil
}

// ReadContainer parses and verifies a container, checking the magic and
// every section checksum. Payloads are sub-slices of data, not copies. Every
// count and length is checked against the bytes left before it sizes
// anything, so a hostile header costs no more than the input's own size.
func ReadContainer(magic string, data []byte) ([]Section, error) {
	le := binary.LittleEndian
	if len(data) < 4 || string(data[:4]) != magic {
		return nil, fmt.Errorf("bitstream: bad magic %q, want %q", data[:min(4, len(data))], magic)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("bitstream: container header: %w", io.ErrUnexpectedEOF)
	}
	if v := le.Uint32(data[4:]); v != containerVersion {
		return nil, fmt.Errorf("bitstream: unsupported container version %d", v)
	}
	count := le.Uint32(data[8:])
	b := data[12:]
	// The smallest section (empty name, empty payload) takes 10 bytes.
	if uint64(count) > uint64(len(b))/10 {
		return nil, fmt.Errorf("bitstream: container declares %d sections in %d bytes", count, len(b))
	}
	sections := make([]Section, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 || len(b) < 6+int(le.Uint16(b)) {
			return nil, fmt.Errorf("bitstream: section %d: %w", i, io.ErrUnexpectedEOF)
		}
		nameLen := int(le.Uint16(b))
		name := string(b[2 : 2+nameLen])
		size := uint64(le.Uint32(b[2+nameLen:]))
		b = b[6+nameLen:]
		if uint64(len(b)) < size+4 {
			return nil, fmt.Errorf("bitstream: section %q truncated", name)
		}
		payload := b[:size:size]
		if crc32.ChecksumIEEE(payload) != le.Uint32(b[size:]) {
			return nil, fmt.Errorf("bitstream: section %q checksum mismatch (file corrupt)", name)
		}
		sections = append(sections, Section{Name: name, Data: payload})
		b = b[size+4:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("bitstream: %d trailing bytes after last section", len(b))
	}
	return sections, nil
}

// FindSection returns the named section.
func FindSection(sections []Section, name string) ([]byte, error) {
	for _, s := range sections {
		if s.Name == name {
			return s.Data, nil
		}
	}
	return nil, fmt.Errorf("bitstream: section %q not found", name)
}
