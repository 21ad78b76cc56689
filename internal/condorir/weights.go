package condorir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"condor/internal/tensor"
)

// EntryKind distinguishes weight from bias entries in the weight set.
type EntryKind uint8

const (
	EntryWeights EntryKind = 0
	EntryBias    EntryKind = 1
)

func (k EntryKind) String() string {
	if k == EntryBias {
		return "bias"
	}
	return "weights"
}

// WeightEntry is one named array in the weight set.
type WeightEntry struct {
	Layer string
	Kind  EntryKind
	Dims  []int
	Data  []float32
}

// Tensor materialises the entry with the expected dims, validating that the
// stored element count matches.
func (e *WeightEntry) Tensor(dims ...int) (*tensor.Tensor, error) {
	if len(e.Dims) > 0 && tensor.Volume(e.Dims) != tensor.Volume(dims) {
		return nil, fmt.Errorf("condorir: %s/%s stored shape %v incompatible with requested %v",
			e.Layer, e.Kind, e.Dims, dims)
	}
	return tensorFromEntry(e.Data, dims...)
}

// WeightSet holds the external weights and biases of a network, keyed by
// layer name. The paper keeps these outside the bitstream so that a network
// update does not require re-synthesis; the datamover streams them in at
// runtime.
type WeightSet struct {
	entries map[string]*WeightEntry
}

// NewWeightSet returns an empty weight set.
func NewWeightSet() *WeightSet { return &WeightSet{entries: make(map[string]*WeightEntry)} }

func key(layer string, kind EntryKind) string { return layer + "\x00" + kind.String() }

// Put stores a tensor under (layer, kind), copying its data.
func (ws *WeightSet) Put(layer string, kind EntryKind, t *tensor.Tensor) {
	data := make([]float32, t.Len())
	copy(data, t.Data())
	ws.entries[key(layer, kind)] = &WeightEntry{
		Layer: layer, Kind: kind,
		Dims: append([]int(nil), t.Shape()...),
		Data: data,
	}
}

// PutRaw stores a raw float slice with explicit dims (no copy).
func (ws *WeightSet) PutRaw(layer string, kind EntryKind, dims []int, data []float32) {
	ws.entries[key(layer, kind)] = &WeightEntry{Layer: layer, Kind: kind, Dims: dims, Data: data}
}

// Get returns the entry for (layer, kind).
func (ws *WeightSet) Get(layer string, kind EntryKind) (*WeightEntry, bool) {
	e, ok := ws.entries[key(layer, kind)]
	return e, ok
}

// Len returns the number of entries.
func (ws *WeightSet) Len() int { return len(ws.entries) }

// Entries returns all entries sorted by (layer, kind) for deterministic
// serialisation.
func (ws *WeightSet) Entries() []*WeightEntry {
	out := make([]*WeightEntry, 0, len(ws.entries))
	for _, e := range ws.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// TotalBytes returns the serialised payload size of all weight data.
func (ws *WeightSet) TotalBytes() int64 {
	var n int64
	for _, e := range ws.entries {
		n += int64(4 * len(e.Data))
	}
	return n
}

// The Condor weights file format ("CNDW"): a little-endian container of
// named float32 arrays with per-entry CRC32 integrity checks.
//
//	magic   [4]byte  "CNDW"
//	version uint32   (1)
//	count   uint32
//	entries:
//	  nameLen uint16, name []byte
//	  kind    uint8
//	  rank    uint8, dims []uint32
//	  n       uint32, data [n]float32
//	  crc     uint32  (CRC32-IEEE of the data bytes)

var weightsMagic = [4]byte{'C', 'N', 'D', 'W'}

const weightsVersion = 1

// Parts encodes the weight set as the pieces of its weights file, in order:
// joined, they are the file Bytes returns. The headers and checksums are
// slices of one small buffer sized up front, and each entry's values are the
// byte view of its data (tensor.LEBytes), so the payload is neither copied
// nor allocated. The parts alias the weight set's storage: they must not be
// written, and they are only valid while the weights stay unchanged.
func (ws *WeightSet) Parts() ([][]byte, error) {
	entries := ws.Entries()
	size := 12
	for _, e := range entries {
		if len(e.Layer) > math.MaxUint16 {
			return nil, fmt.Errorf("condorir: layer name %q too long", e.Layer)
		}
		if len(e.Dims) > math.MaxUint8 {
			return nil, fmt.Errorf("condorir: entry %s/%s rank %d too large", e.Layer, e.Kind, len(e.Dims))
		}
		size += 2 + len(e.Layer) + 2 + 4*len(e.Dims) + 4 + 4
	}
	le := binary.LittleEndian
	b := make([]byte, 0, size)
	b = append(b, weightsMagic[:]...)
	b = le.AppendUint32(b, weightsVersion)
	b = le.AppendUint32(b, uint32(len(entries)))
	// Each header part runs from the previous entry's checksum (or the file
	// header) to the end of this entry's header.
	parts := make([][]byte, 0, 2*len(entries)+1)
	start := 0
	for _, e := range entries {
		b = le.AppendUint16(b, uint16(len(e.Layer)))
		b = append(b, e.Layer...)
		b = append(b, byte(e.Kind), byte(len(e.Dims)))
		for _, d := range e.Dims {
			b = le.AppendUint32(b, uint32(d))
		}
		b = le.AppendUint32(b, uint32(len(e.Data)))
		data := tensor.LEBytes(e.Data)
		parts = append(parts, b[start:len(b):len(b)], data)
		start = len(b)
		b = le.AppendUint32(b, crc32.ChecksumIEEE(data))
	}
	return append(parts, b[start:]), nil
}

// Bytes serialises the weight set: its Parts joined into one buffer.
func (ws *WeightSet) Bytes() ([]byte, error) {
	parts, err := ws.Parts()
	if err != nil {
		return nil, err
	}
	return bytes.Join(parts, nil), nil
}

// Write serialises the weight set to w, part by part.
func (ws *WeightSet) Write(w io.Writer) error {
	parts, err := ws.Parts()
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadWeights parses a Condor weights file read to its end from r.
func ReadWeights(r io.Reader) (*WeightSet, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("condorir: weights file: %w", err)
	}
	return ParseWeights(b)
}

// ParseWeights decodes a Condor weights file straight from b, verifying
// per-entry checksums. Every count and length is checked against the bytes
// left before it sizes anything, so a hostile header cannot allocate more
// than a small multiple of the input.
func ParseWeights(b []byte) (*WeightSet, error) {
	le := binary.LittleEndian
	if len(b) < 12 {
		return nil, fmt.Errorf("condorir: weights file: %w", io.ErrUnexpectedEOF)
	}
	if magic := [4]byte(b); magic != weightsMagic {
		return nil, fmt.Errorf("condorir: bad weights magic %q", magic[:])
	}
	if v := le.Uint32(b[4:]); v != weightsVersion {
		return nil, fmt.Errorf("condorir: unsupported weights version %d", v)
	}
	count := le.Uint32(b[8:])
	b = b[12:]
	// The smallest entry (empty name, rank 0, no values) takes 12 bytes.
	if uint64(count) > uint64(len(b))/12 {
		return nil, fmt.Errorf("condorir: weights file declares %d entries in %d bytes", count, len(b))
	}
	ws := &WeightSet{entries: make(map[string]*WeightEntry, count)}
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("condorir: weights entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		nameLen := int(le.Uint16(b))
		if len(b) < 4+nameLen {
			return nil, fmt.Errorf("condorir: weights entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		name := string(b[2 : 2+nameLen])
		kind, rank := b[2+nameLen], int(b[3+nameLen])
		if kind > 1 {
			return nil, fmt.Errorf("condorir: weights entry %q: bad kind %d", name, kind)
		}
		b = b[4+nameLen:]
		if len(b) < 4*rank+4 {
			return nil, fmt.Errorf("condorir: weights entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		dims := make([]int, rank)
		for d := range dims {
			dims[d] = int(le.Uint32(b[4*d:]))
		}
		n := uint64(le.Uint32(b[4*rank:]))
		b = b[4*rank+4:]
		if rank > 0 && !volumeIs(dims, n) {
			return nil, fmt.Errorf("condorir: weights entry %q: dims %v inconsistent with %d values", name, dims, n)
		}
		if uint64(len(b)) < 4*n+4 {
			return nil, fmt.Errorf("condorir: weights entry %q: %w", name, io.ErrUnexpectedEOF)
		}
		raw := b[:4*n]
		if crc32.ChecksumIEEE(raw) != le.Uint32(b[4*n:]) {
			return nil, fmt.Errorf("condorir: weights entry %q: checksum mismatch (file corrupt)", name)
		}
		data := make([]float32, n)
		copy(tensor.LEBytes(data), raw)
		b = b[4*n+4:]
		ws.PutRaw(name, EntryKind(kind), dims, data)
	}
	return ws, nil
}

// volumeIs reports whether dims multiply out to exactly n, stopping before
// the product can overflow: dims [65536 65536] do not describe 0 values.
func volumeIs(dims []int, n uint64) bool {
	v := uint64(1)
	for _, d := range dims {
		if d != 0 && v > n/uint64(d) {
			return false
		}
		v *= uint64(d)
	}
	return v == n
}
