// Typed section codecs: little-endian encoders for the numeric column types
// the format stores, and the matching views — zero-copy reinterpretation of
// the section bytes (the mmap fast path) or an explicit element-by-element
// decode (the portable / cross-endian path). Zero-copy is only taken when
// the host is little-endian and the section base is 8-byte aligned, which
// parseHeader guarantees relative to the image start; edge records need only
// 4.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// An edge section is an array of edgeSize-byte records: the target as an
// int32 at +0 and the weight's float64 bits at +edgeWeightAt.
const (
	edgeSize     = 12
	edgeWeightAt = 4
)

// Compile-time layout assertions behind the zero-copy reinterpretation of
// []graph.Edge: 12-byte, 4-aligned records with the target first (the
// weight's halves follow it; TestEdgeBytesAreTheRecords pins their order).
// If the Edge struct ever changes shape, these fail to compile instead of
// corrupting loads.
var (
	_ [edgeSize]struct{} = [unsafe.Sizeof(graph.Edge{})]struct{}{}
	_ [4]struct{}        = [unsafe.Alignof(graph.Edge{})]struct{}{}
	_ [0]struct{}        = [unsafe.Offsetof(graph.Edge{}.To)]struct{}{}
	_ [4]struct{}        = [unsafe.Sizeof(kb.EntityID(0))]struct{}{}
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian (the zero-copy precondition).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// littleEndian is the zero-copy precondition, decided once.
var littleEndian = hostLittleEndian()

// rawBytes reinterprets a numeric column as its in-memory bytes.
func rawBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0])))
}

// The *Bytes functions give a column's section bytes: on a little-endian
// host the array itself (the element encodings ARE the in-memory layout —
// see the assertions above), elsewhere the explicit little-endian encoding.

func u32Bytes[T ~uint32](v []T) []byte {
	if littleEndian {
		return rawBytes(v)
	}
	return encU32s(v)
}

func i32Bytes[T ~int32](v []T) []byte {
	if littleEndian {
		return rawBytes(v)
	}
	return encI32s(v)
}

func i64Bytes(v []int64) []byte {
	if littleEndian {
		return rawBytes(v)
	}
	return encI64s(v)
}

func f64Bytes(v []float64) []byte {
	if littleEndian {
		return rawBytes(v)
	}
	return encF64s(v)
}

func edgeBytes(v []graph.Edge) []byte {
	if littleEndian {
		return rawBytes(v)
	}
	return encEdges(v)
}

func encU32s[T ~uint32](v []T) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
	return b
}

func encI32s[T ~int32](v []T) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
	return b
}

func encI64s(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(x))
	}
	return b
}

func encF64s(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

// encEdges writes edge records {to int32, weight float64 bits} — the
// in-memory little-endian layout of graph.Edge.
func encEdges(v []graph.Edge) []byte {
	b := make([]byte, edgeSize*len(v))
	for i, e := range v {
		binary.LittleEndian.PutUint32(b[i*edgeSize:], uint32(int32(e.To)))
		binary.LittleEndian.PutUint64(b[i*edgeSize+edgeWeightAt:], math.Float64bits(e.Weight()))
	}
	return b
}

// The view* functions turn one section's bytes into a typed slice. In
// zero-copy mode the returned slice aliases the section (and therefore the
// mapping); in copy mode elements are decoded into fresh memory.

func viewU32s[T ~uint32](b []byte, copyMode bool, what string) ([]T, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 4)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func viewI32s[T ~int32](b []byte, copyMode bool, what string) ([]T, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 4)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return out, nil
}

func viewI64s(b []byte, copyMode bool, what string) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 8)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viewF64s(b []byte, copyMode bool, what string) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 8)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viewEdges(b []byte, copyMode bool, what string) ([]graph.Edge, error) {
	if len(b)%edgeSize != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of %d)", ErrCorrupt, what, len(b), edgeSize)
	}
	n := len(b) / edgeSize
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.NewEdge(kb.EntityID(int32(binary.LittleEndian.Uint32(b[i*edgeSize:]))),
			math.Float64frombits(binary.LittleEndian.Uint64(b[i*edgeSize+edgeWeightAt:])))
	}
	return out, nil
}

// idRowsSection reads an (offset, flat) section pair of entity IDs as one
// row set of views. Its shape is the reader's to check (Rows.CheckShape).
func idRowsSection(h *header, copyMode bool, offID, flatID uint32, what string) (graph.Rows[kb.EntityID], error) {
	var r graph.Rows[kb.EntityID]
	ob, err := h.section(offID)
	if err != nil {
		return r, err
	}
	fb, err := h.section(flatID)
	if err != nil {
		return r, err
	}
	if r.Off, err = viewI64s(ob, copyMode, what+" offsets"); err != nil {
		return r, err
	}
	r.Flat, err = viewI32s[kb.EntityID](fb, copyMode, what)
	return r, err
}

// frozenSection reads a frozen-string trio (blob, offsets, optional sorted
// permutation) into a kb.FrozenStrings. The blob always aliases the image.
func frozenSection(h *header, copyMode bool, base uint32, what string) (*kb.FrozenStrings, error) {
	blob, err := h.section(base + frozenBlob)
	if err != nil {
		return nil, err
	}
	ob, err := h.section(base + frozenOff)
	if err != nil {
		return nil, err
	}
	off, err := viewI64s(ob, copyMode, what+" offsets")
	if err != nil {
		return nil, err
	}
	var sorted []uint32
	if sb, ok := h.optional(base + frozenSorted); ok {
		if sorted, err = viewU32s[uint32](sb, copyMode, what+" sorted"); err != nil {
			return nil, err
		}
	}
	fs, err := kb.NewFrozenStrings(blob, off, sorted)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	return fs, nil
}
