// Package snapshot implements the versioned binary on-disk format for
// build-once substrates: what core.BuildSubstrate produces — KB
// dictionaries, columnar CSR spans, relation ranks, top-neighbor rows, the
// name table and the purge of the token index — plus (always, in files this
// package writes) the pair's prewarmed graph, serialized as
// 8-byte-aligned little-endian sections behind a magic+version+section-table
// header. A file holds the pair and its normalized build configuration,
// and nothing of how the build ran — no clocks, no worker count: builds of
// one pair under one configuration write the same bytes on any number of
// processors and workers. Meta keys of earlier writers (timings,
// build_wall_ns, the config's Workers) are ignored by decoding.
//
// The layout is chosen so a loader can reinterpret the numeric columns IN
// PLACE from a memory-mapped region (unsafe.Slice over syscall.Mmap): every
// section starts 8-byte aligned relative to the file start, mappings are
// page-aligned, and element encodings equal the in-memory little-endian
// layout of []uint32 / []int32 / []int64 / []float64 / []graph.Edge. An edge
// section (β₁, β₂, γ₂, Adj₁) is an array of 12-byte records {to int32,
// weight float64 bits at +4}, without padding. A portable copying decoder
// (ReadSubstrate) is the fallback and the cross-endian path.
//
// The token index is not stored. It is the inverted index of the KBs' token
// columns (sections 103/104 and 203/204), so an opened substrate derives it
// on first use with the code a build runs, and checks the result against the
// meta section's purged_blocks and purge_threshold
// (core.Substrate.TokenIndex).
//
// Version 5 stores one name table (sections 410–416): every normalized name
// that at least one E2 entity carries, sorted by name, with the E1 and the
// E2 entities carrying it (core.NameTable). The name blocks are its rows
// with both sides non-empty, and the query path's α probe reads it too.
// Version 4 stored two tables in its place: the name blocks alone in
// sections 410–416, and the query path's name-usage index in 520–526 —
// every name of either KB, with the number of carriers on each side and
// each side's last carrier.
// Version 4 differed from version 3 in the meta section only. It added the
// graph's E1-side γ edge count (gamma1_edges), which the file holds no rows
// to count from, so an opened pair reports its edge count without building
// every γ₁ row; the loader refuses a meta section without the count, and a
// count that n1 rows of at most min(K, n2) edges cannot hold (ErrCorrupt).
// Its config dropped Workers. Version 3 differed from version 2 in that: version 2 also stored
// the token index — its member CSRs and weights (sections 422–426) and, for
// a pair without one token dictionary, a joint dictionary and translation
// tables (320–322, 420 and 421, behind header flag bit 2, which is now
// unused).
// Version 2 differed from version 1 in the edge records only: version 1
// padded each to 16 bytes, with the weight at +8. There is one layout: a
// file of an earlier version is refused with ErrVersion, and is rebuilt from
// its N-Triples.
//
// File layout (all integers little-endian):
//
//	offset 0   magic    "MINOSNP1" (8 bytes)
//	offset 8   uint32   version (currently 5)
//	offset 12  uint32   flags
//	offset 16  uint32   section count
//	offset 20  uint32   reserved (0)
//	offset 24  section table: count × {id uint32, reserved uint32, off int64, len int64}
//	...        sections, each starting at an 8-byte-aligned offset
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic and version of the format.
var magic = [8]byte{'M', 'I', 'N', 'O', 'S', 'N', 'P', '1'}

const formatVersion = 5

// Header flags.
const (
	// flagSharedDict: KB2 shares KB1's token dictionary (no dict2 sections).
	flagSharedDict = 1 << 0
	// flagSharedSchema: KB2 shares KB1's schema (no schema2 sections).
	flagSharedSchema = 1 << 1
	// flagQueryState: the prewarmed graph's sections are present.
	flagQueryState = 1 << 3
)

// Typed errors for corrupt inputs. All decode failures wrap one of these, so
// callers can errors.Is-dispatch without string matching.
var (
	ErrBadMagic   = errors.New("snapshot: bad magic")
	ErrVersion    = errors.New("snapshot: unsupported version")
	ErrTruncated  = errors.New("snapshot: truncated file")
	ErrMisaligned = errors.New("snapshot: misaligned section")
	ErrCorrupt    = errors.New("snapshot: corrupt file")
)

const (
	headerSize = 24
	tableEntry = 24
)

// Section IDs. Per-KB sections are kb1Base/kb2Base + kbXxx; frozen string
// tables occupy an ID trio base + {0: blob, 1: offsets, 2: sorted}.
const (
	secMeta uint32 = 1

	kb1Base uint32 = 100
	kb2Base uint32 = 200

	kbURIBlob      uint32 = 0
	kbURIOff       uint32 = 1
	kbURISorted    uint32 = 2
	kbTokenOff     uint32 = 3
	kbTokens       uint32 = 4
	kbRelOff       uint32 = 5
	kbRelPred      uint32 = 6
	kbRelObj       uint32 = 7
	kbAttrOff      uint32 = 8
	kbAttrName     uint32 = 9
	kbAttrVal      uint32 = 10
	kbStmtAttrName uint32 = 11
	kbStmtValBlob  uint32 = 12
	kbStmtValOff   uint32 = 13
	kbStmtRelPred  uint32 = 14
	kbStmtRelObj   uint32 = 15

	dict1Base        uint32 = 300
	dict2Base        uint32 = 310
	schema1PredsBase uint32 = 330
	schema1AttrsBase uint32 = 340
	schema1ValsBase  uint32 = 350
	schema2PredsBase uint32 = 360
	schema2AttrsBase uint32 = 370
	schema2ValsBase  uint32 = 380

	frozenBlob   uint32 = 0
	frozenOff    uint32 = 1
	frozenSorted uint32 = 2

	secRanks1      uint32 = 400
	secRanks2      uint32 = 401
	secTop1Off     uint32 = 402
	secTop1Flat    uint32 = 403
	secTop2Off     uint32 = 404
	secTop2Flat    uint32 = 405
	secNameKeys    uint32 = 410 // the name table: frozen trio base (sorted absent)
	secNameE1Off   uint32 = 413
	secNameE1Flat  uint32 = 414
	secNameE2Off   uint32 = 415
	secNameE2Flat  uint32 = 416
	secAlpha1Off   uint32 = 500
	secAlpha1Flat  uint32 = 501
	secAlpha2Off   uint32 = 502
	secAlpha2Flat  uint32 = 503
	secBeta1Off    uint32 = 504
	secBeta1Edges  uint32 = 505
	secBeta2Off    uint32 = 506
	secBeta2Edges  uint32 = 507
	secGamma2Off   uint32 = 508
	secGamma2Edges uint32 = 509
	secAdj1Off     uint32 = 510
	secAdj1Edges   uint32 = 511
	secIn2Off      uint32 = 512
	secIn2Flat     uint32 = 513
)

// header is the parsed fixed-size prefix plus section table.
type header struct {
	flags    uint32
	sections map[uint32][]byte
}

// parseHeader validates the prefix and section table of a snapshot image and
// returns per-section byte views into data.
func parseHeader(data []byte) (*header, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != formatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d; rebuild the file from its N-Triples)", ErrVersion, version, formatVersion)
	}
	h := &header{flags: binary.LittleEndian.Uint32(data[12:])}
	count := binary.LittleEndian.Uint32(data[16:])
	tableEnd := headerSize + int64(count)*tableEntry
	if tableEnd > int64(len(data)) {
		return nil, fmt.Errorf("%w: section table of %d entries exceeds %d bytes", ErrTruncated, count, len(data))
	}
	h.sections = make(map[uint32][]byte, count)
	for i := int64(0); i < int64(count); i++ {
		entry := data[headerSize+i*tableEntry:]
		id := binary.LittleEndian.Uint32(entry)
		off := int64(binary.LittleEndian.Uint64(entry[8:]))
		n := int64(binary.LittleEndian.Uint64(entry[16:]))
		if off < tableEnd || n < 0 || off > int64(len(data)) || n > int64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) in %d bytes", ErrTruncated, id, off, off, n, len(data))
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("%w: section %d starts at offset %d", ErrMisaligned, id, off)
		}
		if _, dup := h.sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		h.sections[id] = data[off : off+n : off+n]
	}
	return h, nil
}

// section returns a mandatory section's bytes.
func (h *header) section(id uint32) ([]byte, error) {
	b, ok := h.sections[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	return b, nil
}

// optional returns a section's bytes and whether it is present.
func (h *header) optional(id uint32) ([]byte, bool) {
	b, ok := h.sections[id]
	return b, ok
}
