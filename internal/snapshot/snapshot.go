// Package snapshot serialises the live STS-query population of a running
// PS2Stream system so a restarted (or replacement) deployment can be
// re-primed without replaying the subscription stream. The paper's system
// keeps all state in worker memory; checkpointing is the operational
// feature a production deployment layers on top.
//
// A version-4 file is a fixed header — magic, version, bounds, count —
// followed by wire frames (docs/WIRE.md, "Snapshot file"): the pages
// wire.Pages cuts the population into, one whole-query payload (cell
// wire.WholeQueries) of the next queries in ascending id order each, the
// same pages a worker node answers a population round with. So the file
// is parsed by the same bounds-checked decoder as the wire and identical
// populations produce identical bytes. A version-3 frame carried one more empty list, the
// window ring, so it is the version-4 frame plus one trailing zero byte;
// Read drops it. Read also accepts the version-1 and version-2 gob files
// of earlier builds (legacy.go); nothing writes them any more.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

// magic opens every snapshot file.
const magic = "PS2SNAP"

// Version is the format Write emits.
const Version = 4

// Header precedes the query payload.
type Header struct {
	Version int
	// Bounds is the monitored region of the checkpointing system;
	// restorers verify compatibility.
	Bounds geo.Rect
	// Count is the number of queries that follow.
	Count int
}

// ErrBadSnapshot is wrapped by Read errors caused by malformed input.
var ErrBadSnapshot = errors.New("snapshot: malformed snapshot")

// ErrFutureVersion is wrapped by Read errors caused by a snapshot written
// by a newer format version than this build knows. It is distinct from
// ErrBadSnapshot: the file is not corrupt, the reader is just too old,
// and the caller may want to say so.
var ErrFutureVersion = errors.New("snapshot: snapshot version newer than this build")

// Write serialises the queries to w. The input slice is not modified;
// duplicates (same id) are dropped, keeping the first occurrence.
func Write(w io.Writer, bounds geo.Rect, qs []*model.Query) error {
	seen := make(map[uint64]struct{}, len(qs))
	dedup := make([]*model.Query, 0, len(qs))
	for _, q := range qs {
		if q == nil {
			continue
		}
		if _, dup := seen[q.ID]; !dup {
			seen[q.ID] = struct{}{}
			dedup = append(dedup, q)
		}
	}
	sort.Slice(dedup, func(i, j int) bool { return dedup[i].ID < dedup[j].ID })

	bw := bufio.NewWriter(w)
	buf := binary.AppendUvarint([]byte(magic), Version)
	for _, f := range [...]float64{bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.AppendUvarint(buf, uint64(len(dedup)))
	if _, err := bw.Write(buf); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	for _, page := range wire.Pages([]wire.CellPayload{{Cell: wire.WholeQueries, Queries: dedup}}, wire.PageBudget) {
		buf = wire.AppendInstallCells(buf[:0], page)
		if err := wire.WriteFrame(bw, wire.TypeInstallCells, buf); err != nil {
			return fmt.Errorf("snapshot: writing queries from %d: %w", page.Cells[0].Queries[0].ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: writing: %w", err)
	}
	return nil
}

// Read parses a snapshot and returns its header and queries. Snapshots
// from a newer format version fail with ErrFutureVersion; anything
// malformed, truncated or followed by trailing bytes fails with
// ErrBadSnapshot.
func Read(r io.Reader) (Header, []*model.Query, error) {
	br := bufio.NewReader(r)
	if p, _ := br.Peek(len(magic)); string(p) != magic {
		return readLegacy(br)
	}
	_, _ = br.Discard(len(magic)) // Peek has buffered them
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, nil, fmt.Errorf("%w: reading version: %v", ErrBadSnapshot, err)
	}
	switch {
	case version > Version:
		return Header{}, nil, fmt.Errorf("%w: version %d (this build reads up to %d)", ErrFutureVersion, version, Version)
	case version < 3:
		return Header{}, nil, fmt.Errorf("%w: version %d is a gob format, but the file has a binary header", ErrBadSnapshot, version)
	}
	var fs [32]byte
	if _, err := io.ReadFull(br, fs[:]); err != nil {
		return Header{}, nil, fmt.Errorf("%w: reading bounds: %v", ErrBadSnapshot, err)
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(fs[8*i:])) }
	h := Header{Version: int(version), Bounds: geo.Rect{Min: geo.Point{X: f(0), Y: f(1)}, Max: geo.Point{X: f(2), Y: f(3)}}}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, nil, fmt.Errorf("%w: reading count: %v", ErrBadSnapshot, err)
	}
	if count > math.MaxInt32 {
		return Header{}, nil, fmt.Errorf("%w: count %d", ErrBadSnapshot, count)
	}
	h.Count = int(count)

	qs := make([]*model.Query, 0, min(h.Count, 1<<16))
	for len(qs) < h.Count {
		typ, payload, err := wire.ReadFrame(br)
		if err == nil && typ != wire.TypeInstallCells {
			err = fmt.Errorf("frame type %d", typ)
		}
		if err == nil && version == 3 {
			payload, err = dropV3Ring(payload)
		}
		var ic wire.InstallCells
		if err == nil {
			ic, err = wire.DecodeBinInstallCells(payload)
		}
		if err == nil && (ic.Seq != 0 || len(ic.Deletes) != 0 || len(ic.Cells) != 1) {
			err = errors.New("not one whole-query payload")
		}
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: frame after %d/%d queries: %v", ErrBadSnapshot, len(qs), h.Count, err)
		}
		p := ic.Cells[0]
		if p.Cell != wire.WholeQueries || len(p.Subs) != 0 ||
			len(p.Queries) == 0 || len(p.Queries) > h.Count-len(qs) {
			return Header{}, nil, fmt.Errorf("%w: frame after %d/%d queries is not a whole-query payload of at most the remaining queries",
				ErrBadSnapshot, len(qs), h.Count)
		}
		for _, q := range p.Queries {
			if n := len(qs); n > 0 && q.ID <= qs[n-1].ID {
				return Header{}, nil, fmt.Errorf("%w: query %d follows query %d", ErrBadSnapshot, q.ID, qs[n-1].ID)
			}
			if q.Expr.Empty() {
				return Header{}, nil, fmt.Errorf("%w: query %d has an empty expression", ErrBadSnapshot, q.ID)
			}
			qs = append(qs, q)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return Header{}, nil, fmt.Errorf("%w: trailing bytes after %d queries", ErrBadSnapshot, h.Count)
	}
	return h, qs, nil
}

// dropV3Ring turns a version-3 frame into its version-4 form. Its one
// whole-query payload ends in three zero counts — ring, subs, deletes —
// where version 4 has two, so the frame is the version-4 frame plus one
// trailing zero byte.
func dropV3Ring(p []byte) ([]byte, error) {
	if n := len(p); n < 3 || p[n-1] != 0 || p[n-2] != 0 || p[n-3] != 0 {
		return nil, errors.New("version-3 frame does not end in an empty ring, subs and deletes")
	}
	return p[:len(p)-1], nil
}
