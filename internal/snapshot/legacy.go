package snapshot

import (
	"encoding/gob"
	"fmt"
	"io"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
)

// Versions 1 and 2 were gob streams: a header, then each query as its own
// gob value (version 2 appended a per-worker trailer that nothing read).
// readLegacy decodes the header and queries of either so that files
// written by earlier builds still restore; this is the one importer of
// encoding/gob outside tests, and it only decodes.

// legacyHeader is the gob header of versions 1 and 2.
type legacyHeader struct {
	Magic   string
	Version int
	Bounds  geo.Rect
	Count   int
}

func readLegacy(r io.Reader) (Header, []*model.Query, error) {
	dec := gob.NewDecoder(r)
	var h legacyHeader
	if err := dec.Decode(&h); err != nil {
		return Header{}, nil, fmt.Errorf("%w: reading header: %v", ErrBadSnapshot, err)
	}
	if h.Magic != magic {
		return Header{}, nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, h.Magic)
	}
	if h.Version != 1 && h.Version != 2 {
		return Header{}, nil, fmt.Errorf("%w: gob snapshot claims version %d", ErrBadSnapshot, h.Version)
	}
	if h.Count < 0 {
		return Header{}, nil, fmt.Errorf("%w: negative count %d", ErrBadSnapshot, h.Count)
	}
	qs := make([]*model.Query, 0, min(h.Count, 1<<16))
	for i := 0; i < h.Count; i++ {
		var q model.Query
		if err := dec.Decode(&q); err != nil {
			return Header{}, nil, fmt.Errorf("%w: reading query %d/%d: %v", ErrBadSnapshot, i+1, h.Count, err)
		}
		if q.Expr.Empty() {
			return Header{}, nil, fmt.Errorf("%w: query %d has an empty expression", ErrBadSnapshot, q.ID)
		}
		qs = append(qs, &q)
	}
	return Header{Version: h.Version, Bounds: h.Bounds, Count: h.Count}, qs, nil
}
