package wire

import (
	"sync/atomic"
	"time"

	"ps2stream/internal/metrics"
)

// Per-frame-kind transport counters. They are process-global: a PS2Stream
// process plays one role in the topology, and the counters are monotone,
// so aggregating every connection in the process is exactly the view an
// operator wants from that process's /metrics endpoint. Every frame
// passes through Conn's write paths and Conn.Recv, so incrementing there
// covers data, control, and migration traffic alike.

// maxFrameType bounds the counter arrays; frame types are small bytes
// (the Type constants) and anything larger lands in the "other" slot.
const maxFrameType = 32

type frameCounters struct {
	frames [maxFrameType]atomic.Int64
	bytes  [maxFrameType]atomic.Int64
	nanos  [maxFrameType]atomic.Int64 // cumulative encode+write / read+decode time
}

var (
	txCounters frameCounters
	rxCounters frameCounters
)

func (fc *frameCounters) record(typ byte, payloadLen int, dur time.Duration) {
	i := int(typ)
	if i >= maxFrameType {
		i = 0
	}
	fc.frames[i].Add(1)
	// 4-byte length prefix + 1 type byte + payload: what actually hit
	// the socket for this frame.
	fc.bytes[i].Add(int64(5 + payloadLen))
	fc.nanos[i].Add(int64(dur))
}

// RegisterMetrics wires the process-global transport counters into reg
// as func-backed series, one per frame kind and direction:
//
//	ps2_wire_frames_total{dir,kind}  ps2_wire_bytes_total{dir,kind}
//	ps2_wire_io_seconds{dir,kind}
//
// io_seconds is cumulative time inside Send (encode + write + flush)
// and Recv (including the blocking wait for the frame to arrive, so the
// rx side reads as read-loop occupancy). Registration is eager for
// every row of the frame table so scrapes see stable series sets from
// the first poll.
func RegisterMetrics(reg *metrics.Registry) {
	for t, k := range frameKinds {
		name := k.name
		if name == "" {
			continue
		}
		for _, d := range []struct {
			dir string
			fc  *frameCounters
		}{{"tx", &txCounters}, {"rx", &rxCounters}} {
			i := t
			fc := d.fc
			kind := metrics.L("kind", name)
			dir := metrics.L("dir", d.dir)
			reg.CounterFunc("ps2_wire_frames_total", "wire frames by kind and direction",
				func() int64 { return fc.frames[i].Load() }, dir, kind)
			reg.CounterFunc("ps2_wire_bytes_total", "wire bytes by kind and direction (incl. 5-byte frame header)",
				func() int64 { return fc.bytes[i].Load() }, dir, kind)
			reg.GaugeFunc("ps2_wire_io_seconds", "cumulative encode+send / recv time by kind and direction",
				func() float64 { return time.Duration(fc.nanos[i].Load()).Seconds() }, dir, kind)
		}
	}
}
