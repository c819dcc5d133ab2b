// Package faultnet is a deterministic fault-injection layer for the
// wire protocol: it wraps a net.Conn and injects seeded drop, delay and
// duplicate faults at *frame* boundaries. The chaos cluster test and the core oracle tests drive
// it to prove the recovery machinery — every schedule is a pure
// function of the seed, so a failing run replays exactly.
//
// Faults operate on whole wire frames (4-byte big-endian length prefix
// + body), never on arbitrary byte ranges: a real TCP stream delivers
// bytes reliably and in order or breaks, so mid-frame corruption is not
// a fault model worth testing against — but frame loss is, and on a
// net.Conn a dropped frame *severs the connection* (drop-then-sever).
// That preserves TCP's no-silent-loss property: the peer observes a
// broken stream (wire.ErrWorkerDown territory) rather than a gap,
// which is exactly the failure the snapshot/op-log recovery path must
// absorb without losing a match.
package faultnet

import (
	"math/rand"
	"time"
)

// Config parameterises one fault schedule. All probabilities are per
// frame in [0,1]; the zero Config injects nothing.
type Config struct {
	// Seed makes the schedule deterministic: the same seed and the same
	// frame sequence produce the same faults. Each direction of a conn
	// derives its own rng from Seed, so the two directions' schedules
	// are independent but both replayable.
	Seed int64
	// Drop is the probability a frame is discarded; the drop also severs
	// the connection (see package doc).
	Drop float64
	// Delay is the probability a frame is held back before delivery,
	// for a uniform duration in (0, DelayMax].
	Delay float64
	// DelayMax bounds an injected delay (default 5ms when Delay > 0).
	DelayMax time.Duration
	// Dup is the probability a frame is delivered twice back-to-back.
	Dup float64
	// SkipFrames exempts the first n frames of each direction from
	// faults — room for the Hello/Welcome handshake, so a schedule
	// exercises a *running* connection rather than preventing one.
	SkipFrames int
}

func (c Config) withDefaults() Config {
	if c.DelayMax <= 0 {
		c.DelayMax = 5 * time.Millisecond
	}
	return c
}

// verdict is one frame's fate under a schedule.
type verdict struct {
	drop  bool
	delay time.Duration
	dup   bool
}

// scheduler draws one direction's fault schedule. Draw order per frame
// is fixed (drop, delay, delay amount, dup) so identical frame
// sequences replay identically regardless of which faults fire.
type scheduler struct {
	cfg Config
	rng *rand.Rand
	n   int // frames seen
}

func newScheduler(cfg Config, salt int64) *scheduler {
	cfg = cfg.withDefaults()
	return &scheduler{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ salt))}
}

// next draws the verdict for the next frame.
func (s *scheduler) next() verdict {
	s.n++
	var v verdict
	// Burn the draws even for exempt frames so SkipFrames shifts the
	// schedule deterministically instead of re-deriving it.
	drop := s.rng.Float64() < s.cfg.Drop
	delay := s.rng.Float64() < s.cfg.Delay
	d := time.Duration(s.rng.Int63n(int64(s.cfg.DelayMax))) + 1
	dup := s.rng.Float64() < s.cfg.Dup
	if s.n <= s.cfg.SkipFrames {
		return v
	}
	v.drop = drop
	if delay {
		v.delay = d
	}
	v.dup = dup
	return v
}

// Direction salts for the per-direction rngs.
const (
	saltSend int64 = 0x1234_5678_9abc_def0
	saltRecv int64 = 0x0f0f_f0f0_aa55_55aa
)
