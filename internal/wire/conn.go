package wire

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Default connection tunables.
const (
	// DefaultWriteTimeout bounds one buffered-write flush; a peer that
	// stops reading for this long fails the connection rather than
	// wedging the pipeline silently.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultHandshakeTimeout bounds the Hello/Welcome round.
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultControlTimeout bounds a control round trip (drain, stats).
	DefaultControlTimeout = 60 * time.Second
	// writeBufSize is the bufio size of the send side; one frame header
	// plus payload coalesce into a single syscall per batch.
	writeBufSize = 64 << 10
	readBufSize  = 64 << 10
)

// Conn is one wire connection: a net.Conn with per-connection write
// buffering (one flush per frame, so wire writes reuse the engine's
// transfer-batch boundaries), a write mutex so control frames can
// interleave with data frames from another goroutine, and deadlines.
//
// Reads are the property of a single goroutine (the owner's read loop);
// writes may come from any goroutine.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	// WriteTimeout bounds each Send (0 = none). Set before first use.
	WriteTimeout time.Duration
	// ReadTimeout bounds each Recv (0 = none, the default: stream gaps
	// of any length are legitimate between publishes).
	ReadTimeout time.Duration

	// Deadline re-arm coarsening: SetWriteDeadline/SetReadDeadline cost
	// a syscall-ish path per call, which the hot loop used to pay per
	// frame. Instead the deadline is re-armed only once a quarter of the
	// timeout has elapsed since the last arm, so a frame-per-microsecond
	// stream arms ~4 times per timeout window while a genuinely stalled
	// peer still fails within [3/4·timeout, timeout] of its last
	// successful frame. wArm is guarded by wmu; rArm belongs to the
	// single read-loop goroutine.
	wArm time.Time
	rArm time.Time
}

// NewConn wraps nc with wire framing and the default write timeout.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:           nc,
		br:           bufio.NewReaderSize(nc, readBufSize),
		bw:           bufio.NewWriterSize(nc, writeBufSize),
		WriteTimeout: DefaultWriteTimeout,
	}
}

// Send encodes f into a pooled buffer and writes it as one frame,
// flushing the write buffer — one frame and one flush per transfer
// batch. The frame's transport counters cover encode time as well as
// the write.
func (c *Conn) Send(f Frame) error {
	start := time.Now()
	buf := GetBuf()
	buf.B = f.appendTo(buf.B)
	err := c.sendPayload(f.frameType(), buf.B, start)
	PutBuf(buf)
	return err
}

// SendPayload writes one frame with an already-encoded payload (callers
// that need the serialised size, e.g. migration transfer accounting,
// encode once and send the same bytes).
func (c *Conn) SendPayload(typ byte, payload []byte) error {
	return c.sendPayload(typ, payload, time.Now())
}

func (c *Conn) sendPayload(typ byte, payload []byte, start time.Time) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWriteDeadline(); err != nil {
		return err
	}
	if err := WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	txCounters.record(typ, len(payload), time.Since(start))
	return nil
}

// armWriteDeadline re-arms the write deadline if a quarter of the
// timeout has elapsed since the last arm (caller holds wmu).
func (c *Conn) armWriteDeadline() error {
	if c.WriteTimeout <= 0 {
		return nil
	}
	if now := time.Now(); now.Sub(c.wArm) > c.WriteTimeout/4 {
		if err := c.nc.SetWriteDeadline(now.Add(c.WriteTimeout)); err != nil {
			return err
		}
		c.wArm = now
	}
	return nil
}

// Recv reads the next frame. Only the connection's read-loop goroutine
// may call it.
func (c *Conn) Recv() (typ byte, payload []byte, err error) {
	if c.ReadTimeout > 0 {
		if now := time.Now(); now.Sub(c.rArm) > c.ReadTimeout/4 {
			if err := c.nc.SetReadDeadline(now.Add(c.ReadTimeout)); err != nil {
				return 0, nil, err
			}
			c.rArm = now
		}
	}
	start := time.Now()
	typ, payload, err = ReadFrame(c.br)
	if err == nil {
		rxCounters.record(typ, len(payload), time.Since(start))
	}
	return typ, payload, err
}

// RecvTimeout reads the next frame under a one-off deadline (handshake
// and control rounds).
func (c *Conn) RecvTimeout(d time.Duration) (typ byte, payload []byte, err error) {
	if err := c.nc.SetReadDeadline(time.Now().Add(d)); err != nil {
		return 0, nil, err
	}
	// Clear the one-off deadline and the coarsening mark, so the next
	// Recv re-arms unconditionally.
	defer func() {
		c.nc.SetReadDeadline(time.Time{})
		c.rArm = time.Time{}
	}()
	start := time.Now()
	typ, payload, err = ReadFrame(c.br)
	if err == nil {
		rxCounters.record(typ, len(payload), time.Since(start))
	}
	return typ, payload, err
}

// Close closes the underlying connection. Safe to call multiple times
// and from any goroutine; it unblocks a pending Recv.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr reports the peer address (diagnostics).
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Backoff parameterises Dial's reconnect-with-backoff loop.
type Backoff struct {
	// Attempts is the total number of connection attempts (default 10).
	Attempts int
	// Base is the first retry delay, doubling per attempt (default
	// 50ms); Max caps it (default 2s). A ±25% jitter decorrelates peers
	// retrying in lockstep.
	Base time.Duration
	Max  time.Duration
	// MaxElapsed caps the whole dial loop's wall-clock time (default
	// the sum of the capped per-attempt delays). Dial derives a context
	// deadline from it, so the worst case is bounded even when every
	// attempt burns its full connect timeout — a fleet bring-up cannot
	// wedge behind one dead address.
	MaxElapsed time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 10
	}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.MaxElapsed <= 0 {
		// Sum of the exponential delays (capped at Max) plus one connect
		// timeout per attempt — generous, but bounded.
		total := 3 * time.Second * time.Duration(b.Attempts)
		delay := b.Base
		for i := 1; i < b.Attempts; i++ {
			total += delay + delay/4
			if delay *= 2; delay > b.Max {
				delay = b.Max
			}
		}
		b.MaxElapsed = total
	}
	return b
}

// Dial connects to addr with exponential backoff — deployment scripts
// start psnode peers in arbitrary order, so the coordinator retries
// until the peer's listener is up (or attempts run out). Total time is
// capped by Backoff.MaxElapsed via a context deadline.
func Dial(addr string, b Backoff) (*Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), b.withDefaults().MaxElapsed)
	defer cancel()
	return DialContext(ctx, addr, b)
}

// DialContext is Dial bounded by ctx: both the inter-attempt sleeps and
// each TCP connect observe the context's deadline, so the caller's
// budget — not the attempt count alone — bounds the loop.
func DialContext(ctx context.Context, addr string, b Backoff) (*Conn, error) {
	b = b.withDefaults()
	delay := b.Base
	var lastErr error
	for i := 0; i < b.Attempts; i++ {
		if i > 0 {
			jitter := time.Duration(rand.Int63n(int64(delay)/2+1)) - delay/4
			select {
			case <-time.After(delay + jitter):
			case <-ctx.Done():
				if lastErr == nil {
					lastErr = ctx.Err()
				}
				return nil, fmt.Errorf("wire: dialing %s: %w (deadline after %d attempts)", addr, lastErr, i)
			}
			if delay *= 2; delay > b.Max {
				delay = b.Max
			}
		}
		conn, err := dialOnce(ctx, addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, fmt.Errorf("wire: dialing %s: %w (deadline after %d attempts)", addr, lastErr, i+1)
			}
			continue
		}
		return conn, nil
	}
	return nil, fmt.Errorf("wire: dialing %s: %w (after %d attempts)", addr, lastErr, b.Attempts)
}

// dialOnce makes a single TCP connect attempt under ctx.
func dialOnce(ctx context.Context, addr string) (*Conn, error) {
	d := net.Dialer{Timeout: 3 * time.Second}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConn(nc), nil
}
