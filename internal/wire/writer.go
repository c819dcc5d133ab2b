package wire

import (
	"fmt"
	"sync"
	"time"
)

// DefaultWriterDepth is the FrameWriter queue bound: enough frames in
// flight to ride out scheduler hiccups, small enough that a stalled peer
// backpressures the producer within a few batches.
const DefaultWriterDepth = 64

// wframe is one queued frame; a nil buf with non-nil flushed marks a
// Drain barrier marker.
type wframe struct {
	typ     byte
	buf     *Buf
	flushed chan error
}

// FrameWriter pipelines pre-encoded frames onto one Conn from a
// dedicated goroutine, so producers overlap compute with wire I/O
// instead of blocking on the socket. Frames are written in queue order;
// the writer drains whatever is queued into one bufio flush per wave, so
// a backed-up queue coalesces many frames into one syscall. Buffers are
// returned to the pool after the write.
//
// Direct Conn.Send calls from other goroutines interleave safely (the
// Conn's write mutex keeps frames atomic) but order relative to queued
// frames is then unspecified — callers who need FIFO with the queued
// data must go through Send or Drain.
type FrameWriter struct {
	c  *Conn
	ch chan wframe

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu  sync.Mutex
	err error
}

// NewFrameWriter starts a writer goroutine over c with the given queue
// depth (0 = DefaultWriterDepth).
func NewFrameWriter(c *Conn, depth int) *FrameWriter {
	if depth <= 0 {
		depth = DefaultWriterDepth
	}
	w := &FrameWriter{
		c:    c,
		ch:   make(chan wframe, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.loop()
	return w
}

// Send queues one pre-encoded frame. The writer owns buf afterwards
// (returned to the pool once written). Blocks when the queue is full —
// that is the transport backpressure — and fails fast once the writer
// has failed or stopped. A frame over MaxFrameSize is refused before it
// is queued, with ErrFrameTooLarge, and the writer stays up: the caller
// decides whether that ends the session.
func (w *FrameWriter) Send(typ byte, buf *Buf) error {
	if n := 1 + len(buf.B); n > MaxFrameSize {
		PutBuf(buf)
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	if err := w.enqueue(wframe{typ: typ, buf: buf}); err != nil {
		PutBuf(buf)
		return err
	}
	return nil
}

// SendFrame encodes f into a pooled buffer and queues it like Send: for
// the control frames, whose order behind the queued data is what matters.
func (w *FrameWriter) SendFrame(f Frame) error {
	buf := GetBuf()
	buf.B = f.appendTo(buf.B)
	return w.Send(f.frameType(), buf)
}

// enqueue hands f to the writer goroutine. The stop check comes first: a
// select between a queue with room and a closed stop channel picks
// either, so without it a frame sent after Stop or a failed write would
// report success and never be written.
func (w *FrameWriter) enqueue(f wframe) error {
	select {
	case <-w.stop:
		return w.failErr()
	default:
	}
	select {
	case w.ch <- f:
		return nil
	case <-w.stop:
		return w.failErr()
	}
}

// Drain blocks until every frame queued before the call has been written
// and flushed to the socket.
func (w *FrameWriter) Drain() error {
	marker := wframe{flushed: make(chan error, 1)}
	if err := w.enqueue(marker); err != nil {
		return err
	}
	select {
	case err := <-marker.flushed:
		return err
	case <-w.stop:
		return w.failErr()
	}
}

// Err returns the writer's terminal error, if any.
func (w *FrameWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *FrameWriter) failErr() error {
	if err := w.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// Stop halts the writer without draining (teardown path; pending frames
// are discarded). It is idempotent and returns once the goroutine has
// exited.
func (w *FrameWriter) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *FrameWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	// The conn is unusable for data once a write failed; closing it
	// surfaces the failure to the owner's read loop, which runs the
	// session teardown.
	w.c.Close()
	w.stopOnce.Do(func() { close(w.stop) })
}

func (w *FrameWriter) loop() {
	defer close(w.done)
	wave := make([]wframe, 0, 32)
	for {
		// Block for the first frame of a wave.
		var first wframe
		select {
		case first = <-w.ch:
		case <-w.stop:
			w.discard()
			return
		}
		wave = append(wave[:0], first)
		// Coalesce whatever else is already queued.
	gather:
		for len(wave) < cap(wave) {
			select {
			case f := <-w.ch:
				wave = append(wave, f)
			default:
				break gather
			}
		}
		err := w.c.writeWave(wave)
		for _, f := range wave {
			if f.flushed != nil {
				f.flushed <- err
			}
			PutBuf(f.buf)
		}
		if err != nil {
			w.fail(err)
			w.discard()
			return
		}
	}
}

// discard releases queued buffers after a stop or failure, unblocking
// producers parked on the channel until they observe the stop.
func (w *FrameWriter) discard() {
	for {
		select {
		case f := <-w.ch:
			if f.flushed != nil {
				f.flushed <- w.failErr()
			}
			PutBuf(f.buf)
		default:
			return
		}
	}
}

// writeWave writes a run of frames under one lock and one flush.
// Flush-markers (nil buf) carry no bytes.
func (c *Conn) writeWave(wave []wframe) error {
	start := time.Now()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWriteDeadline(); err != nil {
		return err
	}
	for _, f := range wave {
		if f.buf == nil {
			continue
		}
		if err := WriteFrame(c.bw, f.typ, f.buf.B); err != nil {
			return err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	dur := time.Since(start)
	for _, f := range wave {
		if f.buf == nil {
			continue
		}
		txCounters.record(f.typ, len(f.buf.B), dur/time.Duration(len(wave)))
	}
	return nil
}
