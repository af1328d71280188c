package ldms

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

// This file is the opt-in resilience layer over the TCP transport. The
// default transport stays best-effort ("no reconnect or resend for
// delivery", Section IV-B) so the paper's semantics and numbers are
// untouched; a ReconnectingForwarder is what a deployment enables when a
// dead aggregator or a flapping link must not silently eat the stream.

// OverflowPolicy selects what a full spool does with new messages.
type OverflowPolicy int

// Overflow policies.
const (
	// DropOldest evicts the oldest spooled message (keep the freshest
	// data; the default — monitoring usually prefers recency).
	DropOldest OverflowPolicy = iota
	// DropNewest rejects the incoming message (keep the oldest data).
	DropNewest
	// Block makes Publish wait for spool space — backpressure onto the
	// publisher, trading memory safety for stalls.
	Block
)

func (p OverflowPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case Block:
		return "block"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(p))
}

// ParseOverflowPolicy parses the string forms used by command-line flags.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch strings.TrimSpace(s) {
	case "drop-oldest", "":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	case "block":
		return Block, nil
	}
	return 0, fmt.Errorf("ldms: unknown overflow policy %q (want drop-oldest, drop-newest or block)", s)
}

// ForwarderConfig parameterizes a ReconnectingForwarder. The zero value of
// every field selects a sensible default.
type ForwarderConfig struct {
	Addr string // remote daemon address (required)
	Tag  string // stream tag to forward (required)

	// Reconnect backoff: delays double from InitialBackoff up to
	// MaxBackoff, each scaled by a uniform ±20% jitter so that a daemon
	// restart is not greeted by a synchronized thundering herd.
	InitialBackoff time.Duration // default 50ms
	MaxBackoff     time.Duration // default 5s
	DialTimeout    time.Duration // default 2s

	// SpoolSize bounds the in-memory spool of undelivered messages;
	// Overflow selects the policy when it fills. Default 1024 messages.
	SpoolSize int
	Overflow  OverflowPolicy

	// HeartbeatEvery, when positive, sends liveness probes on the
	// connection (establishing it if needed) so both ends detect a quiet
	// dead link. Probes use HeartbeatTag and are not published remotely.
	HeartbeatEvery time.Duration

	// ReplayLast, when positive, re-sends the last ReplayLast delivered
	// messages after every reconnect: frames in flight when a connection
	// dies are of unknown fate (the kernel may have buffered them, the
	// peer may have processed them), so the forwarder re-covers the tail
	// rather than risk a silent gap. This upgrades delivery from
	// best-effort to at-least-once; pair the receiving store with a
	// DedupStore to make the path exactly-once.
	ReplayLast int

	// Batch drains the spool in batches, each sent as one batch frame:
	// up to MaxRecords / MaxBytes per flush, waiting at most MaxAge for a
	// partial batch to fill once the first message is in hand. Batches
	// form naturally under backpressure — a deep spool yields full
	// batches, an idle one yields batches of one after at most MaxAge.
	// The zero value is full at one record: one message per batch frame.
	Batch event.FlushPolicy

	// Seed seeds the jitter stream; a fixed seed gives a reproducible
	// backoff schedule in tests. Zero derives from the wall clock.
	Seed uint64
}

// ForwarderStats is a snapshot of a forwarder's counters.
type ForwarderStats struct {
	Enqueued   uint64 // messages accepted from the bus
	Sent       uint64 // messages delivered to the remote daemon
	Dropped    uint64 // spool-overflow and oversize drops (also folded into bus stats)
	Retries    uint64 // send attempts that failed and were retried
	Dials      uint64 // connection attempts that succeeded
	Reconnects uint64 // successful dials after the first
	Heartbeats uint64 // liveness probes written
	Replayed   uint64 // tail messages re-sent after reconnects (ReplayLast)
	SpoolDepth int    // messages currently spooled
	Connected  bool
}

// ReconnectingForwarder forwards a tag from a local daemon's bus over TCP
// like ForwardTCP, but survives the remote daemon dying: undelivered
// messages wait in a bounded spool while the forwarder redials with
// exponential backoff and jitter, and are resent once the link returns.
// Delivery is at-least-once: a message in flight when the link breaks may
// be duplicated after reconnect, never silently lost (unless the spool
// overflows or the message cannot fit a frame, both counted).
type ReconnectingForwarder struct {
	cfg  ForwarderConfig
	from *Daemon
	sub  *streams.Subscription
	link *link

	mu         sync.Mutex
	cond       *sync.Cond
	spool      []streams.Message
	inflight   int // messages popped from the spool, not yet sent or dropped
	closed     bool
	enqueued   uint64
	sent       uint64
	dropped    uint64
	retries    uint64
	heartbeats uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// NewReconnectingForwarder subscribes to cfg.Tag on from's bus and starts
// the delivery worker. The first connection is dialed lazily.
func NewReconnectingForwarder(from *Daemon, cfg ForwarderConfig) (*ReconnectingForwarder, error) {
	if from == nil {
		return nil, errors.New("ldms: nil daemon")
	}
	if cfg.Addr == "" {
		return nil, errors.New("ldms: forwarder needs an address")
	}
	if cfg.Tag == "" {
		return nil, errors.New("ldms: forwarder needs a tag")
	}
	if cfg.SpoolSize <= 0 {
		cfg.SpoolSize = 1024
	}
	f := &ReconnectingForwarder{
		cfg:  cfg,
		from: from,
		done: make(chan struct{}),
	}
	f.link = newLink(linkConfig{
		addrs:          [2]string{cfg.Addr},
		initialBackoff: cfg.InitialBackoff,
		maxBackoff:     cfg.MaxBackoff,
		dialTimeout:    cfg.DialTimeout,
		replayLast:     cfg.ReplayLast,
		seed:           cfg.Seed,
	}, f.done, &f.wg)
	f.cond = sync.NewCond(&f.mu)
	f.sub = from.Bus().Subscribe(cfg.Tag, f.enqueue)
	f.wg.Add(1)
	go f.run()
	if cfg.HeartbeatEvery > 0 {
		f.wg.Add(1)
		go f.heartbeatLoop()
	}
	return f, nil
}

// enqueue is the bus handler: it spools the message for the worker.
func (f *ReconnectingForwarder) enqueue(m streams.Message) {
	f.mu.Lock()
	if f.closed {
		f.dropLocked(1)
		f.mu.Unlock()
		return
	}
	f.enqueued++
	if len(f.spool) >= f.cfg.SpoolSize {
		switch f.cfg.Overflow {
		case DropOldest:
			f.spool = f.spool[1:]
			f.dropLocked(1)
		case DropNewest:
			f.dropLocked(1)
			f.mu.Unlock()
			return
		case Block:
			for len(f.spool) >= f.cfg.SpoolSize && !f.closed {
				f.cond.Wait()
			}
			if f.closed {
				f.dropLocked(1)
				f.mu.Unlock()
				return
			}
		}
	}
	// The spool outlives the publisher's synchronous hand-off, so a
	// slab-backed record must be detached here — its slab may be reset
	// the moment the bus fan-out returns. Heap records pass through
	// untouched (Detach is the identity for them).
	f.spool = append(f.spool, streams.Detach(m))
	f.cond.Broadcast()
	f.mu.Unlock()
}

// dropLocked counts a lost message here and on the bus (f.mu held).
func (f *ReconnectingForwarder) dropLocked(n uint64) {
	f.dropped += n
	f.from.Bus().NoteDrops(f.cfg.Tag, n)
}

// run is the delivery worker: take a batch of the spool, send it
// (reconnecting as needed), repeat.
func (f *ReconnectingForwarder) run() {
	defer f.wg.Done()
	for {
		b, ok := f.takeBatch()
		if !ok {
			return
		}
		f.deliver(b.Messages())
		batchPool.Put(b)
		f.mu.Lock()
		f.inflight = 0
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// batchPool recycles the forwarder's batch accumulators; its Get/Put
// counters back the pool-leak assertions in tests.
var batchPool event.BatchPool

// BatchPoolCounters exposes the batch accumulator pool's Get/Put counts
// for leak assertions in tests.
func BatchPoolCounters() (gets, puts uint64) { return batchPool.Counters() }

// takeBatch pops up to a batch worth of spooled messages, blocking until
// at least one arrives or Close. With an age policy it then lingers up to
// MaxAge for the batch to fill; without one it takes whatever is already
// queued (natural batching: depth under backpressure, latency near zero
// when idle).
func (f *ReconnectingForwarder) takeBatch() (*event.Batch, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.spool) == 0 && !f.closed {
		f.cond.Wait()
	}
	if len(f.spool) == 0 {
		return nil, false
	}
	b := batchPool.Get()
	pop := func() bool {
		if len(f.spool) == 0 {
			return false
		}
		m := f.spool[0]
		f.spool = f.spool[1:]
		f.inflight++
		full := b.Add(m, time.Now(), f.cfg.Batch)
		f.cond.Broadcast() // space freed for Block publishers
		return !full
	}
	for pop() {
	}
	if f.cfg.Batch.MaxAge > 0 && !b.Full(f.cfg.Batch) {
		// Linger for the batch to fill. The timer broadcast wakes the
		// cond wait when the age budget runs out.
		expired := false
		t := time.AfterFunc(f.cfg.Batch.MaxAge, func() {
			f.mu.Lock()
			expired = true
			f.cond.Broadcast()
			f.mu.Unlock()
		})
		for !expired && !f.closed && !b.Full(f.cfg.Batch) {
			if len(f.spool) == 0 {
				f.cond.Wait()
				continue
			}
			pop()
		}
		t.Stop()
	}
	return b, true
}

// deliver sends msgs through the link, backing off between attempts
// until it succeeds or the forwarder closes. Messages too large for any
// frame are dropped (counted) rather than retried.
func (f *ReconnectingForwarder) deliver(msgs []streams.Message) {
	for {
		oversize, err := f.link.write(msgs)
		f.mu.Lock()
		if len(oversize) > 0 {
			f.dropLocked(uint64(len(oversize)))
			msgs = without(msgs, oversize)
		}
		if err == nil {
			f.sent += uint64(len(msgs))
			f.mu.Unlock()
			return
		}
		f.retries++
		f.mu.Unlock()
		if !f.link.wait() {
			f.mu.Lock()
			f.dropLocked(uint64(len(msgs)))
			f.mu.Unlock()
			return
		}
	}
}

// without removes the messages at the ascending indexes idx from msgs,
// in place, keeping the order of the rest.
func without(msgs []streams.Message, idx []int) []streams.Message {
	out := msgs[:0]
	for i, m := range msgs {
		if len(idx) > 0 && idx[0] == i {
			idx = idx[1:]
			continue
		}
		out = append(out, m)
	}
	return out
}

// heartbeatLoop periodically probes (and if needed establishes) the link.
func (f *ReconnectingForwarder) heartbeatLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.HeartbeatEvery)
	defer tick.Stop()
	hb := []streams.Message{{Tag: HeartbeatTag, Type: streams.TypeString, Data: []byte("ping")}}
	for {
		select {
		case <-f.done:
			return
		case <-tick.C:
			if _, err := f.link.write(hb); err == nil {
				f.mu.Lock()
				f.heartbeats++
				f.mu.Unlock()
			}
		}
	}
}

// Stats returns a snapshot of the forwarder's counters.
func (f *ReconnectingForwarder) Stats() ForwarderStats {
	ls := f.link.stats()
	f.mu.Lock()
	defer f.mu.Unlock()
	return ForwarderStats{
		Enqueued:   f.enqueued,
		Sent:       f.sent,
		Dropped:    f.dropped,
		Retries:    f.retries,
		Dials:      ls.Dials,
		Reconnects: ls.Reconnects,
		Heartbeats: f.heartbeats,
		Replayed:   ls.Replayed,
		SpoolDepth: len(f.spool) + f.inflight,
		Connected:  ls.Connected,
	}
}

// Flush waits until the spool has fully drained (every accepted message
// sent or dropped), up to timeout.
func (f *ReconnectingForwarder) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		drained := len(f.spool) == 0 && f.inflight == 0
		f.mu.Unlock()
		if drained {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ldms: forwarder flush timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close detaches from the bus and stops the worker. Messages still spooled
// are counted as dropped; call Flush first for a clean drain.
func (f *ReconnectingForwarder) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.done)
	f.dropLocked(uint64(len(f.spool)))
	f.spool = nil
	f.cond.Broadcast()
	f.mu.Unlock()
	f.sub.Close()
	f.link.close()
	f.wg.Wait()
	return nil
}

// PingTCP dials addr, writes one heartbeat frame and closes — a one-shot
// liveness probe for a remote daemon.
func PingTCP(addr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	return WriteFrame(conn, streams.Message{Tag: HeartbeatTag, Type: streams.TypeString, Data: []byte("ping")})
}

// RetryConfig parameterizes a RetryStore.
type RetryConfig struct {
	// Attempts is the total number of tries per message (default 3).
	Attempts int
	// Backoff sleeps Backoff<<attempt between tries (0 = immediate retry,
	// the right choice inside a simulation where wall-clock sleeps would
	// stall the virtual clock).
	Backoff time.Duration
	// Timeout bounds the total wall-clock spent on one message including
	// backoff sleeps (0 = no bound).
	Timeout time.Duration
}

// RetryStore wraps a StorePlugin with bounded retry-with-timeout, the
// opt-in hardening for the DSOS ingest path: a transiently failing dsosd
// (or a sharded client that rotates to a healthy daemon on the next try)
// no longer costs the message.
type RetryStore struct {
	inner StorePlugin
	cfg   RetryConfig

	mu       sync.Mutex
	retries  uint64
	failures uint64
	lastErr  error
}

// NewRetryStore wraps inner with the retry policy.
func NewRetryStore(inner StorePlugin, cfg RetryConfig) *RetryStore {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	return &RetryStore{inner: inner, cfg: cfg}
}

// Name implements StorePlugin.
func (s *RetryStore) Name() string { return "retry(" + s.inner.Name() + ")" }

// Store implements StorePlugin: it retries inner.Store up to Attempts
// times within Timeout.
func (s *RetryStore) Store(m streams.Message) error {
	var deadline time.Time
	if s.cfg.Timeout > 0 {
		deadline = time.Now().Add(s.cfg.Timeout)
	}
	var err error
	for attempt := 0; attempt < s.cfg.Attempts; attempt++ {
		if err = s.inner.Store(m); err == nil {
			return nil
		}
		if attempt+1 == s.cfg.Attempts {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		if s.cfg.Backoff > 0 {
			time.Sleep(s.cfg.Backoff << attempt)
		}
	}
	s.mu.Lock()
	s.failures++
	s.lastErr = err
	s.mu.Unlock()
	return err
}

// Stats returns retry/failure counts and the last error.
func (s *RetryStore) Stats() (retries, failures uint64, lastErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries, s.failures, s.lastErr
}
