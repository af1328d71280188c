package ldms

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/streams"
)

// StreamUplink forwards a durable stream to a remote daemon over TCP,
// sourcing from a named streams.Consumer instead of a volatile bus
// subscription. Where the ReconnectingForwarder's spool dies with the
// process (bounded memory, counted drops), the uplink's backlog is the
// stream itself: each fetch round goes out as one batch frame and is
// acked once that frame was flushed to the local socket, so a crash —
// of the uplink, the process, or the whole node — resumes from the
// durable cursor and re-sends anything unacked. Delivery is therefore
// at-least-once as far as the socket; pair the receiving store with a
// DedupStore for exactly-once effect. An ack does not mean stored: a
// frame flushed into a connection that then dies is acked but lost.
//
// With a Standby address the uplink fails over: after failAfter
// consecutive failed dials of the active address it dials the other
// one, in either direction. The one durable consumer, and with it the
// ack floor, survives every switch: messages unacked at the switch are
// redelivered to the new upstream, and the floor never regresses.
type StreamUplink struct {
	cfg  UplinkConfig
	cons *streams.Consumer
	link *link

	sent, naks, oversize atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// UplinkConfig parameterizes a StreamUplink. The zero value of every
// optional field selects a sensible default.
type UplinkConfig struct {
	Addr     string // remote daemon address (required)
	Standby  string // failover address (optional; must differ from Addr)
	Consumer string // durable consumer name (default "uplink")
	Filter   string // consumer subject filter (default everything)

	// BatchSize bounds how many messages one fetch round — one batch
	// frame — carries (default 64); MaxInflight bounds the consumer's
	// unacked window (default 2 x BatchSize).
	BatchSize   int
	MaxInflight int

	// AckWait is the consumer redelivery deadline — how long a fetched-
	// but-unacked message (e.g. lost when the process died mid-send on a
	// previous incarnation's cursor) waits before the stream offers it
	// again. Default 30s.
	AckWait time.Duration

	// PollEvery is the idle poll interval when the stream has nothing to
	// deliver (default 10ms).
	PollEvery time.Duration

	// Reconnect backoff, as in ForwarderConfig.
	InitialBackoff time.Duration // default 50ms
	MaxBackoff     time.Duration // default 5s
	DialTimeout    time.Duration // default 2s

	// Seed seeds the backoff jitter stream (0 derives from the clock).
	Seed uint64
}

// UplinkStats is a snapshot of an uplink's counters plus its consumer's
// delivery state.
type UplinkStats struct {
	Sent      uint64 // messages written and acked
	Naks      uint64 // send failures handed back for redelivery
	Oversize  uint64 // messages too large for any frame, acked unsent
	Dials     uint64
	Connected bool
	Active    string // address currently uplinked to (or dialed next)
	Switches  uint64 // upstream changes (primary<->standby, both directions)
	Consumer  streams.ConsumerStats
}

// NewStreamUplink claims (or resumes) the durable consumer on s and
// starts the delivery worker. The first connection is dialed lazily.
func NewStreamUplink(s *streams.DurableStream, cfg UplinkConfig) (*StreamUplink, error) {
	if s == nil {
		return nil, errors.New("ldms: uplink needs a stream")
	}
	if cfg.Addr == "" {
		return nil, errors.New("ldms: uplink needs an address")
	}
	if cfg.Standby == cfg.Addr {
		return nil, errors.New("ldms: uplink standby equals its address")
	}
	if cfg.Consumer == "" {
		cfg.Consumer = "uplink"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * cfg.BatchSize
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 30 * time.Second
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 10 * time.Millisecond
	}
	cons, err := s.Consumer(streams.ConsumerConfig{
		Name:        cfg.Consumer,
		Filter:      cfg.Filter,
		MaxInflight: cfg.MaxInflight,
		AckWait:     cfg.AckWait,
	})
	if err != nil {
		return nil, err
	}
	u := &StreamUplink{cfg: cfg, cons: cons, done: make(chan struct{})}
	u.link = newLink(linkConfig{
		addrs:          [2]string{cfg.Addr, cfg.Standby},
		initialBackoff: cfg.InitialBackoff,
		maxBackoff:     cfg.MaxBackoff,
		dialTimeout:    cfg.DialTimeout,
		seed:           cfg.Seed,
	}, u.done, &u.wg)
	u.wg.Add(1)
	go u.run()
	return u, nil
}

// run is the delivery worker: fetch a round from the consumer, write it
// as one batch frame, ack the round after the flush, or nak it (for
// immediate redelivery) and back off when the link fails.
func (u *StreamUplink) run() {
	defer u.wg.Done()
	var msgs []streams.Message
	for {
		select {
		case <-u.done:
			return
		default:
		}
		ds, err := u.cons.Fetch(u.cfg.BatchSize)
		if err != nil {
			return // consumer replaced by a successor
		}
		if len(ds) == 0 {
			if !u.link.pause(u.cfg.PollEvery) {
				return
			}
			continue
		}
		msgs = msgs[:0]
		for _, d := range ds {
			msgs = append(msgs, d.Msg)
		}
		oversize, err := u.link.write(msgs)
		// Oversize messages are settled either way: acked, counted, and
		// never refetched.
		for i, d := range ds {
			if len(oversize) > 0 && oversize[0] == i {
				oversize = oversize[1:]
				if u.cons.Ack(d.Seq) == nil {
					u.oversize.Add(1)
				}
				continue
			}
			if err != nil {
				if u.cons.Nak(d.Seq) == nil {
					u.naks.Add(1)
				}
				continue
			}
			if u.cons.Ack(d.Seq) != nil {
				return // consumer closed mid-flight
			}
			u.sent.Add(1)
		}
		if err != nil && !u.link.wait() {
			return
		}
	}
}

// Stats returns a snapshot of the uplink's counters.
func (u *StreamUplink) Stats() UplinkStats {
	ls := u.link.stats()
	return UplinkStats{
		Sent:      u.sent.Load(),
		Naks:      u.naks.Load(),
		Oversize:  u.oversize.Load(),
		Dials:     ls.Dials,
		Connected: ls.Connected,
		Active:    ls.Active,
		Switches:  ls.Switches,
		Consumer:  u.cons.Stats(),
	}
}

// Flush waits until the consumer has caught up with the stream head
// (nothing pending, nothing inflight), up to timeout.
func (u *StreamUplink) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cs := u.cons.Stats()
		if cs.Lag == 0 && cs.Inflight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("ldms: uplink flush timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the worker and releases the connection. The durable cursor
// survives: a successor uplink with the same consumer name resumes where
// this one stopped.
func (u *StreamUplink) Close() error {
	u.closeOnce.Do(func() {
		close(u.done)
		// Tear the connection down BEFORE joining the WaitGroup: the
		// monitor goroutine sits in conn.Read and only returns once the
		// socket closes, so a wait-then-teardown order would deadlock.
		u.link.close()
		u.wg.Wait()
		u.cons.Close()
	})
	return nil
}
