package ldms

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/streams"
)

// link is the one reconnecting TCP connection under both reconnecting
// senders (ReconnectingForwarder and StreamUplink). It owns the dial
// with its timeout, the peer-close monitor, teardown, the redial
// backoff with jitter, failover between a primary and a standby
// address, the optional reconnect tail replay, and the only write path:
// batch frames, split to fit MaxFrame, then one flush.
type link struct {
	cfg  linkConfig
	done <-chan struct{} // the owner's close signal
	wg   *sync.WaitGroup // the owner's WaitGroup; joins the monitor

	mu       sync.Mutex
	active   int // index into cfg.addrs
	misses   int // consecutive failed dials of the active address
	switches uint64
	dials    uint64
	conn     net.Conn
	bw       *bufio.Writer
	jr       *rng.Stream
	backoff  time.Duration
	// Reconnect tail replay (replayLast > 0): ring of the most recently
	// sent messages, and whether a live connection has died since the
	// last successful write — the signal that the tail must be
	// re-covered, since frames in flight on a dead connection are of
	// unknown fate.
	ring          []streams.Message
	replayPending bool
	replayed      uint64

	// Wire accounting: bytes written to the socket (headers included)
	// and batch frames. Atomic so collect reads them without the lock.
	wireBytes atomic.Uint64
	frames    atomic.Uint64
}

// Redial defaults and the failover trigger shared by both senders.
const (
	defaultInitialBackoff = 50 * time.Millisecond
	defaultMaxBackoff     = 5 * time.Second
	defaultDialTimeout    = 2 * time.Second
	backoffMultiplier     = 2.0
	backoffJitter         = 0.2 // delays scale by a uniform factor in [0.8, 1.2)

	// failAfter consecutive failed dials of the active address switch a
	// link that has a standby to the other address.
	failAfter = 3
)

// linkConfig is the redial policy a sender's configuration reduces to.
// Zero durations select the defaults; a zero seed derives one from the
// wall clock.
type linkConfig struct {
	addrs          [2]string // primary, standby ("" = none)
	initialBackoff time.Duration
	maxBackoff     time.Duration
	dialTimeout    time.Duration
	replayLast     int
	seed           uint64
}

// newLink returns an unconnected link; the first write dials. done and
// wg belong to the owner: closing done stops redials and pauses, and the
// owner's wg.Wait joins every monitor goroutine the link started.
func newLink(cfg linkConfig, done <-chan struct{}, wg *sync.WaitGroup) *link {
	if cfg.initialBackoff <= 0 {
		cfg.initialBackoff = defaultInitialBackoff
	}
	if cfg.maxBackoff <= 0 {
		cfg.maxBackoff = defaultMaxBackoff
	}
	if cfg.dialTimeout <= 0 {
		cfg.dialTimeout = defaultDialTimeout
	}
	if cfg.seed == 0 {
		cfg.seed = uint64(time.Now().UnixNano())
	}
	return &link{
		cfg:     cfg,
		done:    done,
		wg:      wg,
		jr:      rng.New(cfg.seed),
		backoff: cfg.initialBackoff,
	}
}

// write sends msgs as batch frames and flushes, dialing first if there
// is no live connection (after a reconnect the replay tail goes first).
// A batch whose frame would exceed MaxFrame is split until every frame
// fits; a message too large for a frame of its own is not sent, and its
// index is returned in oversize. The caller settles those as dropped
// whether or not err is nil: they are not a link failure. Any other
// error tears the connection down for a fresh dial.
func (l *link) write(msgs []streams.Message) (oversize []int, err error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.dialLocked(); err != nil {
		return nil, err
	}
	if l.replayPending {
		// Everything in the ring went out once, so it fits.
		if _, err := l.framesLocked(l.ring, 0, nil); err != nil {
			l.teardownLocked()
			return nil, err
		}
		l.replayed += uint64(len(l.ring))
		l.replayPending = false
	}
	if oversize, err = l.framesLocked(msgs, 0, nil); err == nil {
		err = l.bw.Flush()
	}
	if err != nil {
		l.teardownLocked()
		return oversize, err
	}
	l.backoff = l.cfg.initialBackoff
	if l.cfg.replayLast > 0 {
		l.remember(msgs, oversize)
	}
	return oversize, nil
}

// framesLocked writes msgs as one batch frame, or, when that frame would
// exceed MaxFrame, as the frames of each half in turn. base is the index
// of msgs[0] in the caller's batch, for the oversize report.
func (l *link) framesLocked(msgs []streams.Message, base int, oversize []int) ([]int, error) {
	err := WriteBatchFrame(l.bw, msgs)
	switch {
	case err == nil:
		l.frames.Add(1)
		return oversize, nil
	case !errors.Is(err, errFrameTooLarge):
		return oversize, err
	case len(msgs) == 1:
		return append(oversize, base), nil
	}
	h := len(msgs) / 2
	if oversize, err = l.framesLocked(msgs[:h], base, oversize); err != nil {
		return oversize, err
	}
	return l.framesLocked(msgs[h:], base+h, oversize)
}

// remember appends the sent messages (not heartbeats, not the oversize
// ones) to the replay ring, keeping the newest replayLast.
func (l *link) remember(msgs []streams.Message, oversize []int) {
	for i, m := range msgs {
		if len(oversize) > 0 && oversize[0] == i {
			oversize = oversize[1:]
			continue
		}
		if m.Tag != HeartbeatTag {
			l.ring = append(l.ring, m)
		}
	}
	if n := len(l.ring) - l.cfg.replayLast; n > 0 {
		l.ring = append(l.ring[:0], l.ring[n:]...)
	}
}

// dialLocked dials the active address if there is no live connection
// (mu held). The failover trigger counts failed dials here.
func (l *link) dialLocked() error {
	if l.conn != nil {
		return nil
	}
	// Refuse to dial once the owner has closed: a late redial would
	// spawn a monitor goroutine after wg.Wait already returned, leaking
	// it (and the connection) past Close.
	select {
	case <-l.done:
		return net.ErrClosed
	default:
	}
	conn, err := net.DialTimeout("tcp", l.cfg.addrs[l.active], l.cfg.dialTimeout)
	if err != nil {
		l.misses++
		if l.cfg.addrs[1] != "" && l.misses >= failAfter {
			l.active ^= 1
			l.misses = 0
			l.switches++
		}
		return err
	}
	l.misses = 0
	l.conn = conn
	l.bw = bufio.NewWriter(&countingWriter{w: conn, n: &l.wireBytes})
	l.dials++
	// The server never writes application data back; a read can only
	// return when the peer closes or resets, which is exactly the signal
	// the monitor turns into prompt disconnect detection. The owner joins
	// it through wg after close unblocks the Read.
	l.wg.Add(1)
	go l.monitor(conn)
	return nil
}

// monitor tears the connection down as soon as the peer closes it.
func (l *link) monitor(conn net.Conn) {
	defer l.wg.Done()
	var b [1]byte
	conn.Read(b[:]) // blocks until close/reset (server sends nothing)
	l.mu.Lock()
	if l.conn == conn {
		l.teardownLocked()
	}
	l.mu.Unlock()
}

// teardownLocked closes and forgets the connection (mu held).
func (l *link) teardownLocked() {
	if l.conn == nil {
		return
	}
	l.conn.Close()
	l.conn = nil
	l.bw = nil
	if len(l.ring) > 0 {
		l.replayPending = true
	}
}

// close releases the connection. The owner closes done first and joins
// its WaitGroup after, so the monitor has returned once Close does.
func (l *link) close() {
	l.mu.Lock()
	l.teardownLocked()
	l.mu.Unlock()
}

// wait sleeps the current backoff, scaled by jitter, and grows it for
// the next failure; a successful write resets it. It returns false if
// the owner closed meanwhile.
func (l *link) wait() bool {
	l.mu.Lock()
	d := time.Duration(float64(l.backoff) * (1 + backoffJitter*(2*l.jr.Float64()-1)))
	l.backoff = time.Duration(float64(l.backoff) * backoffMultiplier)
	if l.backoff > l.cfg.maxBackoff {
		l.backoff = l.cfg.maxBackoff
	}
	l.mu.Unlock()
	return l.pause(d)
}

// pause sleeps for d, returning false if the owner closed meanwhile.
func (l *link) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-l.done:
		return false
	}
}

// linkStats is a snapshot of the link's counters.
type linkStats struct {
	Active     string // address dialed next (or connected to)
	OnStandby  bool   // Active is the standby address
	Switches   uint64 // primary<->standby changes
	Dials      uint64 // successful dials
	Reconnects uint64 // successful dials after the first
	Replayed   uint64 // tail messages re-sent after reconnects
	Connected  bool
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (l *link) stats() linkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return linkStats{
		Active:     l.cfg.addrs[l.active],
		OnStandby:  l.active == 1,
		Switches:   l.switches,
		Dials:      l.dials,
		Reconnects: max(l.dials, 1) - 1,
		Replayed:   l.replayed,
		Connected:  l.conn != nil,
	}
}

// collect registers the link's series as <prefix><name><labels>: dials,
// reconnects, connection state, the active address (0 primary, 1
// standby), switches, wire bytes and batch frames.
func (l *link) collect(reg *obs.Registry, prefix, labels string) {
	reg.RegisterCollector(func(emit func(string, float64)) {
		st := l.stats()
		emit(prefix+"dials_total"+labels, float64(st.Dials))
		emit(prefix+"reconnects_total"+labels, float64(st.Reconnects))
		emit(prefix+"connected"+labels, b2f(st.Connected))
		emit(prefix+"active"+labels, b2f(st.OnStandby))
		emit(prefix+"switches_total"+labels, float64(st.Switches))
		emit(prefix+"wire_bytes_total"+labels, float64(l.wireBytes.Load()))
		emit(prefix+"batch_frames_total"+labels, float64(l.frames.Load()))
	})
}
