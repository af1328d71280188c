package streams

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"darshanldms/internal/sos"
)

// DurableStream upgrades the best-effort bus to a JetStream-shaped
// delivery contract: every appended message is persisted to a CRC-framed
// WAL segment (sos.AppendFrame over any sos.WALStore — the simulation's
// MemWAL or a real FileWAL) before the append is acknowledged, retained
// under explicit count/byte/age bounds with drop-oldest eviction and
// exact drop accounting, and served to named Consumer groups that track a
// durable acked floor, redeliver unacked messages, and replay history for
// late joiners. A crashed process reopens the stream from the same
// segment and resumes: retained messages, drop counters and consumer
// cursors all survive.
//
// The stream is deliberately clock-agnostic like the obs plane: all
// timestamps (message age, redelivery deadlines) come from the injected
// StreamConfig.Clock, so the simulation drives retention and redelivery
// in virtual time while real daemons pass a wall clock.

// RetentionPolicy bounds what a stream retains. Zero fields are
// unbounded; eviction is always drop-oldest, and every eviction is
// counted by reason and made durable with a trim marker so the
// accounting is exact across crashes.
type RetentionPolicy struct {
	MaxMsgs  int           // retained message count bound (0 = unbounded)
	MaxBytes int64         // retained stored-body byte bound (0 = unbounded)
	MaxAge   time.Duration // retained message age bound (0 = unbounded)
}

// StreamConfig parameterizes a DurableStream.
type StreamConfig struct {
	// Name identifies the stream (required). It is the handle
	// Bus.AppendStream and the obs series use.
	Name string
	// Subjects are the subject filters a bound bus routes into this
	// stream (wildcards allowed). Empty means every published subject.
	Subjects []string
	// Retention bounds the retained window.
	Retention RetentionPolicy
	// Clock supplies the stream's notion of now, for message ages and
	// redelivery deadlines. Sim-zone streams must pass virtual time (the
	// engine clock); real daemons pass a wall clock. Nil pins the clock
	// at zero, which disables age retention and makes every redelivery
	// immediately due.
	Clock func() time.Duration
}

// StreamStats is a point-in-time accounting snapshot of a stream. The
// conservation law Appended == Msgs + Dropped holds at every instant, and
// Dropped == FirstSeq-1: retention only ever trims the head, so the drop
// count and the retained window position are two views of one number.
type StreamStats struct {
	Name       string
	FirstSeq   uint64 // oldest retained sequence (LastSeq+1 when empty)
	LastSeq    uint64 // newest appended sequence (0 before the first)
	Msgs       int    // retained message count
	Bytes      int64  // retained stored bytes: binary bodies and literal payloads
	Appended   uint64 // messages ever appended (== LastSeq)
	Dropped    uint64 // messages evicted by retention, total
	DroppedFor [int(dropReasons)]uint64
	WALErrors  uint64 // segment appends that failed (trim markers, cursors)
}

// DurableStream is a named, persistent, replayable message log. It is
// safe for concurrent use.
type DurableStream struct {
	mu    sync.Mutex
	cfg   StreamConfig
	store sos.WALStore

	entries  []*entry // retained window, entries[i].seq == firstSeq+i
	firstSeq uint64   // seq of entries[0]; lastSeq+1 when empty
	lastSeq  uint64
	bytes    int64
	drops    [int(dropReasons)]uint64
	walErrs  uint64

	consumers map[string]*Consumer
	floors    map[string]uint64 // durable acked floors, incl. unclaimed
	waiters   *sync.Cond        // signaled on append, for blocking fetches

	scratch []byte // reused body and record encode buffer (s.mu held)
}

// OpenStream opens (creating if empty) the durable stream backed by
// store, replaying any existing segment: retained messages, retention
// trims and consumer cursors are all recovered, and a torn tail — the
// expected shape of a crash mid-append — is truncated cleanly (a FileWAL
// backing is Reset so appends resume after the last clean record).
func OpenStream(cfg StreamConfig, store sos.WALStore) (*DurableStream, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("streams: durable stream needs a name")
	}
	if store == nil {
		return nil, fmt.Errorf("streams: durable stream %q needs a segment store", cfg.Name)
	}
	if len(cfg.Subjects) == 0 {
		cfg.Subjects = []string{TailWildcard}
	}
	for _, f := range cfg.Subjects {
		if !ValidFilter(f) {
			return nil, fmt.Errorf("streams: stream %q: invalid subject filter %q", cfg.Name, f)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration { return 0 }
	}
	s := &DurableStream{
		cfg:       cfg,
		store:     store,
		firstSeq:  1,
		consumers: map[string]*Consumer{},
		floors:    map[string]uint64{},
	}
	s.waiters = sync.NewCond(&s.mu)
	_, consumed, err := sos.ReplayFrames(store, s.applyReplay)
	if err != nil {
		return nil, fmt.Errorf("streams: stream %q replay: %w", cfg.Name, err)
	}
	if fw, ok := store.(*sos.FileWAL); ok {
		if err := fw.Reset(consumed); err != nil {
			return nil, fmt.Errorf("streams: stream %q truncate torn tail: %w", cfg.Name, err)
		}
	}
	// Floors can never sit past the appended window (a cursor record that
	// claims more than the recovered messages means the tail was torn
	// between the ack and the append it acked — resume conservatively).
	for name, fl := range s.floors {
		if fl > s.lastSeq {
			s.floors[name] = s.lastSeq
		}
	}
	// Re-apply retention against the current clock so an age bound trims
	// entries that expired while the process was down, and so bounds that
	// were tightened between incarnations take effect immediately.
	s.applyRetentionLocked(s.cfg.Clock())
	return s, nil
}

// applyReplay folds one recovered segment record into the stream state.
func (s *DurableStream) applyReplay(body []byte) error {
	if len(body) == 0 {
		return sos.ErrStopReplay
	}
	switch body[0] {
	case segKindMsg, segKindBody:
		if body[0] == segKindBody && bodyCodec == nil {
			// Not a torn tail: stopping here would truncate good records.
			return fmt.Errorf("segment holds binary bodies and no body codec is registered")
		}
		e, err := decodeMsgEntry(body)
		if err != nil || e.seq != s.lastSeq+1 {
			return sos.ErrStopReplay // corrupt or out-of-order: torn tail
		}
		s.entries = append(s.entries, e)
		s.lastSeq = e.seq
		s.bytes += int64(len(e.payload))
	case segKindCursor:
		name, floor, err := decodeCursorEntry(body)
		if err != nil {
			return sos.ErrStopReplay
		}
		if floor > s.floors[name] { // floors are monotone; keep the highest
			s.floors[name] = floor
		}
	case segKindDrop:
		reason, newFirst, err := decodeDropEntry(body)
		if err != nil || newFirst < s.firstSeq || newFirst > s.lastSeq+1 {
			return sos.ErrStopReplay
		}
		s.drops[reason] += newFirst - s.firstSeq
		for s.firstSeq < newFirst {
			if len(s.entries) > 0 && s.entries[0].seq < newFirst {
				s.bytes -= int64(len(s.entries[0].payload))
				s.entries = s.entries[1:]
			}
			s.firstSeq++
		}
	default:
		return sos.ErrStopReplay
	}
	return nil
}

// Name returns the stream's name.
func (s *DurableStream) Name() string { return s.cfg.Name }

// Subjects returns the stream's bound subject filters.
func (s *DurableStream) Subjects() []string {
	out := make([]string, len(s.cfg.Subjects))
	copy(out, s.cfg.Subjects)
	return out
}

// Matches reports whether a published subject belongs in this stream.
func (s *DurableStream) Matches(subject string) bool {
	return MatchAny(s.cfg.Subjects, subject)
}

// Append durably appends one message and returns its assigned sequence.
// The message is persisted before the sequence is returned; an error
// means nothing was appended and the caller still owns the message's
// fate. A message whose carrier has a binary body (a typed record) is
// stored as that body and never rendered to JSON; one that only carries
// bytes is stored as those bytes.
func (s *DurableStream) Append(m Message) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	e := &entry{
		seq:      s.lastSeq + 1,
		subject:  m.Tag,
		mtype:    m.Type,
		producer: m.Producer,
		pseq:     m.Seq,
		at:       now,
	}
	if bc, ok := m.Record.(BodyCarrier); ok && m.Data == nil && bodyCodec != nil {
		if body, ok := bc.AppendBody(s.scratch[:0]); ok && len(body) > 0 {
			e.payload = append([]byte(nil), body...)
			e.body = true
			s.scratch = body
		}
	}
	if !e.body {
		e.payload = m.Payload()
	}
	s.scratch = appendMsgEntry(s.scratch[:0], e)
	if err := sos.AppendFrame(s.store, s.scratch); err != nil {
		return 0, fmt.Errorf("streams: stream %q append: %w", s.cfg.Name, err)
	}
	s.lastSeq = e.seq
	s.entries = append(s.entries, e)
	s.bytes += int64(len(e.payload))
	s.applyRetentionLocked(now)
	s.waiters.Broadcast()
	return e.seq, nil
}

// applyRetentionLocked evicts head entries until every retention bound
// holds, writing one durable trim marker per contiguous same-reason run
// (s.mu held). Age is checked first — an expired message is already gone
// in spirit — then count, then bytes.
func (s *DurableStream) applyRetentionLocked(now time.Duration) {
	r := s.cfg.Retention
	type trim struct {
		reason   DropReason
		newFirst uint64
	}
	var trims []trim
	drop := func(reason DropReason) {
		e := s.entries[0]
		s.entries = s.entries[1:]
		s.bytes -= int64(len(e.payload))
		s.firstSeq = e.seq + 1
		s.drops[reason]++
		if n := len(trims); n > 0 && trims[n-1].reason == reason {
			trims[n-1].newFirst = s.firstSeq
		} else {
			trims = append(trims, trim{reason, s.firstSeq})
		}
	}
	for len(s.entries) > 0 {
		switch {
		case r.MaxAge > 0 && s.entries[0].at+r.MaxAge < now:
			drop(DropByAge)
		case r.MaxMsgs > 0 && len(s.entries) > r.MaxMsgs:
			drop(DropByCount)
		case r.MaxBytes > 0 && s.bytes > r.MaxBytes:
			drop(DropByBytes)
		default:
			goto done
		}
	}
done:
	for _, t := range trims {
		if err := sos.AppendFrame(s.store, encodeDropEntry(t.reason, t.newFirst)); err != nil {
			// The in-memory trim stands; a reopened stream re-trims and
			// re-marks, so the only cost of a lost marker is a re-count.
			s.walErrs++
		}
	}
}

// entryAt returns the retained entry with the given sequence (s.mu held),
// or nil when it is outside the retained window.
func (s *DurableStream) entryAt(seq uint64) *entry {
	if seq < s.firstSeq || seq > s.lastSeq {
		return nil
	}
	return s.entries[seq-s.firstSeq]
}

// Stats returns an accounting snapshot.
func (s *DurableStream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *DurableStream) statsLocked() StreamStats {
	st := StreamStats{
		Name:      s.cfg.Name,
		FirstSeq:  s.firstSeq,
		LastSeq:   s.lastSeq,
		Msgs:      len(s.entries),
		Bytes:     s.bytes,
		Appended:  s.lastSeq,
		WALErrors: s.walErrs,
	}
	for i, n := range s.drops {
		st.DroppedFor[i] = n
		st.Dropped += n
	}
	return st
}

// ConsumerNames returns, sorted, the names of every consumer the stream
// knows — live ones and durable cursors awaiting a claim.
func (s *DurableStream) ConsumerNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for name := range s.consumers {
		seen[name] = true
	}
	for name := range s.floors {
		seen[name] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ConsumerStats returns the stats of every known consumer, sorted by
// name (durable cursors without a live consumer report floor and lag
// only).
func (s *DurableStream) ConsumerStats() []ConsumerStats {
	names := s.ConsumerNames()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ConsumerStats, 0, len(names))
	for _, name := range names {
		if c, ok := s.consumers[name]; ok {
			out = append(out, c.statsLocked())
			continue
		}
		fl := s.floors[name]
		out = append(out, ConsumerStats{
			Name: name, AckFloor: fl, Lag: s.lastSeq - fl,
		})
	}
	return out
}

// String summarizes the stream.
func (s *DurableStream) String() string {
	st := s.Stats()
	return fmt.Sprintf("streams.DurableStream{%s: seq [%d,%d], %d msgs, %d dropped}",
		st.Name, st.FirstSeq, st.LastSeq, st.Msgs, st.Dropped)
}
