// Package event is the typed message plane: one canonical typed record
// (the Table I schema as a struct, not a string) that flows from the
// connector through the streams bus and the LDMS transport into DSOS
// ingest, with JSON produced lazily and exactly once at boundaries that
// actually need text (replay files, dsosql/webui output, golden tables).
//
// The package complements internal/jsonmsg rather than replacing it:
// jsonmsg owns the schema and the paper's three encoders; event owns the
// record lifecycle — lazy encode caching, lazy parse caching, batching
// with count/byte/age flush policies, pooled buffers, and a compact
// binary codec for batched TCP frames. The determinism contract is
// unchanged: encoder overhead is charged to the rank in *virtual* time at
// the connector (jsonmsg.Encoder.SimCost), so deferring the real encode
// cannot perturb any seeded table or figure.
package event

import (
	"errors"
	"sync"
	"sync/atomic"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// Record is one connector event with a lazily materialized, cached
// payload. It is bidirectional: a record built from typed fields
// (NewRecord) encodes JSON at most once, on the first Payload call; a
// record built from wire bytes (FromPayload) parses at most once, on the
// first Fields call; a record built from a binary body (FromBody, what a
// durable stream hands back) decodes at most once, on the first Fields
// or Payload call. Either way the other representation is cached, so a
// message fanned out to N stores pays for at most one conversion total —
// the old pipeline paid one encode at the connector plus one parse per
// store.
//
// Record is safe for concurrent use: the TCP transport hands one record
// to multiple goroutines.
type Record struct {
	mu      sync.Mutex
	msg     *jsonmsg.Message // typed fields; nil until first Fields on a bytes- or body-first record
	codec   jsonmsg.Encoder  // renders msg; nil defaults to FastEncoder
	payload []byte           // cached wire bytes; nil until first Payload on a typed-first record
	body    []byte           // compact binary body of a body-first record (FromBody)
	err     error            // sticky parse or decode error of a bytes- or body-first record
	counter *atomic.Uint64   // optional: counts bytes actually encoded
	spans   []obs.Span       // hop trace; only grows while obs tracing is on
	slab    *Slab            // non-nil for slab-owned records (Slab.Wrap); see DetachCarrier
}

// NewRecord builds a typed-first record. codec chooses the JSON rendering
// used if and when a text boundary asks for bytes; nil means the fast
// encoder. The message is retained, not copied — callers must not mutate
// it after publishing.
func NewRecord(msg *jsonmsg.Message, codec jsonmsg.Encoder) *Record {
	return &Record{msg: msg, codec: codec}
}

// FromPayload builds a bytes-first record around received wire bytes. The
// bytes are retained, not copied. Fields parses them on first use and
// caches the result, so N consumers of one received message parse once.
func FromPayload(data []byte) *Record {
	return &Record{payload: data}
}

// FromBody builds a body-first record around a compact binary body (the
// AppendMessage layout), the form a durable stream persists typed
// records in. The bytes are retained, not copied. Fields decodes them on
// first use; Payload renders FastEncoder JSON from the decoded fields;
// AppendBody hands them on verbatim.
func FromBody(body []byte) *Record {
	return &Record{body: body}
}

// Durable streams hand persisted binary bodies back as body-first
// records.
func init() {
	streams.RegisterBodyCodec(func(body []byte) streams.Carrier { return FromBody(body) })
}

// CountEncodes registers an optional counter that is credited with
// len(payload) each time a lazy encode actually happens (the connector
// uses this for its bytes-encoded statistic). Returns the record.
func (r *Record) CountEncodes(c *atomic.Uint64) *Record {
	r.mu.Lock()
	r.counter = c
	r.mu.Unlock()
	return r
}

// Payload returns the record's wire bytes, encoding them on first use and
// caching the result. Callers must not mutate the returned slice.
func (r *Record) Payload() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.payload == nil && r.msg == nil && r.body != nil && r.err == nil {
		r.decodeLocked()
	}
	if r.payload == nil && r.msg != nil {
		codec := r.codec
		if codec == nil {
			codec = jsonmsg.FastEncoder{}
		}
		r.payload = codec.Encode(r.msg)
		if r.counter != nil {
			r.counter.Add(uint64(len(r.payload)))
		}
	}
	return r.payload
}

// Fields returns the typed message, decoding the binary body or parsing
// the wire bytes on first use. The result is shared and cached — callers
// must not mutate it.
func (r *Record) Fields() (*jsonmsg.Message, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.msg == nil && r.err == nil {
		r.decodeLocked()
	}
	return r.msg, r.err
}

// errBodyTrailing reports a binary body longer than the record it holds.
var errBodyTrailing = errors.New("event: trailing bytes after binary body")

// decodeLocked materializes the typed fields from the body, or else the
// JSON payload, caching a failure as the sticky error (r.mu held).
func (r *Record) decodeLocked() {
	if r.body == nil {
		r.msg, r.err = jsonmsg.Parse(r.payload)
		return
	}
	m, n, err := DecodeMessage(r.body)
	if err == nil && n != len(r.body) {
		err = errBodyTrailing
	}
	if err != nil {
		r.err = err
		return
	}
	r.msg = m
}

// AppendBody implements streams.BodyCarrier: it appends the record's
// compact binary body to b — verbatim for a body-first record, encoded
// from the fields otherwise — and reports false, leaving b unchanged,
// when the record only holds wire bytes it has not parsed.
func (r *Record) AppendBody(b []byte) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.body != nil:
		return append(b, r.body...), true
	case r.msg != nil:
		return AppendMessage(b, r.msg), true
	}
	return b, false
}

// Encoded reports whether wire bytes are already materialized, without
// forcing an encode (byte-counting stores use this to stay lazy).
func (r *Record) Encoded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.payload != nil
}

// DetachCarrier implements streams.Detacher: it returns a self-owned
// record safe to retain indefinitely. A heap record returns itself; a
// slab-owned record (decoded into a pooled arena) returns a deep copy of
// its message and trace — the slab may be reset the moment its last
// reference drops, so any consumer that queues the message past the
// synchronous hand-off (the forwarder spool, a channel, a struct field)
// must detach first. Strings are shared, not copied: interned strings
// are ordinary immutable heap strings and outlive every slab.
func (r *Record) DetachCarrier() streams.Carrier {
	if r.slab == nil {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	nr := &Record{codec: r.codec, err: r.err, counter: r.counter, payload: r.payload}
	if r.msg != nil {
		m := *r.msg
		if len(m.Seg) > 0 {
			m.Seg = append([]jsonmsg.Segment(nil), m.Seg...)
		}
		nr.msg = &m
	}
	if len(r.spans) > 0 {
		nr.spans = append([]obs.Span(nil), r.spans...)
	}
	return nr
}

// Fields extracts the typed message from a streams message whatever its
// carrier form: the record's cached (or body-decoded) fields when present,
// otherwise a parse of the literal payload bytes (the legacy path, kept for raw
// PublishJSON publishers and peers that speak only JSON frames).
func Fields(m streams.Message) (*jsonmsg.Message, error) {
	if r, ok := m.Record.(*Record); ok {
		return r.Fields()
	}
	return jsonmsg.Parse(m.Data)
}

// Lazy reports whether the streams message carries a typed record (its
// payload may never have been, and may never be, JSON-encoded).
func Lazy(m streams.Message) bool {
	_, ok := m.Record.(*Record)
	return ok
}
