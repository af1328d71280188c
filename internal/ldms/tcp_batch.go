package ldms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

// Batched TCP frames carry many stream messages in one length-prefixed
// frame, amortizing the per-frame envelope and syscall cost. A batch
// frame is discriminated from the legacy single-message frame by its
// first byte: legacy frames start with the high byte of a 4-byte
// big-endian length bounded by maxFrame (16 MiB), which is always 0x00
// or 0x01, so batchMagic can never be confused for one. Both kinds may
// interleave on a single connection; ReadAnyFrame dispatches per frame.
//
// Layout:
//
//	byte 0      batchMagic (0xBB)
//	byte 1      batchVersion
//	bytes 2..5  big-endian payload length (bounded by maxFrame)
//	payload     uvarint record count, then per record:
//	            kind byte (recOpaque | recTyped)
//	            tag string, type uvarint, producer string, seq uvarint
//	            recTyped:  compact binary record (event.AppendMessage)
//	            recOpaque: uvarint length + payload bytes
//
// Typed records travel in the compact binary form — no JSON is produced
// on either side, and a body a durable stream persisted is copied in
// verbatim; records that only have bytes (raw publishers, lossy-encoder
// placeholders) travel opaque.
const (
	batchMagic   = 0xBB
	batchVersion = 1

	recOpaque = 0
	recTyped  = 1
)

// minBatchRec is the smallest possible encoded record (kind byte plus
// five single-byte envelope fields); declared counts are capped against
// it so a hostile header cannot cause a huge preallocation.
const minBatchRec = 6

// framePool recycles batch frame scratch buffers; steady-state batching
// does not allocate a frame buffer per flush.
var framePool event.BufferPool

// slabPool recycles decode slabs for the batched receive path; every
// frame decoded through a BatchDecoder borrows one slab and the caller
// releases it when the frame's messages have been handed off.
var slabPool event.SlabPool

// FramePoolCounters exposes the scratch buffer pool's Get/Put counts for
// leak assertions in tests.
func FramePoolCounters() (gets, puts uint64) { return framePool.Counters() }

// SlabPoolCounters exposes the decode slab pool's Get/return counts for
// leak assertions in tests.
func SlabPoolCounters() (gets, puts uint64) { return slabPool.Counters() }

// appendBatchString appends a length-prefixed string.
func appendBatchString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBatch appends the batch payload (count + records, no frame
// header) for msgs to b and returns the extended slice.
func AppendBatch(b []byte, msgs []streams.Message) []byte {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		kind := len(b)
		b = append(b, recTyped)
		b = appendBatchString(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Type))
		b = appendBatchString(b, m.Producer)
		b = binary.AppendUvarint(b, m.Seq)
		if bc, ok := m.Record.(streams.BodyCarrier); ok {
			var typed bool
			if b, typed = bc.AppendBody(b); typed {
				continue
			}
		}
		b[kind] = recOpaque
		payload := m.Payload()
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = append(b, payload...)
	}
	return b
}

// errFrameTooLarge marks a batch whose frame would exceed MaxFrame;
// nothing was written, so the caller may split the batch and retry.
var errFrameTooLarge = errors.New("ldms: batch frame too large")

// WriteBatchFrame writes msgs as one batch frame. An empty batch is
// rejected, mirroring WriteFrame's zero-length rule; a batch whose frame
// would exceed MaxFrame is rejected before anything is written.
func WriteBatchFrame(w io.Writer, msgs []streams.Message) error {
	if len(msgs) == 0 {
		return errors.New("ldms: empty batch frame")
	}
	buf := framePool.Get()
	buf = append(buf, batchMagic, batchVersion, 0, 0, 0, 0)
	buf = AppendBatch(buf, msgs)
	payloadLen := len(buf) - 6
	if payloadLen > maxFrame {
		framePool.Put(buf)
		return fmt.Errorf("%w (%d bytes)", errFrameTooLarge, payloadLen)
	}
	binary.BigEndian.PutUint32(buf[2:6], uint32(payloadLen))
	_, err := w.Write(buf)
	framePool.Put(buf)
	return err
}

// DecodeBatch parses a batch payload (as laid out by AppendBatch) into
// stream messages. Received typed records become typed-first
// event.Records (their JSON is produced lazily, if ever); opaque records
// become bytes-first event.Records so downstream consumers share one
// cached parse.
func DecodeBatch(payload []byte) ([]streams.Message, error) {
	off := 0
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return 0, event.ErrTruncated
		}
		off += n
		return v, nil
	}
	str := func() (string, error) {
		n, err := uvarint()
		if err != nil {
			return "", err
		}
		if n > uint64(len(payload)-off) {
			return "", event.ErrTruncated
		}
		s := string(payload[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	count, err := uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, errors.New("ldms: empty batch frame")
	}
	if count > uint64(len(payload)-off)/minBatchRec+1 {
		return nil, fmt.Errorf("ldms: batch declares %d records in %d bytes", count, len(payload))
	}
	out := make([]streams.Message, 0, count)
	for i := uint64(0); i < count; i++ {
		if off >= len(payload) {
			return nil, event.ErrTruncated
		}
		kind := payload[off]
		off++
		var m streams.Message
		if m.Tag, err = str(); err != nil {
			return nil, err
		}
		typ, err := uvarint()
		if err != nil {
			return nil, err
		}
		m.Type = streams.MsgType(typ)
		if m.Producer, err = str(); err != nil {
			return nil, err
		}
		if m.Seq, err = uvarint(); err != nil {
			return nil, err
		}
		switch kind {
		case recTyped:
			msg, n, err := event.DecodeMessage(payload[off:])
			if err != nil {
				return nil, err
			}
			off += n
			m.Record = event.NewRecord(msg, nil)
		case recOpaque:
			n, err := uvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(payload)-off) {
				return nil, event.ErrTruncated
			}
			m.Data = append([]byte(nil), payload[off:off+int(n)]...)
			off += int(n)
			if m.Type == streams.TypeJSON && n > 0 {
				m.Record = event.FromPayload(m.Data)
			}
		default:
			return nil, fmt.Errorf("ldms: unknown batch record kind %d", kind)
		}
		out = append(out, m)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("ldms: %d trailing bytes after batch", len(payload)-off)
	}
	return out, nil
}

// ReadBatchFrame reads one batch frame (the magic byte has already been
// peeked, not consumed).
func ReadBatchFrame(r io.Reader) ([]streams.Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != batchMagic {
		return nil, fmt.Errorf("ldms: not a batch frame (0x%02x)", hdr[0])
	}
	if hdr[1] != batchVersion {
		return nil, fmt.Errorf("ldms: unsupported batch version %d", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n == 0 {
		return nil, errors.New("ldms: zero-length batch frame")
	}
	if n > maxFrame {
		return nil, fmt.Errorf("ldms: oversized batch frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return DecodeBatch(payload)
}

// ReadAnyFrame reads the next frame, legacy or batch, returning its
// messages. It needs a *bufio.Reader to peek the discriminating byte.
func ReadAnyFrame(br *bufio.Reader) ([]streams.Message, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] == batchMagic {
		return ReadBatchFrame(br)
	}
	m, err := ReadFrame(br)
	if err != nil {
		return nil, err
	}
	return []streams.Message{m}, nil
}

// BatchDecoder is the zero-alloc receive side of the batched wire path:
// one per connection (it is not safe for concurrent use). It owns a
// string interner — the repetitive Table I fields stop allocating after
// the first few frames — and a reusable payload scratch buffer; decoded
// structs and slices live in a pooled Slab whose reference the caller
// holds and must Release once the frame's messages are handed off.
// Synchronous consumers need nothing more; consumers that queue a
// message past the hand-off detach it first (streams.Detach).
type BatchDecoder struct {
	in      *event.Interner
	payload []byte
}

// NewBatchDecoder returns a decoder with a fresh interner.
func NewBatchDecoder() *BatchDecoder {
	return &BatchDecoder{in: event.NewInterner()}
}

// batchReader walks a batch payload with sticky-error methods (the
// closure-based cursor in DecodeBatch costs two allocations per call;
// the method form costs none).
type batchReader struct {
	b   []byte
	off int
	err error
}

func (r *batchReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = event.ErrTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *batchReader) str(in *event.Interner) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = event.ErrTruncated
		return ""
	}
	s := in.Intern(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// DecodeBatchSlab parses a batch payload into slab-owned stream
// messages: the out-slice, record wrappers, message structs and segment
// arrays all come from slab; envelope and field strings are interned.
// Opaque records still copy their payload bytes to the heap — raw bytes
// have no typed lifecycle and downstream (durable streams) retains them.
// The messages are valid only while slab is retained.
func (d *BatchDecoder) DecodeBatchSlab(payload []byte, slab *event.Slab) ([]streams.Message, error) {
	r := batchReader{b: payload}
	count := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if count == 0 {
		return nil, errors.New("ldms: empty batch frame")
	}
	if count > uint64(len(payload)-r.off)/minBatchRec+1 {
		return nil, fmt.Errorf("ldms: batch declares %d records in %d bytes", count, len(payload))
	}
	out := slab.Out(int(count))
	for i := uint64(0); i < count; i++ {
		if r.off >= len(payload) {
			return nil, event.ErrTruncated
		}
		kind := payload[r.off]
		r.off++
		var m streams.Message
		m.Tag = r.str(d.in)
		m.Type = streams.MsgType(r.uvarint())
		m.Producer = r.str(d.in)
		m.Seq = r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		switch kind {
		case recTyped:
			msg, n, err := event.DecodeMessageSlab(payload[r.off:], slab, d.in)
			if err != nil {
				return nil, err
			}
			r.off += n
			m.Record = slab.Wrap(msg, nil)
		case recOpaque:
			n := r.uvarint()
			if r.err != nil {
				return nil, r.err
			}
			if n > uint64(len(payload)-r.off) {
				return nil, event.ErrTruncated
			}
			m.Data = append([]byte(nil), payload[r.off:r.off+int(n)]...)
			r.off += int(n)
			if m.Type == streams.TypeJSON && n > 0 {
				m.Record = event.FromPayload(m.Data)
			}
		default:
			return nil, fmt.Errorf("ldms: unknown batch record kind %d", kind)
		}
		out = append(out, m)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("ldms: %d trailing bytes after batch", len(payload)-r.off)
	}
	return out, nil
}

// ReadBatchFrameSlab reads one batch frame into a pooled slab. On
// success the caller holds the slab's reference and must Release it
// after the messages are handed off; on error no slab is returned. The
// frame payload is read into the decoder's reusable scratch buffer —
// nothing decoded references it afterward (strings are interned copies,
// opaque payloads are copied out).
func (d *BatchDecoder) ReadBatchFrameSlab(r io.Reader) ([]streams.Message, *event.Slab, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	if hdr[0] != batchMagic {
		return nil, nil, fmt.Errorf("ldms: not a batch frame (0x%02x)", hdr[0])
	}
	if hdr[1] != batchVersion {
		return nil, nil, fmt.Errorf("ldms: unsupported batch version %d", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n == 0 {
		return nil, nil, errors.New("ldms: zero-length batch frame")
	}
	if n > maxFrame {
		return nil, nil, fmt.Errorf("ldms: oversized batch frame (%d bytes)", n)
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	}
	payload := d.payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, nil, err
	}
	slab := slabPool.Get()
	msgs, err := d.DecodeBatchSlab(payload, slab)
	if err != nil {
		slab.Release()
		return nil, nil, err
	}
	return msgs, slab, nil
}

// ReadAnyFrameSlab reads the next frame, legacy or batch, into a pooled
// slab (a legacy frame's single message is placed in a slab out-slice so
// the caller's release discipline is uniform). The caller must Release
// the slab after handing the messages off.
func (d *BatchDecoder) ReadAnyFrameSlab(br *bufio.Reader) ([]streams.Message, *event.Slab, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, nil, err
	}
	if first[0] == batchMagic {
		return d.ReadBatchFrameSlab(br)
	}
	m, err := ReadFrame(br)
	if err != nil {
		return nil, nil, err
	}
	slab := slabPool.Get()
	msgs := append(slab.Out(1), m)
	return msgs, slab, nil
}

// PublishBatch sends msgs as a single batch frame.
func (c *TCPClient) PublishBatch(msgs []streams.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("ldms: client closed")
	}
	if err := WriteBatchFrame(c.bw, msgs); err != nil {
		return err
	}
	c.batchFrames.Add(1)
	return c.bw.Flush()
}
