package streams

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Durable-stream segment codec: the byte layout of the four record kinds
// a DurableStream appends to its CRC-framed WAL segment (framing — length
// prefix, CRC-32, torn-tail recovery — is sos.AppendFrame/ReplayFrames,
// shared with the DSOS write-ahead log). Everything here is pure
// bytes-in/bytes-out so the codecs can be fuzzed directly
// (FuzzStreamCursor, FuzzRetention).
//
// Record layouts (little endian, first byte is the kind tag):
//
//	msg:    0x01 | u64 seq | u8 msgtype | u64 publishedAt (ns)
//	              | u64 producerSeq | str subject | str producer | str payload
//	cursor: 0x02 | u64 ackFloor | str consumer
//	drop:   0x03 | u8 reason | u64 newFirstSeq
//	body:   0x04 | same fields as msg, with the typed record's compact
//	              binary body (event.AppendMessage) in place of the payload
//
// where str is a u32 length prefix plus that many bytes. A msg record
// holds literal payload bytes (PublishJSON, legacy peers); a body record
// holds a typed record without ever rendering it to JSON, and the
// registered body codec turns it back into a carrier on fetch. A cursor
// record checkpoints one consumer's acked floor; replay keeps the highest floor
// per consumer (floors are monotone, so "highest" and "latest" agree —
// and replay enforces monotonicity rather than trusting file order). A
// drop record makes a retention trim durable: replay discards buffered
// entries below newFirstSeq without re-counting them, so drop accounting
// survives a crash exactly.

// Segment record kinds.
const (
	segKindMsg    = 0x01
	segKindCursor = 0x02
	segKindDrop   = 0x03
	segKindBody   = 0x04
)

// DropReason says which retention bound evicted a message.
type DropReason uint8

// Retention drop reasons.
const (
	DropByCount DropReason = iota // MaxMsgs exceeded
	DropByBytes                   // MaxBytes exceeded
	DropByAge                     // older than MaxAge
	dropReasons                   // count; keep last
)

func (r DropReason) String() string {
	switch r {
	case DropByCount:
		return "count"
	case DropByBytes:
		return "bytes"
	case DropByAge:
		return "age"
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// segMaxString bounds one string field so a corrupt length prefix cannot
// ask for gigabytes (the framing already bounds the whole record, but a
// decoder must never trust an inner length either).
const segMaxString = 16 << 20

// entry is one retained stream message plus its assigned sequence.
type entry struct {
	seq      uint64
	subject  string
	mtype    MsgType
	payload  []byte
	producer string
	pseq     uint64 // producer-assigned delivery identity (Message.Seq)
	at       time.Duration
	body     bool // payload is a binary body (segKindBody), not literal bytes
}

// message reconstructs the streams.Message the entry was appended from.
// The payload is shared, not copied: segment entries are immutable. A
// body entry comes back as the registered codec's carrier, so its
// Payload() still answers JSON and its fields decode without a parse.
func (e *entry) message() Message {
	m := Message{Tag: e.subject, Type: e.mtype, Producer: e.producer, Seq: e.pseq}
	if e.body {
		m.Record = bodyCodec(e.payload)
	} else {
		m.Data = e.payload
	}
	return m
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func takeStr(b []byte) (string, []byte, bool) {
	if len(b) < 4 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n > segMaxString || uint64(len(b)) < uint64(n) {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}

// appendMsgEntry appends e's msg (or, for a body entry, body) record to b.
func appendMsgEntry(b []byte, e *entry) []byte {
	kind := byte(segKindMsg)
	if e.body {
		kind = segKindBody
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, e.seq)
	b = append(b, byte(e.mtype))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.at))
	b = binary.LittleEndian.AppendUint64(b, e.pseq)
	b = appendStr(b, e.subject)
	b = appendStr(b, e.producer)
	b = appendBytes(b, e.payload)
	return b
}

// decodeMsgEntry parses a msg or body record (including the kind tag).
func decodeMsgEntry(b []byte) (*entry, error) {
	fail := fmt.Errorf("streams: short segment msg record")
	if len(b) < 1+8+1+8+8 {
		return nil, fail
	}
	if b[0] != segKindMsg && b[0] != segKindBody {
		return nil, fmt.Errorf("streams: segment record kind %d, want msg or body", b[0])
	}
	e := &entry{body: b[0] == segKindBody}
	e.seq = binary.LittleEndian.Uint64(b[1:])
	mt := b[9]
	if mt > byte(TypeJSON) {
		return nil, fmt.Errorf("streams: unknown message type %d in segment", mt)
	}
	e.mtype = MsgType(mt)
	at := binary.LittleEndian.Uint64(b[10:])
	if at > math.MaxInt64 {
		return nil, fmt.Errorf("streams: segment timestamp overflow")
	}
	e.at = time.Duration(at)
	e.pseq = binary.LittleEndian.Uint64(b[18:])
	rest := b[26:]
	var ok bool
	if e.subject, rest, ok = takeStr(rest); !ok {
		return nil, fail
	}
	if e.producer, rest, ok = takeStr(rest); !ok {
		return nil, fail
	}
	var payload string
	if payload, rest, ok = takeStr(rest); !ok {
		return nil, fail
	}
	if len(payload) > 0 {
		e.payload = []byte(payload)
	}
	if e.body && len(e.payload) == 0 {
		return nil, fmt.Errorf("streams: segment body record without a body")
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("streams: trailing bytes in segment msg record")
	}
	if e.seq == 0 {
		return nil, fmt.Errorf("streams: segment msg record with sequence 0")
	}
	return e, nil
}

// encodeCursorEntry renders a consumer-cursor checkpoint body.
func encodeCursorEntry(consumer string, floor uint64) []byte {
	b := make([]byte, 0, 1+8+4+len(consumer))
	b = append(b, segKindCursor)
	b = binary.LittleEndian.AppendUint64(b, floor)
	b = appendStr(b, consumer)
	return b
}

// decodeCursorEntry parses a cursor record body (including the kind tag).
func decodeCursorEntry(b []byte) (consumer string, floor uint64, err error) {
	fail := fmt.Errorf("streams: short segment cursor record")
	if len(b) < 1+8 {
		return "", 0, fail
	}
	if b[0] != segKindCursor {
		return "", 0, fmt.Errorf("streams: segment record kind %d, want cursor", b[0])
	}
	floor = binary.LittleEndian.Uint64(b[1:])
	rest := b[9:]
	var ok bool
	if consumer, rest, ok = takeStr(rest); !ok {
		return "", 0, fail
	}
	if len(rest) != 0 {
		return "", 0, fmt.Errorf("streams: trailing bytes in segment cursor record")
	}
	if consumer == "" {
		return "", 0, fmt.Errorf("streams: segment cursor record without a consumer name")
	}
	return consumer, floor, nil
}

// encodeDropEntry renders a retention-trim marker body.
func encodeDropEntry(reason DropReason, newFirst uint64) []byte {
	b := make([]byte, 0, 1+1+8)
	b = append(b, segKindDrop)
	b = append(b, byte(reason))
	b = binary.LittleEndian.AppendUint64(b, newFirst)
	return b
}

// decodeDropEntry parses a drop record body (including the kind tag).
func decodeDropEntry(b []byte) (reason DropReason, newFirst uint64, err error) {
	if len(b) != 1+1+8 {
		return 0, 0, fmt.Errorf("streams: segment drop record of %d bytes", len(b))
	}
	if b[0] != segKindDrop {
		return 0, 0, fmt.Errorf("streams: segment record kind %d, want drop", b[0])
	}
	if DropReason(b[1]) >= dropReasons {
		return 0, 0, fmt.Errorf("streams: unknown drop reason %d", b[1])
	}
	return DropReason(b[1]), binary.LittleEndian.Uint64(b[2:]), nil
}
