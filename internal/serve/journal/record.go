// Package journal is the durability layer of the Litmus assessment
// service: a stdlib-only, append-only binary journal of job submissions
// and completions. The serve tier writes one record per state
// transition; on boot it replays the journal so completed results
// repopulate the result cache and unfinished jobs are re-enqueued. The
// determinism contract (canonical request digest → bit-identical result
// bytes) makes replay safe by construction: a replayed result can never
// differ from a recomputed one, so the journal only ever skips work — it
// cannot change an answer.
//
// # Segment format (version 1)
//
// A journal is a directory of segment files named journal-<seq>.ljr
// with a monotonically increasing, zero-padded sequence number
// (lexicographic order is chronological). A segment is a 4-byte magic
// "LJR1" followed by zero or more frames, in the spirit of the LFR1
// flight-recorder encoding (compact varints, self-describing segments):
//
//	frame:
//	  bodyLen  uvarint      length of body in bytes
//	  body     bodyLen bytes
//	  crc      4 bytes      IEEE CRC-32 of body, little-endian
//	body:
//	  kind     1 byte       1 submit, 2 complete, 3 batch-submit
//	  flags    1 byte       bit0 degraded, bit1 failed, bit2 canceled
//	  digest   uvarint len + bytes   canonical job digest (≤ 128 bytes)
//	  payload  uvarint len + bytes   (≤ 64 MiB)
//
// The payload is the normalized request JSON for submit records and the
// canonical result bytes for complete records (the error text for
// failed completes). Each Append issues one write syscall for the whole
// frame, so a crash can only tear the tail of the active segment; Open
// truncates a torn or corrupt tail back to the last clean frame
// boundary. The decoder never panics on malformed input — truncated
// frames, bit flips and garbage all surface as a *CorruptError (or
// ErrBadMagic for a foreign file).
//
// # Rotation and compaction
//
// Append rotates to a fresh segment when the active one exceeds
// Options.MaxSegmentBytes, then kicks the background compactor: sealed
// segments are rewritten into one, dropping superseded entries (every
// complete for a digest but the newest; every submit whose digest has a
// terminal complete) and expiring all but the newest
// Options.RetainResults completed results — mirroring the serve tier's
// cache/retention bounds. Compaction writes a temporary file and
// renames it into place, so a crash mid-compaction leaves either the
// old segments or the compacted one, never a mix; stale temporaries are
// removed on Open.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Magic identifies a version-1 journal segment.
const Magic = "LJR1"

// Record kinds.
type Kind uint8

const (
	// KindSubmit records a single assessment entering the queue; the
	// payload is the normalized AssessRequest JSON, sufficient to
	// recompile and re-enqueue the job on replay.
	KindSubmit Kind = 1
	// KindComplete records a terminal state for a digest: a finished
	// result (payload = canonical result bytes), a deterministic failure
	// (Failed set, payload = error text), or a shutdown cancellation
	// (Canceled set — the job is still pending work and is re-enqueued
	// on replay).
	KindComplete Kind = 2
	// KindBatchSubmit records a batch job entering the queue; the
	// payload is the BatchAssessRequest JSON.
	KindBatchSubmit Kind = 3
)

func (k Kind) valid() bool { return k >= KindSubmit && k <= KindBatchSubmit }

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindComplete:
		return "complete"
	case KindBatchSubmit:
		return "batch-submit"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flag bits.
const (
	flagDegraded = 1 << 0
	flagFailed   = 1 << 1
	flagCanceled = 1 << 2
	flagAll      = flagDegraded | flagFailed | flagCanceled
)

// Size bounds: a digest is a prefixed sha256 hex string (65 bytes);
// payloads are request JSON or canonical result documents. The bounds
// exist so a corrupt length varint cannot demand an absurd allocation.
const (
	maxDigestLen  = 128
	maxPayloadLen = 64 << 20
	maxBodyLen    = maxPayloadLen + maxDigestLen + 32
)

// Record is one journal entry.
type Record struct {
	Kind   Kind
	Digest string
	// Degraded marks a complete whose assessment finished with isolated
	// per-KPI/per-element failures (the serve tier's degraded bit).
	Degraded bool
	// Failed marks a complete whose job failed deterministically; the
	// payload carries the error text instead of result bytes.
	Failed bool
	// Canceled marks a complete cut short by shutdown or deadline — the
	// work is still pending and replay re-enqueues it.
	Canceled bool
	// Payload is the record body: normalized request JSON for submits,
	// canonical result bytes (or error text) for completes.
	Payload []byte
}

// ErrBadMagic reports a file that is not a version-1 journal segment.
var ErrBadMagic = errors.New("journal: bad segment magic")

// CorruptError reports a malformed frame: a torn tail (partial write),
// a failed checksum, or an out-of-bounds length. Offset is the byte
// position of the first bad frame — everything before it decoded
// cleanly and is safe to keep.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendFrame encodes rec as one frame onto buf, growing buf at most
// once: the frame is written in place and checksummed where it lies.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	if !rec.Kind.valid() {
		return buf, fmt.Errorf("journal: invalid record kind %d", rec.Kind)
	}
	if len(rec.Digest) > maxDigestLen {
		return buf, fmt.Errorf("journal: digest length %d exceeds %d", len(rec.Digest), maxDigestLen)
	}
	if len(rec.Payload) > maxPayloadLen {
		return buf, fmt.Errorf("journal: payload length %d exceeds %d", len(rec.Payload), maxPayloadLen)
	}
	var flags byte
	if rec.Degraded {
		flags |= flagDegraded
	}
	if rec.Failed {
		flags |= flagFailed
	}
	if rec.Canceled {
		flags |= flagCanceled
	}
	bodyLen := 2 + uvarintLen(uint64(len(rec.Digest))) + len(rec.Digest) + uvarintLen(uint64(len(rec.Payload))) + len(rec.Payload)
	buf = slices.Grow(buf, uvarintLen(uint64(bodyLen))+bodyLen+4)
	buf = binary.AppendUvarint(buf, uint64(bodyLen))
	start := len(buf)
	buf = append(buf, byte(rec.Kind), flags)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Digest)))
	buf = append(buf, rec.Digest...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Payload)))
	buf = append(buf, rec.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	return buf, nil
}

// frame is one checksummed frame of a segment, parsed in place: digest
// and payload alias the frame's bytes.
type frame struct {
	kind            Kind
	flags           byte
	digest, payload []byte
	// minimal reports that every length is a minimal uvarint, so the
	// frame's bytes are exactly what appendFrame writes for the record.
	minimal bool
}

// record copies the frame out into a Record.
func (f *frame) record() Record {
	rec := Record{
		Kind:     f.kind,
		Digest:   string(f.digest),
		Degraded: f.flags&flagDegraded != 0,
		Failed:   f.flags&flagFailed != 0,
		Canceled: f.flags&flagCanceled != 0,
	}
	if len(f.payload) > 0 {
		rec.Payload = append([]byte(nil), f.payload...)
	}
	return rec
}

// parseBody parses one frame body in place. The caller has already
// verified the checksum, so errors here mean the frame was written by a
// different (or broken) encoder, not torn by a crash.
func parseBody(body []byte) (frame, error) {
	var f frame
	if len(body) < 2 {
		return f, fmt.Errorf("body too short (%d bytes)", len(body))
	}
	f.kind, f.flags = Kind(body[0]), body[1]
	if !f.kind.valid() {
		return f, fmt.Errorf("invalid record kind %d", body[0])
	}
	if f.flags&^byte(flagAll) != 0 {
		return f, fmt.Errorf("unknown flag bits %#x", f.flags)
	}
	rest := body[2:]

	dlen, dn := binary.Uvarint(rest)
	if dn <= 0 || dlen > maxDigestLen || uint64(len(rest)-dn) < dlen {
		return f, fmt.Errorf("bad digest length")
	}
	rest = rest[dn:]
	f.digest = rest[:dlen]
	rest = rest[dlen:]

	plen, pn := binary.Uvarint(rest)
	if pn <= 0 || plen > maxPayloadLen || uint64(len(rest)-pn) != plen {
		return f, fmt.Errorf("bad payload length")
	}
	f.payload = rest[pn:]
	f.minimal = dn == uvarintLen(dlen) && pn == uvarintLen(plen)
	return f, nil
}

// frameScanner reads a segment's frames in order without holding the
// segment: each frame's bytes land in one reused buffer. DecodeSegment
// and compaction both parse through it.
type frameScanner struct {
	r    *bufio.Reader
	size int64 // segment length in bytes
	off  int64 // offset of the next frame: the end of the clean prefix
	buf  []byte
}

// newFrameScanner starts a scan of the size-byte segment r, checking
// its magic (ErrBadMagic for anything else).
func newFrameScanner(r io.Reader, size int64) (*frameScanner, error) {
	s := &frameScanner{r: bufio.NewReaderSize(r, int(min(size, 64<<10))), size: size}
	magic, err := s.r.Peek(len(Magic))
	if err != nil || string(magic) != Magic {
		return nil, ErrBadMagic
	}
	_, _ = s.r.Discard(len(Magic))
	s.off = int64(len(Magic))
	return s, nil
}

// next returns the next frame, its bytes valid until the following
// call: io.EOF at the clean end of the segment, a *CorruptError at the
// first malformed frame, or a read error. It never panics and never
// allocates for a length the segment cannot hold.
func (s *frameScanner) next() (frame, error) {
	if s.off >= s.size {
		return frame{}, io.EOF
	}
	head, _ := s.r.Peek(binary.MaxVarintLen64) // fewer at the segment's end
	blen, n := binary.Uvarint(head)
	if n <= 0 {
		return frame{}, &CorruptError{Offset: s.off, Reason: "truncated frame length"}
	}
	if blen > maxBodyLen {
		return frame{}, &CorruptError{Offset: s.off, Reason: fmt.Sprintf("frame length %d exceeds bound", blen)}
	}
	if uint64(s.size-s.off-int64(n)) < blen+4 {
		return frame{}, &CorruptError{Offset: s.off, Reason: "torn frame"}
	}
	size := n + int(blen) + 4
	s.buf = slices.Grow(s.buf[:0], size)[:size]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		return frame{}, fmt.Errorf("journal: reading segment: %w", err)
	}
	body := s.buf[n : n+int(blen)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(s.buf[n+int(blen):]) {
		return frame{}, &CorruptError{Offset: s.off, Reason: "checksum mismatch"}
	}
	f, err := parseBody(body)
	if err != nil {
		return frame{}, &CorruptError{Offset: s.off, Reason: err.Error()}
	}
	f.minimal = f.minimal && n == uvarintLen(blen)
	s.off += int64(size)
	return f, nil
}

// DecodeSegment parses one segment's bytes. It returns every record up
// to the first malformed frame plus the byte offset of the clean prefix
// (the truncation point a repair should cut at). err is nil when the
// whole segment decoded; ErrBadMagic when the file is not a journal
// segment (offset 0); otherwise a *CorruptError positioned at the first
// bad frame. The decoder never panics, whatever the input.
func DecodeSegment(data []byte) (recs []Record, clean int64, err error) {
	s, err := newFrameScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, 0, err
	}
	for {
		f, err := s.next()
		if err == io.EOF {
			return recs, s.off, nil
		}
		if err != nil {
			return recs, s.off, err
		}
		recs = append(recs, f.record())
	}
}
