package journal

// Compaction equivalence: Compact folds sealed segments in place —
// scanning frame headers, copying kept frames verbatim — and must
// produce exactly the segment the original fold produced by decoding
// every record and re-encoding the survivors. referenceCompact is that
// original fold, kept verbatim as the reference; the journals are
// randomized (with torn, garbage, foreign and non-minimally encoded
// segments) plus the committed fuzz seeds.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceCompact is the decode/fold/re-encode compaction over the
// sealed segments' bytes, returning the compacted segment.
func referenceCompact(segs [][]byte, retain int) ([]byte, error) {
	type ref struct{ seg, idx int }
	var all [][]Record
	for _, data := range segs {
		recs, _, derr := DecodeSegment(data)
		if derr == ErrBadMagic {
			recs = nil
		}
		all = append(all, recs)
	}

	// Fold each digest's events in order down to its final state.
	type state struct {
		pending                     ref // last submit, valid when hasPending
		done                        ref // newest done complete, valid when hasDone
		hasPending, hasDone, failed bool
	}
	states := map[string]*state{}
	var doneOrder []string // digests in order of their newest done complete
	for si, recs := range all {
		for ri, rec := range recs {
			st := states[rec.Digest]
			if st == nil {
				st = &state{}
				states[rec.Digest] = st
			}
			switch {
			case rec.Kind == KindSubmit || rec.Kind == KindBatchSubmit:
				st.pending, st.hasPending, st.failed = ref{si, ri}, true, false
			case rec.Canceled:
				// Cancellation keeps the digest pending; the marker itself
				// never survives compaction.
			case rec.Failed:
				st.hasPending, st.failed = false, true
			default: // done
				st.done, st.hasDone = ref{si, ri}, true
				st.hasPending, st.failed = false, false
				doneOrder = append(doneOrder, rec.Digest)
			}
		}
	}
	// Expire all but the newest RetainResults done digests. doneOrder
	// lists every done complete in append order; ranking by a digest's
	// last appearance ranks by its newest result.
	lastPos := map[string]int{}
	for i, d := range doneOrder {
		lastPos[d] = i
	}
	var doneDigests []string
	for d, st := range states {
		if st.hasDone {
			doneDigests = append(doneDigests, d)
		}
	}
	sort.Slice(doneDigests, func(a, b int) bool { return lastPos[doneDigests[a]] < lastPos[doneDigests[b]] })
	expired := map[string]bool{}
	if drop := len(doneDigests) - retain; drop > 0 {
		for _, d := range doneDigests[:drop] {
			expired[d] = true
		}
	}

	keep := map[ref]bool{}
	for d, st := range states {
		if st.hasPending {
			keep[st.pending] = true
		}
		if st.hasDone && !expired[d] {
			keep[st.done] = true
		}
	}
	var out []Record
	for si, recs := range all {
		for ri, rec := range recs {
			if keep[ref{si, ri}] {
				out = append(out, rec)
			}
		}
	}

	buf := []byte(Magic)
	for i := range out {
		var err error
		if buf, err = appendFrame(buf, &out[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// nonMinimalFrame encodes rec as appendFrame does, except that the
// payload length is a valid but overlong uvarint.
func nonMinimalFrame(rec Record) []byte {
	body := []byte{byte(rec.Kind), 0}
	if rec.Degraded {
		body[1] |= flagDegraded
	}
	if rec.Failed {
		body[1] |= flagFailed
	}
	if rec.Canceled {
		body[1] |= flagCanceled
	}
	body = binary.AppendUvarint(body, uint64(len(rec.Digest)))
	body = append(body, rec.Digest...)
	plen := binary.AppendUvarint(nil, uint64(len(rec.Payload)))
	plen[len(plen)-1] |= 0x80
	body = append(append(body, plen...), 0x00)
	body = append(body, rec.Payload...)
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
}

// randomSegment builds a sealed segment of random records over a small
// digest pool, then damages it one way or another.
func randomSegment(rng *rand.Rand) []byte {
	seg := []byte(Magic)
	for n := rng.Intn(25); n > 0; n-- {
		rec := Record{Digest: fmt.Sprintf("j%02d", rng.Intn(10))}
		switch rng.Intn(6) {
		case 0, 1:
			rec.Kind = KindSubmit
		case 2:
			rec.Kind = KindBatchSubmit
		default:
			rec.Kind = KindComplete
			switch rng.Intn(5) {
			case 0:
				rec.Failed = true
			case 1:
				rec.Canceled = true
			case 2:
				rec.Degraded = true
			}
		}
		if p := rng.Intn(400); p > 0 {
			rec.Payload = make([]byte, p)
			rng.Read(rec.Payload)
		}
		if rng.Intn(20) == 0 {
			seg = append(seg, nonMinimalFrame(rec)...)
			continue
		}
		var err error
		if seg, err = appendFrame(seg, &rec); err != nil {
			panic(err)
		}
	}
	switch rng.Intn(8) {
	case 0: // torn tail
		if len(seg) > len(Magic)+3 {
			seg = seg[:len(seg)-1-rng.Intn(3)]
		}
	case 1: // trailing garbage
		seg = append(seg, 0xff, 0x00, 0x13)
	case 2: // bit flip somewhere past the magic
		if len(seg) > len(Magic) {
			seg[len(Magic)+rng.Intn(len(seg)-len(Magic))] ^= 1 << rng.Intn(8)
		}
	case 3: // a foreign file
		seg = append([]byte("LFR1"), seg[len(Magic):]...)
	}
	return seg
}

// compactMatchesReference writes sealed as a journal's sealed segments
// plus one clean active segment, compacts, and requires the compacted
// segment to equal the reference fold byte for byte and the replay to
// equal the reference segment's records followed by the active ones.
func compactMatchesReference(t *testing.T, sealed [][]byte, retain int) {
	t.Helper()
	dir := t.TempDir()
	active := []byte(Magic)
	active, _ = appendFrame(active, &Record{Kind: KindSubmit, Digest: "jactive", Payload: []byte("req")})
	for i, data := range append(append([][]byte(nil), sealed...), active) {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := referenceCompact(sealed, retain)
	if err != nil {
		t.Fatal(err)
	}

	j, err := Open(Options{Dir: dir, RetainResults: retain})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(sealed) >= 2 {
		got, err := os.ReadFile(filepath.Join(dir, segmentName(uint64(len(sealed)))))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("compacted segment (%d bytes) differs from the reference fold (%d bytes)", len(got), len(want))
		}
	}
	var replayed []Record
	if err := j.Replay(func(r Record) error { replayed = append(replayed, r); return nil }); err != nil {
		t.Fatal(err)
	}
	wantRecs, _, _ := DecodeSegment(want)
	if len(sealed) < 2 { // nothing to compact: replay is the segments as written
		wantRecs = nil
		for _, data := range sealed {
			recs, _, _ := DecodeSegment(data)
			wantRecs = append(wantRecs, recs...)
		}
	}
	activeRecs, _, _ := DecodeSegment(active)
	wantRecs = append(wantRecs, activeRecs...)
	if fmt.Sprintf("%+v", replayed) != fmt.Sprintf("%+v", wantRecs) {
		t.Fatalf("replay after compaction:\n%+v\nwant\n%+v", replayed, wantRecs)
	}
}

func TestCompactMatchesReferenceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	for i := 0; i < 150; i++ {
		sealed := make([][]byte, 2+rng.Intn(4))
		for k := range sealed {
			sealed[k] = randomSegment(rng)
		}
		retain := 1 + rng.Intn(8)
		t.Run(strconv.Itoa(i), func(t *testing.T) { compactMatchesReference(t, sealed, retain) })
	}
}

// TestCompactMatchesReferenceFoldFuzzSeeds compacts each committed fuzz
// seed of FuzzJournalReplay between two clean random segments.
func TestCompactMatchesReferenceFoldFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1310))
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		seed := corpusBytes(t, raw)
		sealed := [][]byte{randomSegment(rng), seed, randomSegment(rng), seed}
		t.Run(name, func(t *testing.T) { compactMatchesReference(t, sealed, 3) })
	}
}

// corpusBytes decodes a one-value "go test fuzz v1" corpus file.
func corpusBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("unexpected corpus file: %q", raw)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}
