package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"xseed"
)

// Delta log format: a sequence of self-delimiting records, each
//
//	length  uint32 LE   payload byte count
//	crc     uint32 LE   CRC-32 (IEEE) of the payload
//	payload []byte      JSON deltaRecord
//
// Records append in mutation order under the owning synopsis's lock, framed
// in a single O_APPEND write so a record is never interleaved or half-framed
// by a concurrent writer. A crash can still leave a torn tail (the final
// write cut short); replay treats any malformed tail — short header, short
// payload, CRC mismatch, implausible length — as the end of the log and
// reports how many bytes it trusted, which is exactly the prefix a restarted
// daemon resumes appending after.

const (
	recHeaderSize = 8
	// maxRecordLen bounds a single record (a subtree delta carries its XML
	// fragment inline; anything larger than this is corruption, not data).
	maxRecordLen = 64 << 20
)

// Delta ops.
const (
	opFeedback = "feedback"
	opAdd      = "subtree-add"
	opRemove   = "subtree-remove"
	opBudget   = "budget"
)

// deltaRecord is one persisted mutation. Exactly one op-specific field set
// is populated.
type deltaRecord struct {
	Op string `json:"op"`

	HET *xseed.HETDelta `json:"het,omitempty"` // opFeedback

	Context []string `json:"ctx,omitempty"` // opAdd / opRemove
	XML     string   `json:"xml,omitempty"`

	Bytes int `json:"bytes,omitempty"` // opBudget: SetBudget total
}

func encodeRecord(rec deltaRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordLen {
		// Replay rejects oversized records as corruption; writing one would
		// acknowledge a mutation that recovery then silently truncates away.
		// Fail the write loudly instead.
		return nil, fmt.Errorf("delta record %s: %d-byte payload exceeds the %d-byte record limit", rec.Op, len(payload), maxRecordLen)
	}
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderSize:], payload)
	return buf, nil
}

// applyRecord replays one delta onto a synopsis. Subtree replay re-parses
// the recorded XML fragment — deterministic, so recovered kernels are
// identical to the pre-crash ones.
func applyRecord(syn *xseed.Synopsis, rec deltaRecord) error {
	switch rec.Op {
	case opFeedback:
		if rec.HET == nil {
			return fmt.Errorf("feedback record without het delta")
		}
		syn.ApplyHETDelta(*rec.HET)
	case opAdd:
		return syn.AddSubtree(rec.Context, rec.XML)
	case opRemove:
		return syn.RemoveSubtree(rec.Context, rec.XML)
	case opBudget:
		syn.SetBudget(rec.Bytes)
	default:
		return fmt.Errorf("unknown delta op %q", rec.Op)
	}
	return nil
}

// replayResult reports what a log scan trusted and what it found after the
// trusted prefix.
type replayResult struct {
	Records  int   // valid records seen (and applied, when fn != nil)
	Good     int64 // bytes of trusted prefix
	Torn     bool  // the log ends in a malformed record
	TornWhy  string
	Trailing int64 // bytes beyond the trusted prefix
}

// scanLog reads records from r, calling fn for each valid one, stopping at
// limit bytes (<0: no limit) or the first malformed record. It never returns
// an error for a torn tail — that is expected after a crash — only for fn
// failures or I/O errors other than EOF.
func scanLog(r io.Reader, limit int64, fn func(deltaRecord) error) (replayResult, error) {
	var res replayResult
	var hdr [recHeaderSize]byte
	payload := make([]byte, 0, 256)
	for {
		if limit >= 0 && res.Good >= limit {
			return res, nil
		}
		n, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return res, nil
		}
		if err == io.ErrUnexpectedEOF {
			res.Torn, res.TornWhy, res.Trailing = true, "short record header", int64(n)
			return res, nil
		}
		if err != nil {
			return res, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxRecordLen {
			res.Torn, res.TornWhy, res.Trailing = true, fmt.Sprintf("implausible record length %d", length), recHeaderSize
			return res, nil
		}
		// The length is only a claim until its bytes arrive: the buffer at
		// most doubles per read, so a lone header cannot claim 64 MiB.
		payload = payload[:0]
		for err == nil && len(payload) < int(length) {
			if len(payload) == cap(payload) {
				payload = slices.Grow(payload, max(len(payload), 256))
			}
			n, err = io.ReadFull(r, payload[len(payload):min(cap(payload), int(length))])
			payload = payload[:len(payload)+n]
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			res.Torn, res.TornWhy, res.Trailing = true, "short record payload", recHeaderSize+int64(len(payload))
			return res, nil
		}
		if err != nil {
			return res, err
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			res.Torn, res.TornWhy = true, fmt.Sprintf("checksum mismatch at offset %d", res.Good)
			res.Trailing = recHeaderSize + int64(length)
			return res, nil
		}
		var rec deltaRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			res.Torn, res.TornWhy = true, fmt.Sprintf("undecodable record at offset %d: %v", res.Good, err)
			res.Trailing = recHeaderSize + int64(length)
			return res, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, fmt.Errorf("replay record %d: %w", res.Records, err)
			}
		}
		res.Records++
		res.Good += recHeaderSize + int64(length)
	}
}

// scanLogFile is scanLog over a file path; a missing file is an empty log.
// Trailing counts everything in the file past the trusted prefix, not just
// the first malformed record.
func scanLogFile(path string, limit int64, fn func(deltaRecord) error) (replayResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return replayResult{}, nil
	}
	if err != nil {
		return replayResult{}, err
	}
	defer f.Close()
	res, err := scanLog(f, limit, fn)
	if err != nil {
		return res, err
	}
	if fi, serr := f.Stat(); serr == nil && fi.Size() > res.Good {
		res.Trailing = fi.Size() - res.Good
	}
	return res, err
}
