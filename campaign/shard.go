package campaign

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ctsan/internal/metrics"
)

// Shard-record wire format. A sharded campaign (cmd/ctsan) checkpoints
// every completed point as one JSONL line in a checkpoint.Store:
//
//	{"crc":"<crc32c hex>","body":{"v":1,"study":...,"index":...,
//	  "point_hash":"sha256:...","seed":...,"result":{...},"digest":"<base64>"}}
//
// The CRC is computed over the exact body bytes, so any bit flip in a
// stored record is detected at decode time and the record is discarded —
// the point is simply re-executed on resume, never folded in corrupted.
// The body carries the result twice, deliberately: "result" is the
// public Result JSON (the very bytes a 1-process `campaign.JSONLWriter`
// would emit for this point, re-emitted verbatim by merge so sharded and
// unsharded output are byte-identical), and "digest" is the full
// metrics.Digest binary encoding, so merged statistics — not just the
// flattened Summary — survive the process boundary bit-exactly.
//
// The writer (appendShardRecord) defines the layout: the keys above in
// that order, no whitespace, lowercase CRC hex, strings escaped as
// encoding/json escapes them, integers in decimal, the result compact,
// the digest in padded standard base64. The reader (DecodeShardRecord)
// accepts that layout and nothing else — whatever it accepts, the writer
// reproduces byte for byte — so a record is read in one walk over its
// fields rather than decoded as general JSON.
//
// ShardRecordVersion bumps are deliberate breaks: decoding rejects
// unknown versions, which turns a format change into "re-run the shard"
// instead of a wrong merge.

// ShardRecordVersion is the current shard-record body version.
const ShardRecordVersion = 1

// crcTable is the Castagnoli polynomial, the standard choice for storage
// checksums (hardware-accelerated on current CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ShardRecord is the decoded body of one checkpointed point result.
type ShardRecord struct {
	V     int    `json:"v"`
	Study string `json:"study"`
	// Index is the point's position in the full (unsharded) study grid;
	// merge folds records in Index order (determinism rule).
	Index int `json:"index"`
	// PointHash is PointHash() of the frozen point this result belongs
	// to; resume and merge reject records whose hash does not match the
	// point at Index.
	PointHash string `json:"point_hash"`
	// Seed is the point's effective seed, duplicated out of the result
	// for cheap validation.
	Seed uint64 `json:"seed"`
	// Result is the public Result JSON, byte-for-byte what the in-process
	// JSONL sink emits.
	Result json.RawMessage `json:"result"`
	// Digest is the binary metrics.Digest encoding ([]byte marshals as
	// base64 in JSON).
	Digest []byte `json:"digest"`
}

// EncodeShardRecord serializes one completed point as a checkpoint line
// (without trailing newline). pointHash must be the PointHash of the
// frozen point that produced res.
func EncodeShardRecord(pointHash string, res *Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("campaign: encode nil result")
	}
	return encodeShardRecord(pointHash, res.Index, res)
}

// encodeShardRecord is EncodeShardRecord of res as the point at grid
// index `index`, without touching res — a sub-study's result is still
// owned by the run that will emit it under its sub-study index.
func encodeShardRecord(pointHash string, index int, res *Result) ([]byte, error) {
	if res.digest == nil {
		return nil, fmt.Errorf("campaign: result of point %d carries no digest", index)
	}
	at := *res
	at.Index = index
	resultJSON, err := json.Marshal(&at)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode result: %w", err)
	}
	digestBin, err := res.digest.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("campaign: encode digest: %w", err)
	}
	// 160 bytes hold the keys, the quotes and two 20-digit integers.
	size := 160 + len(res.Study) + len(pointHash) + len(resultJSON) + base64.StdEncoding.EncodedLen(len(digestBin))
	return appendShardRecord(make([]byte, 0, size), res.Study, index, pointHash, res.Seed, resultJSON, digestBin), nil
}

// The fixed parts of a record line, in writing order. recordHead is
// written with a placeholder CRC, patched once the body is complete.
const (
	crcKey     = `{"crc":"`
	bodyKey    = `","body":`
	versionKey = `{"v":`
	studyKey   = `,"study":`
	recordHead = crcKey + "00000000" + bodyKey + versionKey + "1" + studyKey
	indexKey   = `,"index":`
	hashKey    = `,"point_hash":`
	seedKey    = `,"seed":`
	resultKey  = `,"result":`
	digestKey  = `,"digest":"`
	bodyEnd    = `"}`
	// bodyAt is the offset of the body in a line.
	bodyAt = len(crcKey) + 8 + len(bodyKey)
)

// appendShardRecord appends the record line of the given fields to dst.
// result must be compact JSON as json.Marshal writes it; it is copied
// verbatim.
func appendShardRecord(dst []byte, study string, index int, pointHash string, seed uint64, result, digest []byte) []byte {
	start := len(dst)
	dst = append(dst, recordHead...)
	dst = appendJSONString(dst, study)
	dst = append(dst, indexKey...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, hashKey...)
	dst = appendJSONString(dst, pointHash)
	dst = append(dst, seedKey...)
	dst = strconv.AppendUint(dst, seed, 10)
	dst = append(dst, resultKey...)
	dst = append(dst, result...)
	dst = append(dst, digestKey...)
	dst = base64.StdEncoding.AppendEncode(dst, digest)
	dst = append(dst, bodyEnd...)
	putCRC(dst[start+len(crcKey):], crc32.Checksum(dst[start+bodyAt:], crcTable))
	return append(dst, '}')
}

// A stored record is reused under another identity: what a result says
// of its point is content-addressed, and only its identity — study,
// point label and grid index, the first three fields of the result
// object — belongs to the study that reuses it. cutHit cuts a record
// after that identity, and ResultLine writes the new identity in front
// of the rest, escaped as json.Marshal escapes it: the bytes are those
// of encoding the re-identified Result anew, made without decoding or
// marshaling it.

// The keys of a Result's identity, as json.Marshal writes them.
const (
	resultHead = `{"study":`
	pointKey   = `,"point":`
	engineKey  = `,"engine":`
)

// cutHit returns the result of a record line laid out as
// appendShardRecord writes it, from the key after its identity to its
// end: `,"engine":…}`. No key can occur inside a string json.Marshal
// wrote, where every quote is escaped, so the first occurrence of a key
// after the key before it is that key. ok is false for a line without
// that layout.
func cutHit(line []byte) (rest []byte, ok bool) {
	if len(line) < len(recordHead) || string(line[:len(crcKey)]) != crcKey ||
		string(line[len(crcKey)+8:len(recordHead)]) != recordHead[len(crcKey)+8:] || !bytes.HasSuffix(line, []byte(bodyEnd+"}")) {
		return nil, false
	}
	next := func(from int, key string) int {
		if from < 0 {
			return -1
		}
		if i := bytes.Index(line[from:], []byte(key)); i >= 0 {
			return from + i
		}
		return -1
	}
	h := next(len(recordHead), hashKey)
	r := next(h, resultKey)
	e := next(r, engineKey)
	d := next(e, digestKey)
	if d < 0 || !bytes.HasPrefix(line[r+len(resultKey):], []byte(resultHead)) {
		return nil, false
	}
	return line[e:d], true
}

// ResultLine returns the JSONL line — the JSON encoding and a newline —
// of the result in a record line, identified as point `index` of the
// study: the identity as json.Marshal writes the first three fields of a
// Result, then the rest of the stored result. ok is false for a line not
// laid out as appendShardRecord writes it. The line owns its bytes.
func ResultLine(record []byte, study, point string, index int) (line []byte, ok bool) {
	rest, ok := cutHit(record)
	if !ok {
		return nil, false
	}
	// The keys, the quotes, a 20-digit index and the newline, for strings
	// json.Marshal writes as themselves.
	size := len(resultHead) + len(pointKey) + len(indexKey) + 4 + 20 + len(study) + len(point) + len(rest) + 1
	dst := append(make([]byte, 0, size), resultHead...)
	dst = appendJSONString(dst, study)
	dst = append(dst, pointKey...)
	dst = appendJSONString(dst, point)
	dst = append(dst, indexKey...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, rest...)
	return append(dst, '\n'), true
}

// putCRC writes crc as 8 lowercase hex digits, %08x.
func putCRC(dst []byte, crc uint32) {
	const hex = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[i] = hex[crc&0xf]
		crc >>= 4
	}
}

// plainString reports whether s is written by json.Marshal as itself
// between quotes: ASCII that it does not escape.
func plainString[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !rawASCII[c] {
			return false
		}
	}
	return true
}

// rawASCII and stringEscapes are how json.Marshal writes a string, asked
// of json.Marshal itself: rawASCII marks the ASCII bytes it writes as
// themselves; stringEscapes holds every escape it writes (without the
// backslash) — for the other ASCII bytes, for U+2028 and U+2029, and the
// \ufffd that stands for a byte of invalid UTF-8.
var rawASCII, stringEscapes = func() (raw [utf8.RuneSelf]bool, escapes map[string]bool) {
	escapes = map[string]bool{}
	for _, s := range []string{"\u2028", "\u2029", "\xff"} {
		q, _ := json.Marshal(s) // a string always marshals
		escapes[string(q[2:len(q)-1])] = true
	}
	for c := range raw {
		q, _ := json.Marshal(string(rune(c))) // a string always marshals
		if raw[c] = len(q) == 3; !raw[c] {
			escapes[string(q[2:len(q)-1])] = true
		}
	}
	return raw, escapes
}()

// marshaledString reports whether the quoted JSON string q is what
// json.Marshal writes for some string: only its escapes, and raw only
// the ASCII it does not escape and valid UTF-8 other than U+2028 and
// U+2029.
func marshaledString(q []byte) bool {
	s := q[1 : len(q)-1]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			n := 2
			if i+1 < len(s) && s[i+1] == 'u' {
				n = 6
			}
			if i+n > len(s) || !stringEscapes[string(s[i+1:i+n])] {
				return false
			}
			i += n
		case c < utf8.RuneSelf:
			if !rawASCII[c] {
				return false
			}
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				return false
			}
			i += size
		}
	}
	return true
}

// appendJSONString appends s as json.Marshal writes it.
func appendJSONString(dst []byte, s string) []byte {
	if plainString(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	quoted, _ := json.Marshal(s) // a string always marshals
	return append(dst, quoted...)
}

// DecodeShardRecord parses and verifies one checkpoint line: the layout,
// the CRC over the body bytes, the record version, a grid index that
// fits an int, a seed that fits a uint64, a result that is a valid,
// compact JSON object laid out as a Result's — its identity first, so
// ResultLine can re-identify it — and a digest that is base64. It does
// not know which point the record *should* belong to — that is the
// caller's check, against PointHash. The record owns its bytes: nothing
// in it shares line's array.
func DecodeShardRecord(line []byte) (*ShardRecord, error) {
	f, err := checkRecord(line)
	if err != nil {
		return nil, err
	}
	rec := &ShardRecord{V: ShardRecordVersion, Index: f.index, Seed: f.seed}
	if rec.Study, err = unquote(f.study); err != nil {
		return nil, err
	}
	if rec.PointHash, err = unquote(f.hash); err != nil {
		return nil, err
	}
	buf := make([]byte, len(f.result)+base64.StdEncoding.DecodedLen(len(f.digest)))
	copy(buf, f.result)
	n, err := strictBase64.Decode(buf[len(f.result):], f.digest)
	if err != nil {
		return nil, err
	}
	rec.Result = buf[:len(f.result):len(f.result)]
	rec.Digest = buf[len(f.result) : len(f.result)+n : len(f.result)+n]
	return rec, nil
}

// CheckShardRecord is DecodeShardRecord without a copy: it accepts
// exactly the lines DecodeShardRecord accepts, and returns the record's
// grid index, its point hash and its result JSON — which is line's own
// bytes, not a copy. It is the check of a reader that keeps the line
// itself, or only where it lies, rather than the decoded record.
func CheckShardRecord(line []byte) (index int, pointHash string, result []byte, err error) {
	f, err := checkRecord(line)
	if err != nil {
		return 0, "", nil, err
	}
	if pointHash, err = unquote(f.hash); err != nil {
		return 0, "", nil, err
	}
	return f.index, pointHash, f.result, nil
}

// recordFields are the fields of a checked record line, each sharing
// the line's array: study and hash as the quoted JSON strings the writer
// wrote, digest as its base64 text.
type recordFields struct {
	study, hash    []byte
	index          int
	seed           uint64
	result, digest []byte
}

// checkRecord runs every check DecodeShardRecord makes on line, copying
// none of it.
func checkRecord(line []byte) (recordFields, error) {
	if len(line) < bodyAt+1 || string(line[:len(crcKey)]) != crcKey ||
		string(line[len(crcKey)+8:bodyAt]) != bodyKey || line[len(line)-1] != '}' {
		return recordFields{}, fmt.Errorf("campaign: shard record envelope: not a {\"crc\":\"<8 hex>\",\"body\":{...}} line")
	}
	stored, body := line[len(crcKey):len(crcKey)+8], line[bodyAt:len(line)-1]
	var got [8]byte
	putCRC(got[:], crc32.Checksum(body, crcTable))
	if string(got[:]) != string(stored) {
		return recordFields{}, fmt.Errorf("campaign: shard record CRC mismatch (stored %s, computed %s)", stored, string(got[:]))
	}
	f, err := readBody(body)
	if err != nil {
		return recordFields{}, err
	}
	if _, ok := cutHit(line); !ok {
		return recordFields{}, fmt.Errorf("campaign: shard record result is not laid out as a Result's JSON (study, point, index, engine, ...)")
	}
	return f, nil
}

// strictBase64 decodes only the padded standard base64 the writer
// emits: nonzero trailing bits are an error, not ignored.
var strictBase64 = base64.StdEncoding.Strict()

// readBody walks a CRC-checked record body in the writer's key order.
func readBody(body []byte) (recordFields, error) {
	r := recordReader{rest: body}
	if v := r.number(versionKey, math.MaxInt); r.err == nil && v != ShardRecordVersion {
		return recordFields{}, fmt.Errorf("campaign: unsupported shard record version %d", v)
	}
	f := recordFields{study: r.string(studyKey)}
	f.index = int(r.number(indexKey, math.MaxInt))
	f.hash = r.string(hashKey)
	f.seed = r.number(seedKey, math.MaxUint64)
	r.key(resultKey)
	if r.err != nil {
		return recordFields{}, r.err
	}
	// The digest is the last field and base64 holds no quote, so its
	// opening quote is the last one before the closing `"}`.
	rest := r.rest
	q := -1
	if len(rest) >= len(bodyEnd) && string(rest[len(rest)-len(bodyEnd):]) == bodyEnd {
		q = bytes.LastIndexByte(rest[:len(rest)-len(bodyEnd)], '"')
	}
	if q < 0 || !bytes.HasSuffix(rest[:q+1], []byte(digestKey)) {
		return recordFields{}, fmt.Errorf("campaign: shard record body: no %s...%s tail", digestKey, bodyEnd)
	}
	f.result, f.digest = rest[:q+1-len(digestKey)], rest[q+1:len(rest)-len(bodyEnd)]
	if len(f.result) == 0 {
		return recordFields{}, fmt.Errorf("campaign: shard record with no result")
	}
	if f.result[0] != '{' || !json.Valid(f.result) || !compactJSON(f.result) {
		return recordFields{}, fmt.Errorf("campaign: shard record result is not a compact JSON object")
	}
	if !paddedBase64(f.digest) {
		return recordFields{}, fmt.Errorf("campaign: shard record digest is not padded base64")
	}
	return f, nil
}

// paddedBase64 reports whether strictBase64 decodes all of b, decoding
// it piecewise into a buffer on the stack: padding only at the end, no
// line breaks (which the decoder would skip), no stray trailing bits.
func paddedBase64(b []byte) bool {
	const piece = 1024 // a whole number of 4-byte quanta
	var buf [piece / 4 * 3]byte
	for len(b) > 0 {
		p := b[:min(len(b), piece)]
		if len(p) < len(b) && bytes.IndexByte(p, '=') >= 0 {
			return false
		}
		n, err := strictBase64.Decode(buf[:], p)
		if err != nil || base64.StdEncoding.EncodedLen(n) != len(p) {
			return false
		}
		b = b[len(p):]
	}
	return true
}

// unquote returns the value of a JSON string the reader checked.
func unquote(q []byte) (string, error) {
	if plainString(q[1 : len(q)-1]) {
		return string(q[1 : len(q)-1]), nil
	}
	var s string
	if err := json.Unmarshal(q, &s); err != nil {
		return "", fmt.Errorf("campaign: shard record body: %v", err)
	}
	return s, nil
}

// recordReader consumes a record body field by field. The first failure
// sticks in err and turns every later step into a no-op.
type recordReader struct {
	rest []byte
	err  error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("campaign: shard record body: "+format, args...)
	}
}

// key consumes the literal k.
func (r *recordReader) key(k string) bool {
	if r.err != nil {
		return false
	}
	if len(r.rest) < len(k) || string(r.rest[:len(k)]) != k {
		r.fail("want %s", k)
		return false
	}
	r.rest = r.rest[len(k):]
	return true
}

// number consumes the key k and an unsigned JSON integer no larger than
// max: digits without sign or leading zero.
func (r *recordReader) number(k string, max uint64) uint64 {
	if !r.key(k) {
		return 0
	}
	i := 0
	for i < len(r.rest) && '0' <= r.rest[i] && r.rest[i] <= '9' {
		i++
	}
	digits := r.rest[:i]
	if len(digits) == 0 || (digits[0] == '0' && len(digits) > 1) {
		r.fail("%s is not an unsigned integer without leading zeros", k)
		return 0
	}
	var v uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if v > (max-d)/10 {
			r.fail("%s %s out of range", k, digits)
			return 0
		}
		v = v*10 + d
	}
	r.rest = r.rest[i:]
	return v
}

// string consumes the key k and a JSON string written as json.Marshal
// writes it, returning it quoted, as written.
func (r *recordReader) string(k string) []byte {
	if !r.key(k) {
		return nil
	}
	end := -1
	if len(r.rest) > 0 && r.rest[0] == '"' {
		for i := 1; i < len(r.rest); i++ {
			if r.rest[i] == '\\' {
				i++
			} else if r.rest[i] == '"' {
				end = i + 1
				break
			}
		}
	}
	if end < 0 {
		r.fail("%s is not a string", k)
		return nil
	}
	quoted := r.rest[:end]
	r.rest = r.rest[end:]
	if !plainString(quoted[1:end-1]) && !marshaledString(quoted) {
		r.fail("%s is not escaped as the writer escapes it", k)
	}
	return quoted
}

// compactJSON reports whether the valid JSON b is what json.Marshal
// makes of it: no whitespace between tokens and none of the characters
// it escapes (<, >, &, U+2028, U+2029) written raw.
func compactJSON(b []byte) bool {
	inString := false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xe2 && i+2 < len(b) && b[i+1] == 0x80 && (b[i+2] == 0xa8 || b[i+2] == 0xa9):
			return false
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return true
}

// DecodeResult reconstructs the full Result from the record, including
// its live latency digest (restored bit-exactly from the binary
// encoding), so merged results support Quantile/Samples and digest
// folding just like results from an in-process run. The engine-native
// Raw() detail does not cross the process boundary and is nil.
func (r *ShardRecord) DecodeResult() (*Result, error) {
	var res Result
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return nil, fmt.Errorf("campaign: shard record result: %w", err)
	}
	var d metrics.Digest
	if err := d.UnmarshalBinary(r.Digest); err != nil {
		return nil, err
	}
	res.digest = &d
	if res.Index != r.Index || res.Seed != r.Seed {
		return nil, fmt.Errorf("campaign: shard record result disagrees with its envelope (index %d/%d, seed %d/%d)",
			res.Index, r.Index, res.Seed, r.Seed)
	}
	return &res, nil
}

// StudyPointHashes computes the PointHash of every point of a (frozen)
// study, indexed by grid position. A study Frozen made has them already.
func StudyPointHashes(s *Study) ([]string, error) {
	if s == nil {
		return nil, fmt.Errorf("campaign: nil study")
	}
	if g := s.grid(); g != nil {
		return slices.Clone(g.hashes), nil
	}
	return pointHashes(s.Points)
}

// VerifyShardRecord decodes one checkpoint line and verifies it belongs
// to the study whose per-index point hashes are given: envelope shape and
// CRC (DecodeShardRecord), grid index in range, and PointHash match at
// that index. It is the per-record acceptance check of everything that
// ingests records produced elsewhere — resume, merge, and the fleet
// coordinator verifying worker uploads.
func VerifyShardRecord(hashes []string, line []byte) (*ShardRecord, error) {
	rec, err := DecodeShardRecord(line)
	if err != nil {
		return nil, err
	}
	if rec.Index < 0 || rec.Index >= len(hashes) {
		return nil, fmt.Errorf("campaign: shard record index %d outside study of %d points", rec.Index, len(hashes))
	}
	if hashes[rec.Index] != rec.PointHash {
		return nil, fmt.Errorf("campaign: shard record at index %d carries hash %s, study expects %s", rec.Index, rec.PointHash, hashes[rec.Index])
	}
	return rec, nil
}

// RunRecords executes the listed grid indices of a frozen study as a
// sub-study and encodes each result as the shard record of its grid
// index. hashes are the study's point hashes (StudyPointHashes), passed
// in so a caller that runs many ranges of one study hashes it once.
// indices must be non-empty, increasing and inside the grid; they arrive
// from a command line or over HTTP, so this is their one check. The
// frozen study must be the *full* grid (records carry full-grid
// indices); opts typically just cap workers, since seeds and replica
// counts are already pinned by Frozen.
//
// emit receives each record line the moment its point completes, on the
// worker that ran it — not when the point's turn to be emitted comes:
// points start in the study's start order (see Run), so a point may
// complete while a lower index still runs. Calls are serialized and come
// in completion order. An error from emit fails the run. What a line
// becomes — a file record, an upload — is the caller's.
func RunRecords(ctx context.Context, frozen *Study, hashes []string, indices []int, emit func(index int, line []byte) error, opts ...Option) error {
	switch {
	case frozen == nil:
		return fmt.Errorf("campaign: nil study")
	case len(hashes) != len(frozen.Points):
		return fmt.Errorf("campaign: %d point hashes for a study of %d points", len(hashes), len(frozen.Points))
	case len(indices) == 0:
		return fmt.Errorf("campaign: no index to run in study of %d points", len(frozen.Points))
	}
	sub := &Study{Name: frozen.Name, Points: make([]Point, len(indices))}
	g := frozen.grid()
	var sg *frozenGrid
	if g != nil {
		sg = &frozenGrid{points: sub.Points, prep: make([]prepared, len(indices)), hashes: make([]string, len(indices))}
	}
	for k, gi := range indices {
		if gi < 0 || gi >= len(frozen.Points) {
			return fmt.Errorf("campaign: index %d outside study of %d points", gi, len(frozen.Points))
		}
		if k > 0 && gi <= indices[k-1] {
			return fmt.Errorf("campaign: index %d after %d: indices must increase", gi, indices[k-1])
		}
		sub.Points[k] = frozen.Points[gi]
		if sg != nil {
			sg.prep[k], sg.hashes[k] = g.prep[gi], hashes[gi]
		}
	}
	sub.frozen = sg
	var mu sync.Mutex
	return Run(ctx, sub, append(opts, func(o *options) {
		o.completed = func(k int, res *Result) error {
			gi := indices[k]
			line, err := encodeShardRecord(hashes[gi], gi, res)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			return emit(gi, line)
		}
	})...)
}

// MergeShardRecords folds checkpoint lines (typically the union of every
// shard's store) into the complete, index-ordered record set of a frozen
// study — the determinism rule for sharded campaigns: shards fold in
// grid-index order, exactly like the in-process serial fold, so the
// merged output is bit-identical to a 1-process run. It fails if any
// point has no valid record, listing the missing indices; skipped counts
// lines ignored as corrupt, stale, or duplicate.
func MergeShardRecords(frozen *Study, lines [][]byte) (records []*ShardRecord, skipped int, err error) {
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		return nil, 0, err
	}
	// The first valid record per point wins: determinism makes
	// duplicates identical. Corrupt, stale and duplicate lines are
	// skipped, never fatal.
	records = make([]*ShardRecord, len(frozen.Points))
	held := 0
	for _, line := range lines {
		rec, err := VerifyShardRecord(hashes, line)
		if err != nil || records[rec.Index] != nil {
			skipped++
			continue
		}
		records[rec.Index] = rec
		held++
	}
	if held < len(records) {
		return nil, skipped, fmt.Errorf("campaign: merge incomplete: %d of %d points missing (first missing index %d)",
			len(records)-held, len(records), slices.Index(records, nil))
	}
	return records, skipped, nil
}
