package evalstore

// Segment codec (segment version 2). After its JSON header line, which this
// version writes and accepts only byte for byte, a segment is a sequence of
// frames,
//
//	u32 LE payload length | u32 LE CRC-32C(payload) | payload
//
// and each payload is one (Key, Result) pair in fixed order: scenario (u64),
// seed (u64), ε (float64 bits), a flags byte (HPO, HasTest), Val and Test
// (4 × float64 bits each), then mask, kind, ValCustom, TestCustom and Blob,
// each prefixed by its uvarint length or count. Integers are little-endian
// and floats travel as their IEEE-754 bits, so replay is bit-exact by
// construction.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"github.com/declarative-fs/dfs/internal/constraint"
)

const (
	frameHeaderLen = 8                     // payload length + CRC-32C
	fixedLen       = 3*8 + 1 + 2*4*8       // scenario, seed, ε, flags, Val, Test
	flagHPO        = 1 << 0                // Key.HPO
	flagHasTest    = 1 << 1                // Result.HasTest
	flagsKnown     = flagHPO | flagHasTest // any other bit fails decoding
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// headerLine opens every segment this version writes.
	headerLine = []byte(fmt.Sprintf(`{"magic":%q,"version":%d}`+"\n", segMagic, segVersion))

	errNonFinite = errors.New("evalstore: non-finite value")
)

// appendRecord appends the frame of one record to dst. A record holding a
// NaN or infinite ε, score or custom value is refused with dst unchanged, so
// such a result lives only in the in-memory index and is never persisted.
func appendRecord(dst []byte, k Key, r Result) ([]byte, error) {
	if !finite(k.Eps) || !finiteScores(r.Val) || !finiteScores(r.Test) || !allFinite(r.ValCustom) || !allFinite(r.TestCustom) {
		return dst, errNonFinite
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = le.AppendUint64(dst, k.Scenario)
	dst = le.AppendUint64(dst, k.Seed)
	dst = le.AppendUint64(dst, math.Float64bits(k.Eps))
	var flags byte
	if k.HPO {
		flags |= flagHPO
	}
	if r.HasTest {
		flags |= flagHasTest
	}
	dst = append(dst, flags)
	dst = appendScores(dst, r.Val)
	dst = appendScores(dst, r.Test)
	dst = appendBytes(dst, k.Mask)
	dst = appendBytes(dst, k.Kind)
	dst = appendFloats(dst, r.ValCustom)
	dst = appendFloats(dst, r.TestCustom)
	dst = appendBytes(dst, r.Blob)
	payload := dst[start+frameHeaderLen:]
	le.PutUint32(dst[start:], uint32(len(payload)))
	le.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

func appendScores(dst []byte, s constraint.Scores) []byte {
	for _, v := range [4]float64{s.F1, s.EO, s.Safety, s.FeatureFrac} {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func appendBytes[T string | []byte](dst []byte, b T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// scanSegment feeds fn every intact frame of one segment's bytes, in file
// order, with its offset in data, its payload length and its parsed record,
// and reports whether damage stopped it early: a header line other than
// headerLine (a foreign file or another version's segment), or a complete
// frame whose checksum fails, whose fields fail to decode or that leaves
// bytes over. A torn tail — a partial header line, a partial frame header,
// or a last frame that runs past the end — is the normal crash signature,
// not damage: it is dropped silently.
func scanSegment(data []byte, fn func(off int, n uint32, rec record)) (corrupt bool) {
	if !bytes.HasPrefix(data, headerLine) {
		return !bytes.HasPrefix(headerLine, data)
	}
	for off := len(headerLine); off < len(data); {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return false
		}
		n, sum := le.Uint32(rest), le.Uint32(rest[4:])
		rest = rest[frameHeaderLen:]
		if uint64(n) > uint64(len(rest)) {
			// Past the end: a torn tail, unless a prefix of what follows
			// carries the frame's checksum — then the length was damaged.
			return checksumPrefix(rest, sum)
		}
		if crc32.Checksum(rest[:n], castagnoli) != sum {
			return true
		}
		rec, ok := parseRecord(rest[:n])
		if !ok {
			return true
		}
		fn(off, n, rec)
		off += frameHeaderLen + int(n)
	}
	return false
}

// decodeSegment feeds put every record of one segment's bytes, decoded, in
// the order and under the damage rules of scanSegment.
func decodeSegment(data []byte, put func(Key, Result)) (corrupt bool) {
	return scanSegment(data, func(_ int, _ uint32, rec record) { put(rec.key(), rec.result()) })
}

// checksumPrefix reports whether some non-empty prefix of b has CRC-32C
// sum, extending the checksum one byte at a time with the table.
func checksumPrefix(b []byte, sum uint32) bool {
	crc := ^uint32(0)
	for _, c := range b {
		if crc = castagnoli[byte(crc)^c] ^ crc>>8; ^crc == sum {
			return true
		}
	}
	return false
}

// parseFrame checks one whole frame read back from a segment — its length
// field against its size, then its checksum — and parses its payload.
func parseFrame(frame []byte) (record, bool) {
	if len(frame) < frameHeaderLen {
		return record{}, false
	}
	p := frame[frameHeaderLen:]
	if le.Uint32(frame) != uint32(len(p)) || crc32.Checksum(p, castagnoli) != le.Uint32(frame[4:]) {
		return record{}, false
	}
	return parseRecord(p)
}

// record is one frame payload's fields. The variable-length ones are still
// slices of the payload, custom values as their raw bits, so parsing one
// allocates nothing; key and result copy them out.
type record struct {
	scenario, seed        uint64
	eps                   float64
	hpo, hasTest          bool
	val, test             constraint.Scores
	mask, kind            []byte
	valCustom, testCustom []byte // 8 bytes per value
	blob                  []byte
}

// parseRecord parses one frame payload, accepting exactly what appendRecord
// writes: an unknown flag bit, a non-minimal or overlong length, a
// non-finite value or a byte left over fails it.
func parseRecord(p []byte) (rec record, ok bool) {
	if len(p) < fixedLen {
		return rec, false
	}
	rec.scenario, rec.seed = le.Uint64(p), le.Uint64(p[8:])
	rec.eps = math.Float64frombits(le.Uint64(p[16:]))
	flags := p[24]
	rec.hpo, rec.hasTest = flags&flagHPO != 0, flags&flagHasTest != 0
	rec.val, rec.test = getScores(p[25:]), getScores(p[57:])
	d := decoder{p: p[fixedLen:], ok: flags&^flagsKnown == 0 &&
		finite(rec.eps) && finiteScores(rec.val) && finiteScores(rec.test)}
	rec.mask = d.next(1)
	rec.kind = d.next(1)
	rec.valCustom = d.floats()
	rec.testCustom = d.floats()
	rec.blob = d.next(1)
	return rec, d.ok && len(d.p) == 0
}

// is reports whether the record is stored under k.
func (rec *record) is(k Key) bool {
	return rec.scenario == k.Scenario && rec.seed == k.Seed && rec.eps == k.Eps && rec.hpo == k.HPO &&
		string(rec.mask) == k.Mask && string(rec.kind) == k.Kind
}

func (rec *record) key() Key {
	return Key{Scenario: rec.scenario, Mask: string(rec.mask), Kind: string(rec.kind), HPO: rec.hpo, Eps: rec.eps, Seed: rec.seed}
}

// result copies the record's result out of the payload, so it never pins a
// read buffer: one allocation per non-empty custom-value list or blob.
func (rec *record) result() Result {
	r := Result{
		Val: rec.val, ValCustom: floatsOf(rec.valCustom),
		Test: rec.test, TestCustom: floatsOf(rec.testCustom), HasTest: rec.hasTest,
	}
	if len(rec.blob) > 0 {
		r.Blob = bytes.Clone(rec.blob)
	}
	return r
}

func getScores(p []byte) constraint.Scores {
	f := func(i int) float64 { return math.Float64frombits(le.Uint64(p[8*i:])) }
	return constraint.Scores{F1: f(0), EO: f(1), Safety: f(2), FeatureFrac: f(3)}
}

// decoder walks a payload's variable-length fields; the first failure
// clears ok and every later field reads as empty.
type decoder struct {
	p  []byte
	ok bool
}

// next returns the field behind a uvarint count of size-byte elements.
func (d *decoder) next(size int) []byte {
	if !d.ok {
		return nil
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 || n != (bits.Len64(v|1)+6)/7 || v > uint64((len(d.p)-n)/size) {
		d.ok = false
		return nil
	}
	end := n + int(v)*size
	b := d.p[n:end]
	d.p = d.p[end:]
	return b
}

// floats returns a custom-value list's bits, failing on a non-finite value.
func (d *decoder) floats() []byte {
	b := d.next(8)
	for i := 0; i < len(b); i += 8 {
		if !finite(math.Float64frombits(le.Uint64(b[i:]))) {
			d.ok = false
			return nil
		}
	}
	return b
}

func floatsOf(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	vs := make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	return vs
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteScores(s constraint.Scores) bool {
	return finite(s.F1) && finite(s.EO) && finite(s.Safety) && finite(s.FeatureFrac)
}

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return true
}
