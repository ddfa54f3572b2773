package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
)

// fuzzShard is the pool shard FuzzShardStream's reader expects: shard 1/2
// of six scenarios owns IDs 1, 3 and 5.
var fuzzShard = JobSpec{Scenarios: 6, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}, ShardIndex: 1, ShardCount: 2}

// followedShardStream returns the body of a real followed checkpoint
// stream of a fuzzShard job, with a keepalive line before each record.
// The records are minimal (an ID and a dataset), so the seed stays small
// enough for input minimization.
func followedShardStream(tb testing.TB) []byte {
	tb.Helper()
	oldKeepalive := checkpointKeepalive
	checkpointKeepalive = 5 * time.Millisecond
	tb.Cleanup(func() { checkpointKeepalive = oldKeepalive })
	ref := &bench.Pool{}
	for i := 0; i < fuzzShard.Scenarios; i++ {
		if fuzzShard.shardSpec().Contains(i) {
			ref.Records = append(ref.Records, bench.Record{ID: i, Dataset: "COMPAS"})
		}
	}
	gate := make(chan struct{})
	srv := newTestServer(tb, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	job, _, err := srv.Submit(fuzzShard)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/checkpoint?follow=1")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	br := bufio.NewReader(io.TeeReader(resp.Body, &body))
	readUntil := func(blank bool) {
		tb.Helper()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				tb.Fatalf("stream ended early: %v", err)
			}
			if (strings.TrimSpace(line) == "") == blank {
				return
			}
		}
	}
	readUntil(false) // the header
	for range ref.Records {
		readUntil(true) // a keepalive while the scenario runs
		gate <- struct{}{}
		readUntil(false)
	}
	if _, err := io.Copy(io.Discard, br); err != nil {
		tb.Fatal(err)
	}
	if got := resp.Trailer.Get(trailerJobState); got != string(StateDone) {
		tb.Fatalf("trailer %s = %q, want %q", trailerJobState, got, StateDone)
	}
	return body.Bytes()
}

// shardStreamOracle reads body by the stream contract, independently of
// readShardStream's scanner loop: its lines (a final unterminated one
// included, a trailing CR dropped), a header that must decode and describe
// want, then blank keepalives and record lines from cursor from on. It
// returns the IDs a reader must deliver and how the read must end: nil at
// the end of body, errStreamMismatch for another pool's header or a record
// outside the shard or behind the cursor, and errTorn for anything else.
func shardStreamOracle(body []byte, want bench.Config, from int) ([]int, error) {
	lines := bytes.Split(body, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, errTorn
	}
	for i, line := range lines {
		lines[i] = bytes.TrimSuffix(line, []byte("\r"))
	}
	hcfg, err := bench.DecodeCheckpointHeader(lines[0])
	if err != nil {
		return nil, errTorn
	}
	if bench.IdentityMismatch(hcfg, want, true) != nil {
		return nil, errStreamMismatch
	}
	var ids []int
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec bench.Record
		if json.Unmarshal(line, &rec) != nil {
			return ids, errTorn
		}
		if rec.ID >= want.Scenarios || !want.Shard.Contains(rec.ID) || rec.ID < from {
			return ids, errStreamMismatch
		}
		ids = append(ids, rec.ID)
		from = rec.ID + 1
	}
	return ids, nil
}

var errTorn = errors.New("torn stream")

// FuzzShardStream feeds arbitrary bytes to the coordinator's reader of one
// followed checkpoint attach, as fuzzShard from an arbitrary cursor. The
// reader never panics; the IDs it delivers are strictly increasing, at or
// past the cursor, below the scenario count and in the shard; it reports
// as many as it delivered and the cursor one past the last; and only a
// header for another pool, or a record outside the shard or behind the
// cursor, fails permanently (errStreamMismatch): every other failure is a
// broken stream the coordinator re-attaches to.
func FuzzShardStream(f *testing.F) {
	real := followedShardStream(f)
	header := real[:bytes.IndexByte(real, '\n')+1]
	lastLine := bytes.LastIndexByte(real[:len(real)-1], '\n') + 1
	rec1 := []byte(`{"ID":1,"Dataset":"COMPAS"}` + "\n")
	for _, seed := range []struct {
		body []byte
		from uint8
	}{
		{real, 0},
		// Records 1 and 3 behind the cursor.
		{real, 4},
		// A torn last line.
		{real[:lastLine+(len(real)-lastLine)/2], 0},
		// A foreign header.
		{bytes.Replace(real, []byte(`"MaxEvals":10,`), []byte(`"MaxEvals":11,`), 1), 0},
		// A record outside the shard.
		{append(bytes.Clone(header), `{"ID":2,"Dataset":"COMPAS"}`+"\n"...), 0},
		// A repeated ID.
		{bytes.Join([][]byte{header, rec1, []byte("\n"), rec1}, nil), 0},
	} {
		f.Add(seed.body, seed.from)
	}
	want := fuzzShard.benchConfig(Config{}, "")
	f.Fuzz(func(t *testing.T, body []byte, from uint8) {
		cursor := int(from) % (want.Scenarios + 1)
		var got []int
		n, next, err := readShardStream(bytes.NewReader(body), want, cursor, func() {}, func(rec bench.Record) {
			got = append(got, rec.ID)
		})
		last := cursor - 1
		for _, id := range got {
			if id <= last || id >= want.Scenarios || !want.Shard.Contains(id) {
				t.Fatalf("from %d delivered IDs %v: not increasing from the cursor within shard %s of %d", cursor, got, want.Shard, want.Scenarios)
			}
			last = id
		}
		if n != len(got) || next != last+1 {
			t.Fatalf("delivered %v but reported %d records, cursor %d", got, n, next)
		}
		ids, end := shardStreamOracle(body, want, cursor)
		if !slices.Equal(ids, got) {
			t.Fatalf("from %d delivered %v, want %v", cursor, got, ids)
		}
		switch {
		case end == nil && err != nil:
			t.Fatalf("intact stream failed: %v", err)
		case end == errStreamMismatch && !errors.Is(err, errStreamMismatch):
			t.Fatalf("mismatched stream did not fail permanently: %v", err)
		case end == errTorn && (err == nil || errors.Is(err, errStreamMismatch)):
			t.Fatalf("broken stream returned %v, want an error the coordinator re-attaches after", err)
		}
	})
}
