package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/declarative-fs/dfs/internal/bench"
)

// oneValidSpec is the admission oracle of FuzzSubmitBody, built without
// checkBodyDrained: the body must fit the cap, be exactly one JSON document
// (json.Unmarshal rejects anything but whitespace after it), name no field
// JobSpec lacks, and pass validate.
func oneValidSpec(body []byte, maxScenarios int) error {
	if len(body) > maxSubmitBody {
		return errors.New("body over the cap")
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return err
	}
	return spec.validate(maxScenarios)
}

// FuzzSubmitBody feeds arbitrary POST /jobs bodies through handleSubmit on a
// server whose one job slot blocks and whose queue holds one job, so a
// valid spec is admitted until both are taken and refused as queue-full
// after. The handler never panics; a 202 comes only for a body that is one
// valid JobSpec and admits exactly one job; a 400, 413 or 429 answers a
// JSON errorBody and admits nothing, a 400 or 413 only for a body that is
// not one valid JobSpec and a 429 only for one that is; no other status
// occurs.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		`{"scenarios":1,"seed":1,"datasets":["COMPAS"]}` + "\n  \n", // trailing whitespace
		`{"scenarios":1,"seed":1}{"scenarios":2,"seed":2}`,          // two documents
		`{"scenarios":1,"seed":1}garbage`,
		`{"scenarios":1,"seed":1} "trailing string"`,
		`{"scenarios":1,"bogus":true}`, // unknown field
		`{"scenarios":0}`,
		`{"scenarios":1,"datasets":["no-such-set"]}`,
		`{"scenarios":1,"max_evals":-1}`,
		`{"scenarios":1,"deadline_seconds":-2}`,
		`{"scenarios":1,"shard_index":2,"shard_count":2}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	srv := newTestServer(f, Config{Workers: 1, QueueCap: 1,
		BuildPool: func(ctx context.Context, cfg bench.Config, _ bench.RunOptions) (*bench.Pool, error) {
			<-ctx.Done()
			return &bench.Pool{Config: cfg, Interrupted: true}, nil
		}})
	f.Fuzz(func(t *testing.T, body []byte) {
		admitted, jobs := srv.mAdmitted.Value(), len(srv.Jobs())
		rec := httptest.NewRecorder()
		srv.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		admitted, jobs = srv.mAdmitted.Value()-admitted, len(srv.Jobs())-jobs
		valid := oneValidSpec(body, srv.cfg.MaxScenarios)

		if rec.Code == http.StatusAccepted {
			if valid != nil {
				t.Fatalf("202 for a body that is not one valid JobSpec (%v): %q", valid, body)
			}
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("202 answered %q (%v), want a job status", rec.Body.Bytes(), err)
			}
			if admitted != 1 || jobs != 1 {
				t.Fatalf("202 admitted %d jobs (%d listed), want 1: %q", admitted, jobs, body)
			}
			return
		}
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if valid == nil {
				t.Fatalf("%d for one valid JobSpec: %q", rec.Code, body)
			}
		case http.StatusTooManyRequests:
			if valid != nil {
				t.Fatalf("429 for a body that is not one valid JobSpec (%v): %q", valid, body)
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("%d answered %q (%v), want a JSON error body", rec.Code, rec.Body.Bytes(), err)
		}
		if admitted != 0 || jobs != 0 {
			t.Fatalf("%d admitted %d jobs (%d listed), want none: %q", rec.Code, admitted, jobs, body)
		}
	})
}
