package obs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
)

// Setup wires the opt-in observability of a batch command: a JSONL span
// trace written to the file tracePath, one file per run (rotation,
// RotatingFileSink, is the long-lived daemon's), and the debug listener
// (StartDebug) on debugAddr, whose bound address it announces on standard
// error. With neither set it returns ctx unchanged, carrying no runtime,
// so the run takes the uninstrumented path. The returned stop closes the
// listener, then flushes and closes the trace, and reports the first
// failure: a trace that could not be written (a full disk) is lost data,
// not noise. A debug listener that cannot bind closes the trace file
// before Setup returns its error.
func Setup(ctx context.Context, tracePath, debugAddr string) (context.Context, func() error, error) {
	stop := func() error { return nil }
	if tracePath == "" && debugAddr == "" {
		return ctx, stop, nil
	}
	var opts []Option
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return ctx, nil, err
		}
		bw := bufio.NewWriter(f)
		tracer := NewWriterTracer(bw)
		opts = append(opts, WithTracer(tracer))
		stop = func() error {
			err := tracer.Err()
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("trace %s: %w", tracePath, err)
			}
			return nil
		}
	}
	rt := New(opts...)
	if debugAddr != "" {
		srv, err := StartDebug(debugAddr, rt)
		if err != nil {
			return ctx, nil, errors.Join(err, stop())
		}
		fmt.Fprintf(os.Stderr, "# debug listener on http://%s (pprof, /metrics)\n", srv.Addr())
		closeTrace := stop
		stop = func() error {
			err := srv.Close()
			if terr := closeTrace(); err == nil {
				err = terr
			}
			return err
		}
	}
	return NewContext(ctx, rt), stop, nil
}
