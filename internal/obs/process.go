package obs

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
)

// SyncProcessGauges sets r's process.* gauges to point-in-time reads of
// this process: process.resident_bytes (the resident set, from
// /proc/self/statm), process.heap_live_bytes (the runtime's
// /gc/heap/live:bytes, which the last collection measured),
// process.goroutines and process.open_fds (the entries of /proc/self/fd).
// Where /proc is missing, its two gauges are left unset, and so is the
// live heap until the first collection. Reading /proc costs a few
// syscalls, so call it at scrape time, not on a hot path or a frequently
// polled probe.
func SyncProcessGauges(r *Registry) {
	if r == nil {
		return
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() == metrics.KindUint64 && live[0].Value.Uint64() > 0 {
		r.Gauge("process.heap_live_bytes").Set(int64(live[0].Value.Uint64()))
	}
	r.Gauge("process.goroutines").Set(int64(runtime.NumGoroutine()))
	if statm, err := os.ReadFile("/proc/self/statm"); err == nil {
		// statm's second field is the resident set in pages.
		if f := bytes.Fields(statm); len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				r.Gauge("process.resident_bytes").Set(pages * int64(os.Getpagesize()))
			}
		}
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		r.Gauge("process.open_fds").Set(int64(len(fds)))
	}
}
