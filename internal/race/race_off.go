//go:build !race

// Package race reports whether the race detector is compiled in.
package race

// Enabled reports whether the race detector is compiled in. Allocation
// tripwires skip under it: race instrumentation changes allocation counts.
const Enabled = false
