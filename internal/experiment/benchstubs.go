package experiment

// The benchmark harness (bench/traced.go) still calls these three
// no-ops, and bench/ changes only together with the benchmark. ROADMAP
// item 1 gives the harness a Session and deletes this file.

// CleanupTraceSpill does nothing: no trace is written to disk.
func CleanupTraceSpill() {}

// ResetUnitMemo does nothing: no unit result outlives its campaign.
func ResetUnitMemo() {}

// ResetTimedCache does nothing: no unit result outlives its campaign.
func ResetTimedCache() {}
