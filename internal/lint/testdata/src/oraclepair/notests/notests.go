// Package notests keeps both twins but has lost every _test.go file:
// with no test variant, the plain package is its widest compilation,
// and the analyzer must still report the declared test gone.
package notests // want `oraclepair: oracle pair "notests-pair": differential test .*TestFastMatchesOracle is gone`

// Fast is the optimized engine.
type Fast struct{ state int }

// Oracle is the obviously-correct reference twin.
type Oracle struct{ state int }

// Step advances the fast engine.
func (f *Fast) Step() int { f.state += 2; return f.state / 2 }

// Step advances the oracle.
func (o *Oracle) Step() int { o.state++; return o.state }
