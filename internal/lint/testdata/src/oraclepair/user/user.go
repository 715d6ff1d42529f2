// Package user imports a declaring package of the fixture manifest
// without being one: loading it alone loads good as a dependency,
// without good's test files.
package user

import "bcache/internal/lint/testdata/src/oraclepair/good"

// Steps runs the fast engine n times.
func Steps(n int) int {
	f := &good.Fast{}
	s := 0
	for i := 0; i < n; i++ {
		s = f.Step()
	}
	return s
}
