package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestExitCodes drives the command as `make lint` does and checks its
// exit status: findings and usage errors are 1, a clean package is 0.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
		// stdout and stderr, when set, must match the output.
		stdout, stderr string
	}{
		// The determinism fixture seeds a bare time.Now on line 15.
		{name: "seeded fixture", args: []string{"../../internal/lint/testdata/src/determinism/a"}, want: 1,
			stdout: `(?m)^\S*/testdata/src/determinism/a/a\.go:15:\d+: determinism: call to time\.Now`},
		{name: "clean package", args: []string{"../../internal/addr"}, want: 0, stdout: `^$`},
		// The go vet tool handshake is an unknown flag: bcachelint is
		// not a go vet tool.
		{name: "vet handshake", args: []string{"-V=full"}, want: 1, stdout: `^$`,
			stderr: `flag provided but not defined: -V`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, got, tc.want, &stdout, &stderr)
			}
			for _, o := range []struct {
				re  string
				got *bytes.Buffer
			}{{tc.stdout, &stdout}, {tc.stderr, &stderr}} {
				if o.re != "" && !regexp.MustCompile(o.re).Match(o.got.Bytes()) {
					t.Errorf("output does not match %s:\n%s", o.re, o.got)
				}
			}
		})
	}
}
