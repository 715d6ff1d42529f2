package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// childRun is one measured experiments process.
type childRun struct {
	wallS, cpuS, rssMB float64
	out                []byte
	// err is a start failure or non-zero exit (stderr attached).
	err error
	// leftoverSpill is set when the process left a trace-spill directory
	// in its private TMPDIR, i.e. failed to clean up after itself.
	leftoverSpill bool
}

// runChild executes bin with args in a fresh private TMPDIR under tmpRoot
// and waits for it to exit. Wall time runs from exec to exit; CPU time
// and peak RSS come from the child's rusage (ru_maxrss is KiB on Linux).
func runChild(bin string, args []string, tmpRoot string) (childRun, error) {
	dir, err := os.MkdirTemp(tmpRoot, "child-")
	if err != nil {
		return childRun{}, err
	}
	defer os.RemoveAll(dir)
	var out, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	start := time.Now()
	runErr := cmd.Run()
	wall := time.Since(start)
	r := childRun{wallS: wall.Seconds(), out: out.Bytes()}
	if runErr != nil {
		r.err = fmt.Errorf("%s: %w: %s", filepath.Base(bin), runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	if st := cmd.ProcessState; st != nil {
		r.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "bcache-tracespill-*"))
	if err != nil {
		return childRun{}, err
	}
	r.leftoverSpill = len(left) > 0
	return r, nil
}

// failures counts the failed operations of one run of the experiments in
// ids: every experiment when the process failed, else each experiment
// whose block is missing or differs from its golden digest, plus one for
// a leftover spill directory (never more than len(ids)).
func (r childRun) failures(ids []string, want map[string]string) (failed int, why []string) {
	if r.err != nil {
		return len(ids), []string{r.err.Error()}
	}
	bad := badBlocks(r.out, ids, want)
	for _, id := range bad {
		why = append(why, id+": output differs from its golden digest")
	}
	failed = len(bad)
	if r.leftoverSpill {
		failed = min(failed+1, len(ids))
		why = append(why, "trace-spill directory left behind after exit")
	}
	return failed, why
}
