// Package cmdutil centralizes how cmd/* binaries write output files and
// exit. The bug it retires: a main that calls os.Exit on a failure path
// skips its deferred closes, so a buffered -out file is left unflushed or
// truncated — the violation window a failing sweepd run exists to
// deliver is exactly the artifact that got corrupted. Every command now
// routes its exit through Exit, which flushes and closes all registered
// outputs first, escalating the exit code if a flush fails.
package cmdutil

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Output is a buffered output destination: a file path, or stdout for ""
// or "-". The backing file is created lazily on first write, so an output
// a command never writes to leaves no empty artifact behind.
type Output struct {
	path   string
	stdout bool
	f      *os.File
	bw     *bufio.Writer
	closed bool
	err    error
}

// NewOutput validates path and returns an unopened Output. path "" or "-"
// writes to stdout. The parent directory must exist; that is checked here
// so the command fails before doing work, not after.
func NewOutput(path string) (*Output, error) {
	o := &Output{path: path}
	if path == "" || path == "-" {
		o.stdout = true
		return o, nil
	}
	// The file itself is still created lazily on first write, but the
	// parent directory is checked now: a sweepd pointed at a bad -out path
	// must fail before the hours-long sweep, not at the first report write.
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("cmdutil: output %q: %w", path, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("cmdutil: output %q: %q is not a directory", path, dir)
	}
	return o, nil
}

// Write implements io.Writer, opening the backing file on first use.
func (o *Output) Write(p []byte) (int, error) {
	if o.closed {
		return 0, fmt.Errorf("cmdutil: write to closed output %q", o.name())
	}
	if o.bw == nil {
		if o.stdout {
			o.bw = bufio.NewWriter(os.Stdout)
		} else {
			f, err := os.Create(o.path)
			if err != nil {
				return 0, err
			}
			o.f = f
			o.bw = bufio.NewWriter(f)
		}
	}
	return o.bw.Write(p)
}

// WrapFile adopts an already-open file into a buffered Output that Exit
// will flush and close — for commands whose open-mode policy (e.g.
// benchjson's O_EXCL snapshot protection) doesn't fit NewOutput's lazy
// create.
func WrapFile(f *os.File) *Output {
	return &Output{path: f.Name(), f: f, bw: bufio.NewWriter(f)}
}

// Created reports whether the output has been opened (i.e. something was
// written).
func (o *Output) Created() bool { return o.bw != nil }

func (o *Output) name() string {
	if o.stdout {
		return "stdout"
	}
	return o.path
}

// Close flushes and closes the output. Idempotent; the first error wins
// and is re-reported on later calls, so Exit sees a flush failure even if
// the command closed explicitly first.
func (o *Output) Close() error {
	if o.closed {
		return o.err
	}
	o.closed = true
	if o.bw != nil {
		if err := o.bw.Flush(); err != nil {
			o.err = fmt.Errorf("cmdutil: flush %s: %w", o.name(), err)
		}
	}
	if o.f != nil {
		if err := o.f.Close(); err != nil && o.err == nil {
			o.err = fmt.Errorf("cmdutil: close %s: %w", o.name(), err)
		}
	}
	return o.err
}

// Exit is the single exit path for cmd mains structured as
// os.Exit(realMain(...)): it flushes and closes every registered output,
// then returns the exit code — escalated to 1 if any output failed to
// flush, because a command that silently truncates its artifact must not
// report success.
func Exit(code int, outs ...*Output) int {
	for _, o := range outs {
		if o == nil {
			continue
		}
		if err := o.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}
