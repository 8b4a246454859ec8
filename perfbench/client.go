package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// entry is what the region acknowledged about one path: the client's
// expectation of it after the run drains.
type entry struct {
	dir     bool
	present bool
	size    int64
	// data is the acknowledged content of a file the stream will read
	// back, kept until that read.
	data []byte
}

// client drives one core.Client in a closed loop: each call is issued
// only after the previous one returned.
type client struct {
	cl  *core.Client
	s   stream
	now vclock.Time
	ct  *clientTrace // nil in untraced runs
	lat []sample     // one per call

	files map[string]*entry

	attempted, ok int64
	// errs are calls that returned an error; misses are calls whose
	// output a check rejected.
	errs, misses int64
	// firstProblems keeps the first few problems for the report.
	firstProblems []string
}

func newClient(cl *core.Client, s stream, ct *clientTrace) *client {
	return &client{cl: cl, s: s, ct: ct, files: make(map[string]*entry)}
}

func (c *client) problem(format string, args ...any) {
	if len(c.firstProblems) < 8 {
		c.firstProblems = append(c.firstProblems, fmt.Sprintf(format, args...))
	}
}

// setupMkdir and setupCreate are set-up calls: unmeasured, and any
// error aborts the run.
func (c *client) setupMkdir(p string) error {
	done, err := c.cl.Mkdir(c.now, p, 0o755)
	c.now = vclock.Max(c.now, done)
	if err == nil {
		c.files[p] = &entry{dir: true, present: true}
	}
	return err
}

func (c *client) setupCreate(p string) error {
	done, err := c.cl.Create(c.now, p, 0o644)
	c.now = vclock.Max(c.now, done)
	if err == nil {
		c.files[p] = &entry{present: true}
	}
	return err
}

// do issues one call, times it on both clocks, checks its output
// against what the region acknowledged before, and records what it
// acknowledges now.
func (c *client) do(o op) {
	c.attempted++
	if c.ct != nil {
		c.ct.begin(o.kind)
	}
	vstart := c.now
	var (
		done vclock.Time
		err  error
		st   fsapi.Stat
		got  []byte
		ents []fsapi.DirEntry
		want = c.files[o.path]
	)
	t0 := time.Now()
	switch o.kind {
	case opStat:
		st, done, err = c.cl.Stat(c.now, o.path)
	case opCreate:
		done, err = c.cl.Create(c.now, o.path, 0o644)
	case opWrite:
		done, err = c.cl.WriteAt(c.now, o.path, 0, o.data)
	case opRead:
		got, done, err = c.cl.ReadAt(c.now, o.path, 0, o.n)
	case opRemove:
		done, err = c.cl.Remove(c.now, o.path)
	case opMkdir:
		done, err = c.cl.Mkdir(c.now, o.path, 0o755)
	case opReaddir:
		ents, done, err = c.cl.Readdir(c.now, o.path)
	case opRmdir:
		done, err = c.cl.Rmdir(c.now, o.path)
	}
	wall := time.Since(t0)
	if c.ct != nil {
		c.ct.end()
	}
	c.now = vclock.Max(c.now, done)

	failed := err != nil
	if failed {
		c.errs++
		c.problem("%s %s: %v", o.kind, o.path, err)
	} else if why := c.check(o, want, st, got, ents); why != "" {
		failed = true
		c.misses++
		c.problem("%s %s: %s", o.kind, o.path, why)
	} else {
		c.ok++
	}
	c.lat = append(c.lat, sample{wallNS: saturate32(int64(wall)), virtNS: saturate32(int64(c.now.Sub(vstart))), failed: failed})
	if err == nil {
		c.acknowledge(o)
	}
}

// check returns why a successful call's output is wrong, or "".
func (c *client) check(o op, want *entry, st fsapi.Stat, got []byte, ents []fsapi.DirEntry) string {
	switch o.kind {
	case opStat:
		if want != nil && want.present && !want.dir && (st.IsDir() || st.Size != want.size) {
			return fmt.Sprintf("stat says dir=%v size=%d, acknowledged file of %d bytes", st.IsDir(), st.Size, want.size)
		}
	case opRead:
		var data []byte
		if want != nil {
			data = want.data
		}
		if !bytes.Equal(got, data) {
			return fmt.Sprintf("read back %d bytes, %d acknowledged (equal prefix %v)", len(got), len(data), bytes.HasPrefix(data, got))
		}
	case opReaddir:
		var names []string
		for _, n := range o.names {
			if e := c.files[o.path+"/"+n]; e != nil && e.present {
				names = append(names, n)
			}
		}
		listed := make([]string, len(ents))
		for i, e := range ents {
			listed[i] = e.Name
		}
		sort.Strings(listed)
		if !equalStrings(listed, names) {
			return fmt.Sprintf("listed %d entries, %d acknowledged", len(listed), len(names))
		}
	}
	return ""
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// acknowledge records the effect of a call that returned success.
func (c *client) acknowledge(o op) {
	switch o.kind {
	case opCreate:
		c.files[o.path] = &entry{present: true}
	case opMkdir:
		c.files[o.path] = &entry{dir: true, present: true}
	case opWrite:
		if e := c.files[o.path]; e != nil {
			if n := int64(len(o.data)); n > e.size {
				e.size = n
			}
			if o.readBack {
				e.data = o.data
			}
		}
	case opRead:
		if e := c.files[o.path]; e != nil {
			e.data = nil
		}
	case opRemove, opRmdir:
		if e := c.files[o.path]; e != nil {
			e.present = false
		}
	}
}

// verifyDurable checks, after the region drained, that the DFS holds
// exactly what the region acknowledged, reading the authoritative
// namespace around the RPC layer: every acknowledged path that
// was not removed exists with its acknowledged size, and every
// acknowledged removal is gone. It returns the number of misses.
func (c *client) verifyDurable(cluster *dfs.Cluster) int64 {
	var misses int64
	for p, e := range c.files {
		st, err := cluster.OracleLookup(p)
		why := ""
		switch {
		case !e.present && err == nil:
			why = "removed, still on the DFS"
		case !e.present && !errors.Is(err, fsapi.ErrNotExist):
			why = fmt.Sprintf("removed, lookup failed: %v", err)
		case !e.present:
		case err != nil:
			why = fmt.Sprintf("missing on the DFS: %v", err)
		case e.dir != st.IsDir():
			why = fmt.Sprintf("DFS dir=%v, acknowledged dir=%v", st.IsDir(), e.dir)
		case !e.dir && st.Size != e.size:
			why = fmt.Sprintf("DFS size %d, acknowledged %d", st.Size, e.size)
		}
		if why != "" {
			misses++
			c.problem("durable %s: %s", p, why)
		}
	}
	return misses
}
