package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pacon/internal/core"
	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// TestMain lets the test binary stand in for the benchmark binary when
// an end-to-end run starts its round processes.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--round" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func firstOps(sp spec, seed int64, client, n int) []op {
	s := sp.newStream(seed, client)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	for _, sp := range specs {
		a := firstOps(sp, 7, 1, 3000)
		if b := firstOps(sp, 7, 1, 3000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", sp.name)
		}
		if c := firstOps(sp, 8, 1, 3000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", sp.name)
		}
		if d := firstOps(sp, 7, 0, 3000); reflect.DeepEqual(a, d) {
			t.Errorf("%s: clients 0 and 1 got the same op stream", sp.name)
		}
	}
}

func TestCkptStepShape(t *testing.T) {
	sp, _ := specByName("ckpt_barrier")
	s := sp.newStream(3, 0)
	count := map[opKind]int{}
	large := 0
	for i := 0; i < 2; i++ { // step 0 has nothing to remove; step 1 does
		for {
			o := s.next()
			count[o.kind]++
			if o.kind == opWrite && len(o.data) > 4096 {
				large++
			}
			if s.atUnitEnd() {
				break
			}
		}
	}
	want := map[opKind]int{opMkdir: 2, opCreate: 32, opWrite: 32, opRead: 32, opReaddir: 2, opRemove: 16, opRmdir: 1}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("two steps issued %v, want %v", count, want)
	}
	if large != 2*ckptLargeFiles {
		t.Errorf("%d writes cross the inline threshold, want %d", large, 2*ckptLargeFiles)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"overlapping", []interval{{10, 40}, {30, 50}}, 60},
		{"unsorted overlapping", []interval{{30, 50}, {10, 40}, {45, 55}}, 55},
		{"clipped to the parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside the parent", []interval{{-50, -10}, {100, 120}}, 100},
		{"covers everything", []interval{{0, 60}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFailuresRankSlowest(t *testing.T) {
	var ss []sample
	for i := 1; i <= 98; i++ {
		ss = append(ss, sample{wallNS: uint32(i * 1000), virtNS: uint32(i * 1000)})
	}
	// Two failed calls that returned quickly.
	ss = append(ss, sample{wallNS: 10, virtNS: 10, failed: true}, sample{wallNS: 20, virtNS: 20, failed: true})
	l := summarize(ss)
	if l.n != 100 {
		t.Fatalf("n = %d, want 100", l.n)
	}
	if l.wallP99 < 1e6 || l.virtP99 < 1e6 { // µs: at least the penalty
		t.Errorf("p99 wall %.1f us virtual %.1f us: failures must rank slower than every success", l.wallP99, l.virtP99)
	}
	if l.wallP50 < 49 || l.wallP50 > 51 {
		t.Errorf("p50 %.2f us, want about 50: failures must not shift the body", l.wallP50)
	}
	if l.virtTail < 1e6 {
		t.Errorf("tail mean %.1f us must include the failures", l.virtTail)
	}

	// A success slower than the penalty still ranks below the failures.
	slow := append([]sample{{wallNS: 3e9, virtNS: 3e9}}, ss...)
	if l := summarize(slow); l.wallP99 < 3e6 {
		t.Errorf("p99 %.1f us: a failure ranked below a 3 s success", l.wallP99)
	}

	if l := summarize(ss[:98]); l.wallP99 > 98 {
		t.Errorf("p99 %.1f us without failures, want at most 98", l.wallP99)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := int64(1); i <= 10000; i++ {
		h.record(i * 1000) // 1..10000 µs
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantileUS(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f = %.1f us, want %.1f ±2%%", q, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for addr, want := range map[string]addrClass{
		"node0/pacon-bench": classCache,
		"storage0/mds3":     classMDS,
		"s2/data":           classData,
	} {
		if got := classify(addr); got != want {
			t.Errorf("classify(%q) = %v, want %v", addr, got, want)
		}
	}
}

// TestOutputChecksFail injects a bad byte and a missing entry into each
// check that runs during the loop.
func TestOutputChecksFail(t *testing.T) {
	c := &client{files: map[string]*entry{
		"/w/d/a": {present: true, size: 4, data: []byte("abcd")},
		"/w/d/b": {present: true},
		"/w/d/c": {present: false},
	}}
	read := op{kind: opRead, path: "/w/d/a", n: 4}
	if why := c.check(read, c.files["/w/d/a"], fsapi.Stat{}, []byte("abcd"), nil); why != "" {
		t.Fatalf("correct read-back rejected: %s", why)
	}
	if why := c.check(read, c.files["/w/d/a"], fsapi.Stat{}, []byte("abXd"), nil); why == "" {
		t.Error("read-back with a bad byte accepted")
	}
	if why := c.check(read, c.files["/w/d/a"], fsapi.Stat{}, nil, nil); why == "" {
		t.Error("zero-byte read-back accepted")
	}

	ls := op{kind: opReaddir, path: "/w/d", names: []string{"a", "b", "c"}}
	if why := c.check(ls, nil, fsapi.Stat{}, nil, entries("a", "b")); why != "" {
		t.Fatalf("correct listing rejected: %s", why)
	}
	if why := c.check(ls, nil, fsapi.Stat{}, nil, entries("a")); why == "" {
		t.Error("listing with a missing entry accepted")
	}
	if why := c.check(ls, nil, fsapi.Stat{}, nil, entries("a", "b", "c")); why == "" {
		t.Error("listing with a removed entry accepted")
	}

	st := op{kind: opStat, path: "/w/d/a"}
	if why := c.check(st, c.files["/w/d/a"], fsapi.Stat{Type: fsapi.TypeFile, Size: 3}, nil, nil); why == "" {
		t.Error("stat with the wrong size accepted")
	}
}

func entries(names ...string) []fsapi.DirEntry {
	out := make([]fsapi.DirEntry, len(names))
	for i, n := range names {
		out[i] = fsapi.DirEntry{Name: n, Type: fsapi.TypeFile}
	}
	return out
}

// TestDurableChecksFail runs a small workload on a real deployment,
// drains it, then damages the DFS behind the region's back: the
// durability check and the auditor must each report the damage.
func TestDurableChecksFail(t *testing.T) {
	sp, _ := specByName("create_commit")
	d, err := deploy(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.populate(sp); err != nil {
		t.Fatal(err)
	}
	c := d.clients[0]
	c.now = d.ready
	for i := 0; i < 90; i++ {
		c.do(c.s.next())
	}
	at, err := d.region.Drain(c.now)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.verify(at); err != nil {
		t.Fatal(err)
	}
	if c.errs+c.misses != 0 {
		t.Fatalf("clean run reported %d errors, %d misses: %v", c.errs, c.misses, c.firstProblems)
	}

	// A file the region acknowledged at 256 bytes: truncate it on the
	// DFS, and delete another one outright.
	var files []string
	for p, e := range c.files {
		if e.present && !e.dir && e.size == createCommitBytes {
			files = append(files, p)
		}
	}
	sort.Strings(files)
	if len(files) < 2 {
		t.Fatalf("only %d written files", len(files))
	}
	// A DFS client of the application's user, outside the region.
	rogue := d.cluster.NewClient("node1", appCred, 0, 0)
	st, _, err := rogue.Stat(at, files[0])
	if err != nil {
		t.Fatal(err)
	}
	st.Size--
	if _, err := rogue.SetStat(at, files[0], st); err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.Remove(at, files[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.verify(at); err != nil {
		t.Fatal(err)
	}
	// Two durability misses plus whatever the auditor finds resident.
	if c.misses < 2 {
		t.Errorf("damaged DFS gave %d misses, want at least 2: %v", c.misses, c.firstProblems)
	}
	joined := strings.Join(c.firstProblems, "\n")
	for _, want := range []string{"DFS size 255, acknowledged 256", "missing on the DFS", "divergent"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems do not mention %q:\n%s", want, joined)
		}
	}
}

// fakeDFS records which methods reach it.
type fakeDFS struct{ calls []string }

func (f *fakeDFS) hit(m string) { f.calls = append(f.calls, m) }

func (f *fakeDFS) Stat(vclock.Time, string) (fsapi.Stat, vclock.Time, error) {
	f.hit("Stat")
	return fsapi.Stat{}, 0, nil
}
func (f *fakeDFS) Mkdir(vclock.Time, string, fsapi.Mode) (vclock.Time, error) {
	f.hit("Mkdir")
	return 0, nil
}
func (f *fakeDFS) CreateWithStat(vclock.Time, string, fsapi.Stat) (vclock.Time, error) {
	f.hit("CreateWithStat")
	return 0, nil
}
func (f *fakeDFS) SetStat(vclock.Time, string, fsapi.Stat) (vclock.Time, error) {
	f.hit("SetStat")
	return 0, nil
}
func (f *fakeDFS) Remove(vclock.Time, string) (vclock.Time, error) { f.hit("Remove"); return 0, nil }
func (f *fakeDFS) RmTree(vclock.Time, string) ([]string, vclock.Time, error) {
	f.hit("RmTree")
	return nil, 0, nil
}
func (f *fakeDFS) Rename(vclock.Time, string, string) (vclock.Time, error) {
	f.hit("Rename")
	return 0, nil
}
func (f *fakeDFS) Readdir(vclock.Time, string) ([]fsapi.DirEntry, vclock.Time, error) {
	f.hit("Readdir")
	return nil, 0, nil
}
func (f *fakeDFS) WriteAt(vclock.Time, string, int64, []byte) (vclock.Time, error) {
	f.hit("WriteAt")
	return 0, nil
}
func (f *fakeDFS) ReadAt(vclock.Time, string, int64, int) ([]byte, vclock.Time, error) {
	f.hit("ReadAt")
	return nil, 0, nil
}
func (f *fakeDFS) ApplyBatch(vclock.Time, []fsapi.BatchOp) ([]error, vclock.Time, error) {
	f.hit("ApplyBatch")
	return nil, 0, nil
}
func (f *fakeDFS) Pace(*vclock.Pacer, int) { f.hit("Pace") }
func (f *fakeDFS) StatFresh(vclock.Time, string) (fsapi.Stat, vclock.Time, error) {
	f.hit("StatFresh")
	return fsapi.Stat{}, 0, nil
}
func (f *fakeDFS) StatBatch(vclock.Time, []string) ([]fsapi.StatResult, vclock.Time, error) {
	f.hit("StatBatch")
	return nil, 0, nil
}
func (f *fakeDFS) InvalidateSubtree(string) { f.hit("InvalidateSubtree") }
func (f *fakeDFS) SetTrace(uint64)          { f.hit("SetTrace") }
func (f *fakeDFS) ClearTrace()              { f.hit("ClearTrace") }

// TestDecoratorKeepsCapabilities fails if the backend decorator drops an
// optional capability core type-asserts on a backend: dropping one
// silently changes the program under test (unpaced clients, stale
// dentry reads, broken rmdir invalidation). The interface shapes mirror
// the assertions in internal/core (client.go, commit.go, region.go,
// trace.go).
func TestDecoratorKeepsCapabilities(t *testing.T) {
	f := &fakeDFS{}
	var b core.Backend = &tracedBackend{b: f, t: newTracer()}
	caps := []struct {
		name string
		call func(core.Backend) bool
	}{
		{"Pace", func(b core.Backend) bool {
			x, ok := b.(interface{ Pace(*vclock.Pacer, int) })
			if ok {
				x.Pace(nil, 0)
			}
			return ok
		}},
		{"StatFresh", func(b core.Backend) bool {
			x, ok := b.(interface {
				StatFresh(vclock.Time, string) (fsapi.Stat, vclock.Time, error)
			})
			if ok {
				x.StatFresh(0, "/w")
			}
			return ok
		}},
		{"StatBatch", func(b core.Backend) bool {
			x, ok := b.(interface {
				StatBatch(vclock.Time, []string) ([]fsapi.StatResult, vclock.Time, error)
			})
			if ok {
				x.StatBatch(0, nil)
			}
			return ok
		}},
		{"InvalidateSubtree", func(b core.Backend) bool {
			x, ok := b.(interface{ InvalidateSubtree(root string) })
			if ok {
				x.InvalidateSubtree("/w")
			}
			return ok
		}},
		{"SetTrace", func(b core.Backend) bool {
			x, ok := b.(interface {
				SetTrace(span uint64)
				ClearTrace()
			})
			if ok {
				x.SetTrace(1)
			}
			return ok
		}},
		{"ClearTrace", func(b core.Backend) bool {
			x, ok := b.(interface {
				SetTrace(span uint64)
				ClearTrace()
			})
			if ok {
				x.ClearTrace()
			}
			return ok
		}},
	}
	for _, c := range caps {
		f.calls = nil
		if !c.call(b) {
			t.Errorf("decorator does not offer %s", c.name)
			continue
		}
		if len(f.calls) != 1 || f.calls[0] != c.name {
			t.Errorf("%s reached the DFS client as %v", c.name, f.calls)
		}
	}
}

// TestMetricsMatchBenchmarkFile runs every workload briefly, untraced
// and traced, and checks that the output carries exactly the metrics
// BENCHMARK.json declares, and that each workload BENCHMARK.json lists
// exists.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads on which no call fails; the
	// others (ckpt_barrier, while its known defects last) are run by name.
	for _, w := range bench.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	out := t.TempDir()
	for _, w := range names {
		for trace, want := range map[string][]decl{"0": bench.EndToEnd, "1": bench.PerLayer} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", out}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if res.Attempted < 1 || res.Correct != (res.Failed == 0) {
				t.Errorf("%s trace %s: attempted %d failed %d correct %v", w, trace, res.Attempted, res.Failed, res.Correct)
			}
			got := map[string]string{}
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			wantMap := map[string]string{}
			for _, d := range want {
				wantMap[d.Name] = d.Unit
			}
			if !reflect.DeepEqual(got, wantMap) {
				t.Errorf("%s trace %s: metrics %v, BENCHMARK.json declares %v", w, trace, got, wantMap)
			}
			if trace == "0" {
				for k, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, k, v.Value)
					}
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, fmt.Sprintf("spans-%s-3.jsonl", names[0]))); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}
