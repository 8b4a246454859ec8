package main

import (
	"fmt"
	"math/rand"

	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// opKind is a client call.
type opKind uint8

const (
	opStat opKind = iota
	opCreate
	opWrite
	opRead
	opRemove
	opMkdir
	opReaddir
	opRmdir
	numOpKinds
)

var opNames = [numOpKinds]string{"stat", "create", "write", "read", "remove", "mkdir", "readdir", "rmdir"}

var opSpanNames = func() (n [numOpKinds]string) {
	for k := range n {
		n[k] = "core." + opNames[k]
	}
	return n
}()

func (k opKind) String() string   { return opNames[k] }
func (k opKind) spanName() string { return opSpanNames[k] }

// op is one generated client call: a path plus, for a write, the bytes.
type op struct {
	kind opKind
	path string
	data []byte
	// readBack marks a write whose bytes a later read checks.
	readBack bool
	// n is how many bytes a read asks for.
	n int
	// names lists, for a readdir, the entries the directory should hold
	// (those whose create the region acknowledged).
	names []string
}

// stream yields one client's ops. A workload's unit (an op group such as
// one checkpoint step) ends where atUnitEnd reports true; the run stops
// only there, so no unit is cut in half.
type stream interface {
	next() op
	atUnitEnd() bool
}

// spec describes a workload.
type spec struct {
	name string
	// cacheBytes bounds each node's cache (0 = unbounded).
	cacheBytes int64
	// dirs is how many /w/dNN directories set-up creates, and prepop how
	// many files it spreads over them.
	dirs, prepop int
	// window is the pacer skew window of the measured phase; 0 is the
	// pacer default.
	window vclock.Duration
	// roundCalls is a round's work: the calls both clients issue between
	// them (a unit in progress is finished). Sized to about 2 s of wall
	// time on a 2-core machine.
	roundCalls int64
	newStream  func(seed int64, client int) stream
}

// The three workloads. All run on the same deployment (see deploy.go);
// README.md says why each exists. A bounded cache (eviction holds a
// region lock across RPCs) or a barrier parks a client while the others
// run on, so under the pacer's default skew window those measured phases
// deadlock; they run with NoSkewBound. create_commit has neither and
// keeps the default window, under which the virtual queueing model
// stays accurate. Its cache is unbounded: bounded, under write
// pressure, over 1% of its calls failed with ErrOutOfSpace.
var specs = []spec{
	{
		name:       "stat_zipf",
		cacheBytes: 512 << 10,
		dirs:       numDirs,
		prepop:     statFiles,
		window:     workload.NoSkewBound,
		roundCalls: 800_000,
		newStream:  newStatZipf,
	},
	{
		name:       "create_commit",
		dirs:       numDirs,
		roundCalls: 220_000,
		newStream:  newCreateCommit,
	},
	{
		name:       "ckpt_barrier",
		window:     workload.NoSkewBound,
		roundCalls: 200_000,
		newStream:  newCkptBarrier,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	numDirs   = 64
	statFiles = 16384
	zipfS     = 1.1
)

func dirPath(d int) string { return fmt.Sprintf("/w/d%02d", d) }

// prepopPath is the file of zipf rank r: consecutive ranks go to
// consecutive directories, so the hot head spreads over the MDS shards
// and cache servers instead of sitting in one directory.
func prepopPath(r int) string { return fmt.Sprintf("%s/f%05d", dirPath(r%numDirs), r/numDirs) }

// clientRand seeds one client's generator from the workload seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
}

// randBytes returns n bytes from rng.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// statZipf: 15/16 stats on a zipf stream over the pre-created files,
// 1/16 creates of unique files.
type statZipf struct {
	rng     *rand.Rand
	zipf    *workload.ZipfStream
	client  int
	created int
}

var zipfTable = func() *workload.ZipfPaths {
	paths := make([]string, statFiles)
	for r := range paths {
		paths[r] = prepopPath(r)
	}
	return workload.NewZipfPaths(paths, zipfS)
}()

func newStatZipf(seed int64, client int) stream {
	rng := clientRand(seed, client)
	return &statZipf{rng: rng, zipf: zipfTable.Stream(rng.Int63()), client: client}
}

func (s *statZipf) next() op {
	if s.rng.Intn(16) == 0 {
		s.created++
		p := fmt.Sprintf("%s/n%d-%d", dirPath(s.rng.Intn(numDirs)), s.client, s.created)
		return op{kind: opCreate, path: p}
	}
	return op{kind: opStat, path: s.zipf.Next()}
}

func (s *statZipf) atUnitEnd() bool { return true }

// createCommit: per unit, create a unique file and write 256 bytes into
// it; every 4th file is removed right after its write.
type createCommit struct {
	rng    *rand.Rand
	client int
	file   int
	path   string
	step   int // 0 create, 1 write, 2 remove
}

const createCommitBytes = 256

func newCreateCommit(seed int64, client int) stream {
	return &createCommit{rng: clientRand(seed, client), client: client}
}

func (s *createCommit) next() op {
	switch s.step {
	case 0:
		s.file++
		s.path = fmt.Sprintf("%s/c%d-%d", dirPath(s.rng.Intn(numDirs)), s.client, s.file)
		s.step = 1
		return op{kind: opCreate, path: s.path}
	case 1:
		s.step = 0
		if s.file%4 == 0 {
			s.step = 2
		}
		return op{kind: opWrite, path: s.path, data: randBytes(s.rng, createCommitBytes)}
	default:
		s.step = 0
		return op{kind: opRemove, path: s.path}
	}
}

func (s *createCommit) atUnitEnd() bool { return s.step == 0 }

// ckptBarrier: per step, mkdir a step directory and write ckptFiles
// files into it (create, write, read back), list it, then remove the
// previous step's files and directory.
type ckptBarrier struct {
	client int
	rng    *rand.Rand
	step   int
	ops    []op
}

const (
	ckptFiles      = 16
	ckptLargeFiles = 4
	ckptSmallBytes = 1 << 10
	ckptLargeBytes = 8 << 10
)

func newCkptBarrier(seed int64, client int) stream {
	return &ckptBarrier{client: client, rng: clientRand(seed, client)}
}

func (s *ckptBarrier) stepDir(step int) string { return fmt.Sprintf("/w/ck%d-%d", s.client, step) }

func ckptName(f int) string { return fmt.Sprintf("f%02d", f) }

// plan generates the next step's ops.
func (s *ckptBarrier) plan() {
	dir := s.stepDir(s.step)
	large := make(map[int]bool, ckptLargeFiles)
	for _, f := range s.rng.Perm(ckptFiles)[:ckptLargeFiles] {
		large[f] = true
	}
	s.ops = append(s.ops, op{kind: opMkdir, path: dir})
	names := make([]string, ckptFiles)
	for f := 0; f < ckptFiles; f++ {
		names[f] = ckptName(f)
		p := dir + "/" + names[f]
		n := ckptSmallBytes
		if large[f] {
			n = ckptLargeBytes
		}
		s.ops = append(s.ops,
			op{kind: opCreate, path: p},
			op{kind: opWrite, path: p, data: randBytes(s.rng, n), readBack: true},
			op{kind: opRead, path: p, n: n})
	}
	s.ops = append(s.ops, op{kind: opReaddir, path: dir, names: names})
	if s.step > 0 {
		prev := s.stepDir(s.step - 1)
		for f := 0; f < ckptFiles; f++ {
			s.ops = append(s.ops, op{kind: opRemove, path: prev + "/" + ckptName(f)})
		}
		s.ops = append(s.ops, op{kind: opRmdir, path: prev})
	}
	s.step++
}

func (s *ckptBarrier) next() op {
	if len(s.ops) == 0 {
		s.plan()
	}
	o := s.ops[0]
	s.ops = s.ops[1:]
	return o
}

func (s *ckptBarrier) atUnitEnd() bool { return len(s.ops) == 0 }
