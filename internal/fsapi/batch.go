package fsapi

// BatchKind names one mutation of an apply_batch RPC, the DFS's single
// path for creating, updating and unlinking one object. rmtree and
// rename have their own RPCs.
type BatchKind uint8

const (
	BatchCreate BatchKind = iota
	BatchMkdir
	BatchSetStat
	BatchRemove
	BatchRmdir
)

// StatResult is one per-path outcome of a batched stat (the read-path
// analogue of ApplyBatch's per-op error slice): Stat is valid only when
// Err is nil.
type StatResult struct {
	Stat Stat
	Err  error
}

// BatchOp is one mutation of an apply_batch RPC. Paths within a batch
// are independent (the commit module ships at most one op per path per
// batch), so the server may apply them in any order.
type BatchOp struct {
	Kind BatchKind
	Path string
	// Stat carries the full metadata for create/mkdir/setstat; unused for
	// remove and rmdir.
	Stat Stat
	// IfExists marks a remove whose target may legitimately be absent:
	// the commit module's coalescer folds a queued create+remove pair
	// into one "ensure absent" remove, and the create may or may not have
	// reached the DFS (an earlier attempt could have been applied before
	// a retried batch). ErrNotExist is success for such a remove.
	IfExists bool
}
