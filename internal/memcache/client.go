package memcache

import (
	"fmt"
	"sync"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Client routes cache operations to the owning server through a
// consistent-hash ring, exactly as Pacon distributes full-path metadata
// keys across a consistent region's nodes.
type Client struct {
	caller *rpc.Caller
	ring   *dht.Ring
}

// NewClient builds a client. The ring's members must be RPC addresses
// (e.g. "node3/cache") registered on the caller's transport.
func NewClient(caller *rpc.Caller, ring *dht.Ring) *Client {
	return &Client{caller: caller, ring: ring}
}

// Ring exposes the routing ring (region merge reads a peer region's ring).
func (c *Client) Ring() *dht.Ring { return c.ring }

// Owner returns the server address responsible for key.
func (c *Client) Owner(key string) string { return c.ring.Lookup(key) }

// Calls returns the number of RPCs this client has issued.
func (c *Client) Calls() int64 { return c.caller.Calls() }

// SetTrace tags subsequent cache RPCs with the span's trace context so
// the cache servers' handler timings land in the originating op's span.
func (c *Client) SetTrace(span uint64) { c.caller.SetTrace(span) }

// ClearTrace removes the trace context set by SetTrace.
func (c *Client) ClearTrace() { c.caller.ClearTrace() }

// callKey issues a single-key request (pooled request encoder).
func (c *Client) callKey(method string, at vclock.Time, key string) (vclock.Time, []byte, error) {
	e := wire.GetEncoder()
	e.String(key)
	done, resp, err := c.caller.Call(c.Owner(key), method, at, e.Bytes())
	wire.PutEncoder(e)
	return done, resp, err
}

// Get fetches key from its owner.
func (c *Client) Get(at vclock.Time, key string) (Item, vclock.Time, error) {
	done, resp, err := c.callKey("get", at, key)
	if err != nil {
		return Item{}, done, err
	}
	d := wire.GetDecoder(resp)
	item := Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.Blob()}
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return Item{}, done, derr
	}
	return item, done, nil
}

// MultiResult is one per-key result of Client.GetMulti: Hit/Item on
// success, Err when the key's owner could not be reached or answered
// garbage. A plain miss is Hit == false with a nil Err.
type MultiResult struct {
	Item Item
	Hit  bool
	Err  error
}

// ownerBatch is one owner's slice of a batched request, with each
// element's position in the caller's input.
type ownerBatch struct {
	addr string
	keys []string
	idx  []int
}

// batchByOwner groups keys by owning server and records each key
// occurrence's input position (duplicates fill in input order, which
// GroupByOwner preserves within a group).
func (c *Client) batchByOwner(keys []string) []ownerBatch {
	slots := make(map[string][]int, len(keys))
	for i, k := range keys {
		slots[k] = append(slots[k], i)
	}
	groups := c.ring.GroupByOwner(keys)
	batches := make([]ownerBatch, 0, len(groups))
	for addr, gkeys := range groups {
		b := ownerBatch{addr: addr, keys: gkeys, idx: make([]int, len(gkeys))}
		for j, k := range gkeys {
			b.idx[j] = slots[k][0]
			slots[k] = slots[k][1:]
		}
		batches = append(batches, b)
	}
	return batches
}

// GetMulti fetches keys with one "get_multi" RPC per owning server,
// fanned out concurrently from the same virtual instant and merged with
// vclock.Max — the batched read path's single round trip per owner.
// Results align with keys. A dead or misbehaving owner marks only its
// own keys with Err; the other owners' keys still resolve, so callers
// can fall back to per-key Gets for exactly the failed subset.
func (c *Client) GetMulti(at vclock.Time, keys []string) ([]MultiResult, vclock.Time) {
	out := make([]MultiResult, len(keys))
	if len(keys) == 0 {
		return out, at
	}
	batches := c.batchByOwner(keys)
	var wg sync.WaitGroup
	times := make([]vclock.Time, len(batches))
	for bi := range batches {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			b := batches[bi]
			e := wire.GetEncoder()
			e.Strings(b.keys)
			done, resp, err := c.caller.Call(b.addr, "get_multi", at, e.Bytes())
			wire.PutEncoder(e)
			times[bi] = done
			if err == nil {
				d := wire.GetDecoder(resp)
				if n := d.Uvarint(); n != uint64(len(b.keys)) {
					err = fmt.Errorf("memcache: get_multi returned %d results for %d keys", n, len(b.keys))
				} else {
					for _, i := range b.idx {
						if d.Bool() {
							out[i] = MultiResult{
								Item: Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.Blob()},
								Hit:  true,
							}
						}
					}
					err = d.Finish()
				}
				wire.PutDecoder(d)
			}
			if err != nil {
				for _, i := range b.idx {
					out[i] = MultiResult{Err: err}
				}
			}
		}(bi)
	}
	wg.Wait()
	latest := at
	for _, t := range times {
		latest = vclock.Max(latest, t)
	}
	return out, latest
}

// AddMulti stores a batch of entries add-if-absent with one "add_multi"
// RPC per owning server (concurrent fan-out, vclock.Max merge) — the
// grouped cache warm. Results align with entries; per-entry ErrExist /
// ErrOutOfSpace mean "skip", a transport error marks the whole owner's
// slice.
func (c *Client) AddMulti(at vclock.Time, entries []AddEntry) ([]AddResult, vclock.Time) {
	out := make([]AddResult, len(entries))
	if len(entries) == 0 {
		return out, at
	}
	keys := make([]string, len(entries))
	for i, en := range entries {
		keys[i] = en.Key
	}
	batches := c.batchByOwner(keys)
	var wg sync.WaitGroup
	times := make([]vclock.Time, len(batches))
	for bi := range batches {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			b := batches[bi]
			e := wire.GetEncoder()
			e.Uvarint(uint64(len(b.idx)))
			for _, i := range b.idx {
				e.String(entries[i].Key)
				e.Uint32(entries[i].Flags)
				e.Blob(entries[i].Value)
			}
			done, resp, err := c.caller.Call(b.addr, "add_multi", at, e.Bytes())
			wire.PutEncoder(e)
			times[bi] = done
			if err == nil {
				d := wire.GetDecoder(resp)
				if n := d.Uvarint(); n != uint64(len(b.idx)) {
					err = fmt.Errorf("memcache: add_multi returned %d results for %d entries", n, len(b.idx))
				} else {
					for _, i := range b.idx {
						code := d.Byte()
						cas := d.Uint64()
						out[i] = AddResult{CAS: cas, Err: fsapi.ErrOf(code, "")}
					}
					err = d.Finish()
				}
				wire.PutDecoder(d)
			}
			if err != nil {
				for _, i := range b.idx {
					out[i] = AddResult{Err: err}
				}
			}
		}(bi)
	}
	wg.Wait()
	latest := at
	for _, t := range times {
		latest = vclock.Max(latest, t)
	}
	return out, latest
}

func (c *Client) storeOp(method string, at vclock.Time, key string, value []byte, flags uint32, expect uint64) (uint64, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint32(flags)
	e.Uint64(expect)
	e.Blob(value)
	done, resp, err := c.caller.Call(c.Owner(key), method, at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return 0, done, err
	}
	d := wire.GetDecoder(resp)
	cas := d.Uint64()
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return 0, done, derr
	}
	return cas, done, nil
}

// Set unconditionally stores key.
func (c *Client) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("set", at, key, value, flags, 0)
}

// Add stores key only if absent.
func (c *Client) Add(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("add", at, key, value, flags, 0)
}

// CAS stores key only if its version is still expect.
func (c *Client) CAS(at vclock.Time, key string, value []byte, flags uint32, expect uint64) (uint64, vclock.Time, error) {
	return c.storeOp("cas", at, key, value, flags, expect)
}

// Delete removes key from its owner.
func (c *Client) Delete(at vclock.Time, key string) (vclock.Time, error) {
	done, _, err := c.callKey("delete", at, key)
	return done, err
}

// DeleteCAS removes key from its owner only if its version is still
// expect; ErrStale means a concurrent update won the race and the caller
// must re-read before deciding to delete again (§III.D.3 applied to
// deletion).
func (c *Client) DeleteCAS(at vclock.Time, key string, expect uint64) (vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint64(expect)
	done, _, err := c.caller.Call(c.Owner(key), "delete_cas", at, e.Bytes())
	wire.PutEncoder(e)
	return done, err
}

// ClearDirty clears the dirty flag of key's value if its header seq
// equals seq — the server evaluates the predicate under its shard lock,
// replacing the commit module's Get + CAS retry loop with one round
// trip. No-op (false) when the key is absent, the seq moved on, or the
// value is already clean.
func (c *Client) ClearDirty(at vclock.Time, key string, seq uint64) (bool, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uvarint(seq)
	done, resp, err := c.caller.Call(c.Owner(key), "clear_dirty", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return false, done, err
	}
	d := wire.GetDecoder(resp)
	cleared := d.Bool()
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return false, done, derr
	}
	return cleared, done, nil
}

// DeleteIf removes key if cond holds for its current value header —
// the server-side form of the Get + DeleteCAS loop: one round trip, no
// ErrStale retry traffic. No-op (false) when absent or the predicate
// fails.
func (c *Client) DeleteIf(at vclock.Time, key string, cond Cond, seq uint64) (bool, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Byte(byte(cond))
	e.Uvarint(seq)
	done, resp, err := c.caller.Call(c.Owner(key), "delete_if", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return false, done, err
	}
	d := wire.GetDecoder(resp)
	deleted := d.Bool()
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return false, done, derr
	}
	return deleted, done, nil
}

// fanOut invokes fn once per ring member concurrently, starting each at
// the same virtual time (the broadcast a real client would issue in
// parallel) and merging completion times with vclock.Max. The first
// error wins; results are still awaited so no goroutine leaks.
func (c *Client) fanOut(at vclock.Time, fn func(addr string) (vclock.Time, error)) (vclock.Time, error) {
	members := c.ring.Members()
	if len(members) == 1 {
		done, err := fn(members[0])
		return vclock.Max(at, done), err
	}
	var wg sync.WaitGroup
	times := make([]vclock.Time, len(members))
	errs := make([]error, len(members))
	for i, addr := range members {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			times[i], errs[i] = fn(addr)
		}(i, addr)
	}
	wg.Wait()
	latest := at
	for i := range members {
		if errs[i] != nil {
			return times[i], errs[i]
		}
		latest = vclock.Max(latest, times[i])
	}
	return latest, nil
}

// FlushAll clears every server in the ring, fanning the broadcast out
// concurrently: the flush completes at the slowest member's virtual
// time, not the sum of all members'.
func (c *Client) FlushAll(at vclock.Time) (vclock.Time, error) {
	return c.fanOut(at, func(addr string) (vclock.Time, error) {
		done, _, err := c.caller.Call(addr, "flush_all", at, nil)
		return done, err
	})
}
