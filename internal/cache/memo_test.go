package cache

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// refResult is a synthetic result that reaches every slice and
// pointer a sim.Result can hold, so copy checks see all of them.
func refResult(seed uint64) *sim.Result {
	cc := core.ConfigForThreads(core.ISAMOM, 2)
	mc := mem.DefaultConfig(mem.ModeDecoupled)
	return &sim.Result{
		Cfg: sim.Config{
			ISA: core.ISAMOM, Threads: 2, Policy: core.PolicyICOUNT, Memory: mem.ModeDecoupled,
			Scale: 0.02, Seed: seed, MaxCycles: sim.DefaultMaxCycles,
			CoreOverride: &cc, MemOverride: &mc, Programs: []string{"mpeg2enc", "gsmenc"},
		},
		Cycles: int64(1000 + seed),
		IPC:    1.5,
		Core:   core.Stats{Committed: 1500, PerThreadCommitted: []int64{700, 800}},
		Mem:    mem.Stats{L1Accesses: 42},
	}
}

// TestMemoSeesDiskReplacement: after a memo hit, a different valid
// entry written over the same key — by this handle or by another
// process's — is what the next Get returns.
func TestMemoSeesDiskReplacement(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "k"
	if err := c.Put(key, refResult(1)); err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second Get is the memo hit
		if r, ok := c.Get(key); !ok || r.Cfg.Seed != 1 {
			t.Fatalf("Get = (seed %v, %v), want seed 1", r.Cfg.Seed, ok)
		}
	}
	other, err := Open(dir) // another process's handle
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(key, refResult(2)); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(key); !ok || r.Cfg.Seed != 2 || r.Cycles != 1002 {
		t.Fatalf("after another handle's rewrite Get = (%+v, %v), want seed 2", r, ok)
	}
	if err := c.Put(key, refResult(3)); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(key); !ok || r.Cfg.Seed != 3 {
		t.Fatalf("after this handle's rewrite Get = (seed %v, %v), want seed 3", r.Cfg.Seed, ok)
	}
	if st := c.Stats(); st != (Stats{Hits: 4, Writes: 2}) {
		t.Errorf("stats = %+v, want 4 hits / 0 misses / 2 writes", st)
	}
}

// TestMemoHitThenCorruptOrDeleteIsMiss: a memoized entry that is
// corrupted or deleted on disk reads as a miss, and the counters
// match what a memo-less cache reports for the same reads.
func TestMemoHitThenCorruptOrDeleteIsMiss(t *testing.T) {
	damage := map[string]func(path string) error{
		"garbage": func(p string) error { return os.WriteFile(p, []byte("not json {{{"), 0o644) },
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"deleted": os.Remove,
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := testResult(t, 7)
			key := r.Cfg.Key()
			if err := c.Put(key, r); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, ok := c.Get(key); !ok {
					t.Fatal("fresh entry missed")
				}
			}
			if err := hurt(entryPath(dir, Fingerprint(), key)); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, ok := c.Get(key); ok {
					t.Fatal("damaged entry served from the memo")
				}
			}
			if st := c.Stats(); st != (Stats{Hits: 2, Misses: 2, Writes: 1}) {
				t.Errorf("stats = %+v, want 2 hits / 2 misses / 1 write", st)
			}
			// Healing the slot makes it a hit again.
			if err := c.Put(key, r); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(key); !ok || got.Cycles != r.Cycles {
				t.Error("healed entry missed")
			}
		})
	}
}

// TestMemoReturnsPrivateCopies: mutating a returned result, including
// its slices and override pointers, changes neither another caller's
// copy nor the next Get — whether the result came from a decode or
// from the memo.
func TestMemoReturnsPrivateCopies(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := refResult(5)
	if err := c.Put("k", want); err != nil {
		t.Fatal(err)
	}
	tamper := func(r *sim.Result) {
		r.Cycles = -1
		r.Core.PerThreadCommitted[0] = -1
		r.Cfg.Programs[0] = "tampered"
		r.Cfg.CoreOverride.IQSize = -1
		r.Cfg.MemOverride.L1Size = -1
	}
	decoded, _ := c.Get("k")
	memoized, _ := c.Get("k")
	for _, r := range []*sim.Result{decoded, memoized} {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("Get = %+v, want %+v", r, want)
		}
	}
	tamper(decoded)
	if !reflect.DeepEqual(memoized, want) {
		t.Errorf("a caller's copy changed by another caller's mutation: %+v", memoized)
	}
	tamper(memoized)
	if next, ok := c.Get("k"); !ok || !reflect.DeepEqual(next, want) {
		t.Errorf("memo changed by a caller's mutation: %+v", next)
	}
}

// TestCloneResultCoversReferences pins the slices and pointers a
// sim.Result reaches. cloneResult copies exactly these; a new one
// would be shared between callers, so this fails until it is added.
func TestCloneResultCoversReferences(t *testing.T) {
	var got []string
	var walk func(tp reflect.Type, path string)
	walk = func(tp reflect.Type, path string) {
		switch tp.Kind() {
		case reflect.Struct:
			for i := range tp.NumField() {
				f := tp.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(tp.Elem(), path+"[]")
		case reflect.Pointer, reflect.Slice:
			got = append(got, path)
			walk(tp.Elem(), path+"*") // pointees are copied shallowly
		case reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
			got = append(got, path)
		}
	}
	walk(reflect.TypeOf(sim.Result{}), "Result")
	want := []string{
		"Result.Cfg.CoreOverride",
		"Result.Cfg.MemOverride",
		"Result.Cfg.Programs",
		"Result.Core.PerThreadCommitted",
	}
	if !slices.Equal(got, want) {
		t.Errorf("sim.Result references = %q, want %q; extend cloneResult", got, want)
	}
}

// TestMemoBounded: after memoCap+1 distinct keys the memo holds at
// most memoCap entries, the first key in is the one evicted, and every
// key still hits (the evicted one through a full decode).
func TestMemoBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes memoCap+1 entries")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &sim.Result{Cfg: sim.Config{Threads: 1}}
	keys := make([]string, memoCap+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if err := c.Put(keys[i], r); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(keys[i]); !ok {
			t.Fatalf("key %d missed", i)
		}
	}
	if len(c.memo) > memoCap || len(c.memoRing) > memoCap {
		t.Fatalf("memo holds %d entries (ring %d), want ≤ %d", len(c.memo), len(c.memoRing), memoCap)
	}
	if _, ok := c.memo[keys[0]]; ok {
		t.Error("oldest key survived eviction")
	}
	for i, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missed after eviction", i)
		}
	}
	if len(c.memo) > memoCap || len(c.memoRing) > memoCap {
		t.Fatalf("memo grew to %d entries (ring %d), want ≤ %d", len(c.memo), len(c.memoRing), memoCap)
	}
	if st := c.Stats(); st.Hits != int64(2*len(keys)) || st.Misses != 0 {
		t.Errorf("stats = %+v, want %d hits and no misses", st, 2*len(keys))
	}
}

// TestMemoConcurrentGetPutPrune: Gets, Puts and Prunes racing over
// overlapping keys (run under -race) return only whole, correct
// results and leave every key readable.
func TestMemoConcurrentGetPutPrune(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	results := make([]*sim.Result, keys)
	for i := range results {
		results[i] = refResult(uint64(i + 1))
		if err := c.Put(fmt.Sprint(i), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 50 {
				i := (g + n) % keys
				key := fmt.Sprint(i)
				switch {
				case g%4 == 0:
					if err := c.Put(key, results[i]); err != nil {
						errs <- err
						return
					}
				case g%4 == 1 && n%10 == 0:
					if _, err := Prune(dir); err != nil {
						errs <- err
						return
					}
				default:
					r, ok := c.Get(key)
					if !ok {
						errs <- fmt.Errorf("key %s missed under concurrent writes", key)
						return
					}
					if !reflect.DeepEqual(r, results[i]) {
						errs <- fmt.Errorf("key %s returned another result: %+v", key, r)
						return
					}
					r.Core.PerThreadCommitted[0]++ // private copy: must not race
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := range keys {
		if r, ok := c.Get(fmt.Sprint(i)); !ok || !reflect.DeepEqual(r, results[i]) {
			t.Errorf("key %d after the race: ok=%v", i, ok)
		}
	}
}

// BenchmarkCacheGet times one Get of a real 8-thread result:
// first-read decodes the entry file (the memo is emptied before each
// read), repeat serves the same unchanged bytes from the memo.
func BenchmarkCacheGet(b *testing.B) {
	r, err := sim.Run(sim.Config{
		ISA: core.ISAMOM, Threads: 8, Policy: core.PolicyOCOUNT,
		Memory: mem.ModeDecoupled, Scale: 0.02, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := r.Cfg.Key()
	if err := c.Put(key, r); err != nil {
		b.Fatal(err)
	}
	get := func(b *testing.B) {
		if _, ok := c.Get(key); !ok {
			b.Fatal("entry missed")
		}
	}
	b.Run("first-read", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			c.memoMu.Lock()
			clear(c.memo)
			c.memoRing, c.memoNext = c.memoRing[:0], 0
			c.memoMu.Unlock()
			get(b)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		get(b) // fills the memo before b.Loop starts the timer
		b.ReportAllocs()
		for b.Loop() {
			get(b)
		}
	})
}
