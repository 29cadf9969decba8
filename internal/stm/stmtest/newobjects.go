package stmtest

import (
	"errors"
	"testing"

	"swisstm/internal/stm"
)

// testNewObjects pins stm.Tx.NewObjects: distinct non-nil handles whose
// fields start as vals (zero for a nil vals) and read so from another
// thread in either mode; bad arguments that panic before anything is
// allocated; an ordinary transactional write on top of an initial value;
// and initial contents that survive the commit and the abort of a thread
// holding a stripe the fresh objects share, which is what makes storing
// them without a lock safe: an owner writes back only the words it wrote.
func testNewObjects(t *testing.T, e stm.STM) {
	a, b := e.NewThread(0), e.NewThread(1)
	const n, fields = 5, 3
	vals := make([]stm.Word, n*fields)
	for i := range vals {
		vals[i] = stm.Word(i) * 7 // vals[0] is a zero among non-zeros
	}
	var hs [2 * n]stm.Handle // hs[:n] from vals, hs[n:] from nil
	stm.AtomicVoid(a, func(tx stm.Tx) {
		tx.NewObjects(hs[:n], fields, vals)
		tx.NewObjects(hs[n:], fields, nil)
	})
	seen := map[stm.Handle]bool{0: true}
	for _, h := range hs {
		if seen[h] {
			t.Fatalf("handles %v: %d is nil or repeated", hs, h)
		}
		seen[h] = true
	}
	want := append(vals[:n*fields:n*fields], make([]stm.Word, n*fields)...)
	for _, ro := range []bool{false, true} {
		read := func(tx stm.TxRO, _ stm.Tx) error {
			for i, h := range hs {
				for f := uint32(0); f < fields; f++ {
					if got := tx.ReadField(h, f); got != want[i*fields+int(f)] {
						t.Errorf("ro=%t: object %d field %d reads %d, want %d", ro, i, f, got, want[i*fields+int(f)])
					}
				}
			}
			return nil
		}
		done := make(chan error)
		go func() { done <- runMode(b, ro, read) }()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Bad arguments panic before the arena moves: the next one-field
	// object directly follows the one allocated before them.
	before := alloc(a, 1)
	for name, call := range map[string]func(tx stm.Tx){
		"short vals": func(tx stm.Tx) { tx.NewObjects(make([]stm.Handle, 2), 3, make([]stm.Word, 5)) },
		"long vals":  func(tx stm.Tx) { tx.NewObjects(make([]stm.Handle, 2), 3, make([]stm.Word, 7)) },
		"2^32 words": func(tx stm.Tx) { tx.NewObjects(make([]stm.Handle, 2), 1<<31, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewObjects with %s did not panic", name)
				}
			}()
			stm.AtomicVoid(a, call)
		}()
	}
	if after := alloc(a, 1); after != before+1 {
		t.Errorf("a NewObjects that panicked allocated: handles %d then %d", before, after)
	}

	stm.AtomicVoid(a, func(tx stm.Tx) { tx.WriteField(hs[2], 1, tx.ReadField(hs[2], 1)+1000) })
	for f, want := range []stm.Word{vals[6], vals[7] + 1000, vals[8]} {
		if got := readField(b, hs[2], uint32(f)); got != want {
			t.Errorf("after a write on an initial value, field %d reads %d, want %d", f, got, want)
		}
	}

	// Thread a writes x, so it holds x's stripe (SwissTM and TinySTM from
	// the write, TL2 at its commit), while thread b, on another goroutine,
	// allocates the three words after x — inside x's stripe at every
	// stripe width above one word — with initial contents. Whether a then
	// commits or rolls back, they keep them.
	for _, abort := range []bool{false, true} {
		if pad := (64 - uint32(alloc(a, 1)+1)%64) % 64; pad > 0 {
			alloc(a, pad) // so x starts a 64-word block, and a stripe
		}
		x, init := alloc(a, 1), []stm.Word{11, 12, 13}
		var fresh [3]stm.Handle
		_, err := stm.AtomicErr(a, func(tx stm.Tx) (struct{}, error) {
			tx.WriteField(x, 0, 7)
			done := make(chan struct{})
			go func() {
				stm.AtomicVoid(b, func(tx stm.Tx) { tx.NewObjects(fresh[:], 1, init) })
				close(done)
			}()
			<-done
			if abort {
				return struct{}{}, errors.New("roll back")
			}
			return struct{}{}, nil
		})
		if e.Arena() != nil && fresh[0] != x+1 {
			t.Fatalf("test premise: fresh objects at %v, want them right after x at %d", fresh, x)
		}
		if got, want := readField(b, x, 0), map[bool]stm.Word{false: 7, true: 0}[abort]; got != want || abort != (err != nil) {
			t.Errorf("abort=%t: a's transaction returned %v and left x %d, want %d", abort, err, got, want)
		}
		for i, h := range fresh {
			if got := readField(b, h, 0); got != init[i] {
				t.Errorf("abort=%t: fresh object %d beside x reads %d after a ended, want %d", abort, i, got, init[i])
			}
		}
	}
}
