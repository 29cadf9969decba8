package harness_test

import (
	"testing"

	"swisstm/internal/bench7"
	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/util"
)

// protocolCounts is the part of stm.Stats that fingerprints an engine's
// read protocol: how many reads were logged, how many were dedup hits, how
// often and how widely it validated, and how attempts ended.
type protocolCounts struct {
	ReadsLogged, ReadsDeduped, Validations, ValidationReads, Commits, Aborts uint64
}

func countsOf(s stm.Stats) protocolCounts {
	return protocolCounts{s.ReadsLogged, s.ReadsDeduped, s.Validations, s.ValidationReads, s.Commits, s.Aborts}
}

// TestProtocolCountsPinned pins those counts bit for bit on one thread,
// where the engines are deterministic: a fixed-seed STMBench7 read-write
// run (long traversals, tens of thousands of distinct stripes per
// transaction) and a fixed-seed txkv transfer run (four-key update
// transactions). The SwissTM and TinySTM numbers are those of the engines
// that deduplicated through a hash map from stripe to read-log position;
// the stripe bitmap of DESIGN.md §7.1 reproducing them is the proof that
// it changed the cost of a dedup decision and no decision. TL2 and RSTM
// are pinned the same way, so that a refactor of the engines' shared
// bookkeeping is held to every engine's numbers. A change that moves them
// has changed the protocol and must say so.
func TestProtocolCountsPinned(t *testing.T) {
	// SwissTM and TinySTM log, dedup and validate by the same rules, so one
	// thread drives both to the same numbers.
	wantBench7 := protocolCounts{ReadsLogged: 112358, ReadsDeduped: 355025, Commits: 400}
	wantTransfer := protocolCounts{ReadsLogged: 33737, ReadsDeduped: 15070, Commits: 5001}
	pins := []struct {
		kind             string
		bench7, transfer protocolCounts
	}{
		{"swisstm", wantBench7, wantTransfer},
		{"tinystm", wantBench7, wantTransfer},
		// TL2 keeps duplicate entries and, alone on the clock, takes the GV4
		// fast path at every commit, so it never validates.
		{"tl2", protocolCounts{ReadsLogged: 34089, Commits: 400}, protocolCounts{ReadsLogged: 43687, Commits: 5001}},
		// RSTM logs every invisible read, with no dedup, and validates a
		// writer's reads once in its commit's flip section.
		{"rstm", protocolCounts{ReadsLogged: 460863, Validations: 143, ValidationReads: 22479, Commits: 400},
			protocolCounts{ReadsLogged: 48807, Validations: 4969, ValidationReads: 43687, Commits: 5001}},
	}
	for _, pin := range pins {
		kind := pin.kind
		t.Run(kind+"/bench7-rw", func(t *testing.T) {
			e := harness.EngineSpec{Kind: kind, ArenaWords: 1 << 22}.New()
			b := bench7.Setup(e, bench7.ReadWrite)
			th := e.NewThread(1)
			ops := b.NewOps(th, util.NewRand(42))
			for i := 0; i < 400; i++ {
				ops.Op()
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
			if got := countsOf(th.Stats()); got != pin.bench7 {
				t.Errorf("counts moved:\n got  %+v\n want %+v", got, pin.bench7)
			}
		})
		t.Run(kind+"/txkv-transfer", func(t *testing.T) {
			const keys, balance = 1024, 1000
			e := harness.EngineSpec{Kind: kind, ArenaWords: 1 << 20}.New()
			s := txkv.NewInitialized(e.NewThread(0), keys, balance)
			th := e.NewThread(1)
			rng := util.NewRand(7)
			var ks [4]stm.Word
			for i := 0; i < 5000; i++ {
				for j := range ks {
					ks[j] = stm.Word(rng.Intn(keys) + 1)
				}
				stm.AtomicVoid(th, func(tx stm.Tx) { s.Transfer(tx, ks[:], 1) })
			}
			sum := stm.AtomicRO(th, func(tx stm.TxRO) stm.Word { return s.SumAll(tx) })
			if sum != keys*balance {
				t.Fatalf("balance sum %d, want %d", sum, keys*balance)
			}
			if got := countsOf(th.Stats()); got != pin.transfer {
				t.Errorf("counts moved:\n got  %+v\n want %+v", got, pin.transfer)
			}
		})
	}
}
