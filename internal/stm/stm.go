// Package stm defines the programming interface shared by every software
// transactional memory engine in this repository: SwissTM (the paper's
// contribution) and the three baselines it is evaluated against (TL2,
// TinySTM, RSTM).
//
// Transactions access memory through one style, the object API
// (ReadField/WriteField on opaque handles). It is the native interface of
// object-based RSTM; the word-based engines — SwissTM, TL2, TinySTM — lay
// an object out as a contiguous block of arena words, so a handle is the
// address of its first field (the approach of "Dividing Transactional
// Memories by Zero", which the paper uses to run STMBench7 on word-based
// STMs). Every workload — STMBench7, STAMP, Lee-TM, the red-black tree and
// the txkv store — is written against it and runs on all four engines.
//
// # Transaction API v2 (DESIGN.md §9)
//
// Application code enters transactions through the package-level generic
// entry points, which return the body's result as a value instead of
// forcing callers to smuggle results out through closure captures:
//
//	sum := stm.Atomic(th, func(tx stm.Tx) stm.Word { ... return sum })
//	v, err := stm.AtomicErr(th, func(tx stm.Tx) (stm.Word, error) { ... })
//	n := stm.AtomicRO(th, func(tx stm.TxRO) int { ... })
//	stm.AtomicVoid(th, func(tx stm.Tx) { ... })
//
// Atomic bodies may run many times (conflicts retry); they must be
// idempotent apart from their transactional effects. An error returned by
// an AtomicErr/AtomicROErr body rolls the transaction back — every lock
// released, no write published — and surfaces to the caller without
// retrying. AtomicRO declares the transaction read-only: the body receives
// a TxRO, so writing is a compile error rather than a runtime panic, and
// every engine exploits the declaration with a cheaper read and commit
// protocol (see DESIGN.md §9.3).
//
// The entry points drive the engine-facing attempt primitives of the
// Thread interface (Begin/BeginRO/Commit/CommitRO/Unwind/AbortUser/Backoff).
// Keeping the retry loop in non-capturing package functions is what makes
// the v2 API allocation-free in steady state: a closure-adapting wrapper
// would heap-allocate per call (stmtest.ZeroAllocSteadyState holds every
// engine to exactly zero).
package stm

import "swisstm/internal/mem"

// Word is one 64-bit unit of transactional data.
type Word = mem.Word

// Addr is a word index into the shared arena of a word-based engine.
type Addr = mem.Addr

// Handle is an opaque object reference. For word-based engines
// a handle is the arena address of the object's first field; for RSTM it
// indexes an object table. Handle 0 is the nil reference.
//
// Handle is a defined type (not an alias for uint64) so that handles and
// raw Word values can no longer be mixed silently: storing a reference in
// an object field goes through WriteRef (or an explicit Word(h)
// conversion), and reading one back through ReadRef.
type Handle uint64

// ReadRef reads a field that holds an object reference, typed. It is
// ReadField plus the conversion, so every engine serves it unchanged.
func ReadRef(tx TxRO, h Handle, field uint32) Handle {
	return Handle(tx.ReadField(h, field))
}

// WriteRef writes a field that holds an object reference, typed.
func WriteRef(tx Tx, h Handle, field uint32, ref Handle) {
	tx.WriteField(h, field, Word(ref))
}

// TxRO is the read-only transaction handle: the view an AtomicRO body
// receives. It has no write methods, so writing inside a declared
// read-only transaction is a compile error, not a runtime panic; the
// engines' read-only views implement TxRO alone, so asserting one to Tx
// fails too. All methods abort the transaction (by panicking with an
// internal signal that the retry loop recovers) when a conflict requires
// it; user code never observes an inconsistent snapshot (opacity).
type TxRO interface {
	// ReadField reads one field of an object.
	ReadField(h Handle, field uint32) Word

	// Restart aborts and retries the transaction immediately (user-level
	// retry, e.g. bounded wait loops in benchmark code).
	Restart()
}

// Tx is the read-write transaction handle passed to Atomic/AtomicErr
// bodies. It extends TxRO with the write and allocation methods.
type Tx interface {
	TxRO

	// WriteField writes one field of an object.
	WriteField(h Handle, field uint32, v Word)
	// NewObject allocates a fresh object with the given field count.
	// Allocation is not undone on abort (a word arena is a bump
	// allocator); a retried transaction simply allocates afresh, and the
	// leaked object is unreachable. This matches the C implementations,
	// whose transactional allocators also leak on abort in the common case.
	NewObject(fields uint32) Handle
	// NewObjects allocates len(dst) objects of fields fields each into dst;
	// field f of object i starts as vals[i*fields+f], or zero for a nil
	// vals. No thread can reach an object before the call returns, so its
	// initial contents take no lock, log entry or version (captured memory,
	// Dragojević et al., SPAA 2009). It panics, allocating nothing, on the
	// arguments ObjectWords refuses. An abort does not undo the allocation.
	NewObjects(dst []Handle, fields uint32, vals []Word)
}

// ObjectWords returns n*fields, the words of NewObjects' n objects. It
// panics when that exceeds 2^32-1 or a non-nil vals has another length.
func ObjectWords(n int, fields uint32, vals []Word) uint32 {
	if uint64(n) > 1<<32-1 || uint64(n)*uint64(fields) > 1<<32-1 {
		panic("stm: NewObjects of more than 2^32-1 words")
	}
	if words := uint32(n) * fields; vals == nil || len(vals) == int(words) {
		return words
	}
	panic("stm: NewObjects vals length is not len(dst)*fields")
}

// Thread is a per-worker execution context. Each OS-level worker goroutine
// must create its own Thread; Threads are not safe for concurrent use.
//
// Beyond Stats, the interface is the engine-facing attempt machinery the
// package-level entry points (Atomic, AtomicErr, AtomicRO, AtomicROErr,
// AtomicVoid) drive; application code should not call the primitives
// directly. One transaction is one
//
//	Begin → body → Commit, or BeginRO → body → CommitRO
//
// cycle per attempt, with Unwind triaging panics that interrupt the body,
// Backoff pacing retries and AbortUser rolling back an attempt whose body
// returned an error.
type Thread interface {
	// Begin starts one read-write attempt and returns the transaction
	// handle to run the body against. restart is true when retrying the
	// same logical transaction (contention managers keep their priority
	// state across retries).
	Begin(restart bool) Tx
	// BeginRO starts one attempt of a transaction declared read-only.
	// Engines use the declaration to skip their write machinery entirely:
	// TL2 commits on its clock sample with no read logging at all,
	// SwissTM and TinySTM skip write-set init, lock acquisition and the
	// write side of commit, RSTM skips acquire/arbitration state
	// (DESIGN.md §9.3).
	BeginRO(restart bool) TxRO
	// Commit attempts to commit the current attempt. It reports false
	// when the attempt aborted (checked delivery; the caller retries).
	// On success it also performs the engine's post-commit duties.
	Commit() bool
	// CommitRO is Commit for an attempt begun by BeginRO: each mode has its
	// own commit entry, so an engine keeps no flag to tell them apart.
	CommitRO() bool
	// Unwind triages a panic value recovered while the body was running.
	// It reports true for the engine's internal rollback signal (the
	// attempt aborted mid-body; the caller retries) after recording the
	// unwound delivery; for a foreign panic it releases any locks the
	// attempt holds and reports false, and the caller must re-panic.
	Unwind(r any) bool
	// AbortUser rolls back the current attempt because the body returned
	// an error: locks released, buffered writes dropped, no retry.
	AbortUser()
	// Backoff performs the engine's post-abort contention back-off
	// between attempts.
	Backoff()

	// Stats returns a snapshot of this thread's commit/abort counters.
	Stats() Stats
}

// STM is a transactional memory engine instance bound to an arena.
type STM interface {
	Name() string
	Arena() *mem.Arena
	// NewThread registers a worker under id, which must be in
	// [0, MaxThreads) — engines panic otherwise. The id is the thread's
	// identity, not a label: SwissTM and TinySTM stamp it into the lock
	// words a transaction installs and recognise their own locks by it, so
	// two threads that run transactions under one id at the same time
	// would each take the other's locks for its own. An id may be
	// registered again (setup thread 0, then a checker on 0; one worker
	// set after another) once the thread that held it runs no more
	// transactions; the new thread takes the id over.
	NewThread(id int) Thread
}

// MaxThreads bounds the number of concurrently registered threads. The
// paper's testbed has 8 hardware threads; we leave headroom.
const MaxThreads = 64

// ---------------------------------------------------------------------------
// Entry points. Each replicates the same begin/attempt/commit loop rather
// than adapting the body through a shared closure: an adapter closure (and
// the result variable it captures) would escape through the Thread
// interface and heap-allocate on every call, breaking the zero-allocation
// steady state the engines guarantee.

// Atomic runs body as a read-write transaction, retrying on conflicts
// until it commits, and returns the body's result.
func Atomic[T any](th Thread, body func(Tx) T) T {
	for restart := false; ; restart = true {
		tx := th.Begin(restart)
		if v, ok := attempt(th, tx, body); ok {
			return v
		}
		th.Backoff()
	}
}

// attempt runs body once inside an already-begun transaction and tries to
// commit. ok=false means the attempt aborted and the caller must retry.
func attempt[T any](th Thread, tx Tx, body func(Tx) T) (v T, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !th.Unwind(r) {
				panic(r) // foreign panic; engine released its locks
			}
			ok = false
		}
	}()
	v = body(tx)
	return v, th.Commit()
}

// AtomicErr runs body as a read-write transaction. Conflicts retry as in
// Atomic; a non-nil error from the body rolls the transaction back (locks
// released, writes dropped) and is returned without retrying, alongside
// the zero value.
func AtomicErr[T any](th Thread, body func(Tx) (T, error)) (T, error) {
	for restart := false; ; restart = true {
		tx := th.Begin(restart)
		v, err, ok := attemptErr(th, tx, body)
		if err != nil {
			th.AbortUser()
			var zero T
			return zero, err
		}
		if ok {
			return v, nil
		}
		th.Backoff()
	}
}

func attemptErr[T any](th Thread, tx Tx, body func(Tx) (T, error)) (v T, err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !th.Unwind(r) {
				panic(r)
			}
			ok = false
			err = nil // an unwound attempt retries; drop any partial error
		}
	}()
	v, err = body(tx)
	if err != nil {
		return v, err, false
	}
	return v, nil, th.Commit()
}

// AtomicRO runs body as a declared read-only transaction and returns its
// result. The body receives a TxRO — no write methods — and the engine
// runs its read-only fast path (DESIGN.md §9.3).
func AtomicRO[T any](th Thread, body func(TxRO) T) T {
	for restart := false; ; restart = true {
		tx := th.BeginRO(restart)
		if v, ok := attemptRO(th, tx, body); ok {
			return v
		}
		th.Backoff()
	}
}

func attemptRO[T any](th Thread, tx TxRO, body func(TxRO) T) (v T, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !th.Unwind(r) {
				panic(r)
			}
			ok = false
		}
	}()
	v = body(tx)
	return v, th.CommitRO()
}

// AtomicROErr is AtomicErr for declared read-only transactions.
func AtomicROErr[T any](th Thread, body func(TxRO) (T, error)) (T, error) {
	for restart := false; ; restart = true {
		tx := th.BeginRO(restart)
		v, err, ok := attemptROErr(th, tx, body)
		if err != nil {
			th.AbortUser()
			var zero T
			return zero, err
		}
		if ok {
			return v, nil
		}
		th.Backoff()
	}
}

func attemptROErr[T any](th Thread, tx TxRO, body func(TxRO) (T, error)) (v T, err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !th.Unwind(r) {
				panic(r)
			}
			ok = false
			err = nil
		}
	}()
	v, err = body(tx)
	if err != nil {
		return v, err, false
	}
	return v, nil, th.CommitRO()
}

// AtomicVoid runs a body with no result as a read-write transaction,
// retrying on conflicts until it commits — the shape of the paper's
// classic `atomic { ... }` block.
func AtomicVoid(th Thread, body func(Tx)) {
	for restart := false; ; restart = true {
		tx := th.Begin(restart)
		if attemptVoid(th, tx, body) {
			return
		}
		th.Backoff()
	}
}

func attemptVoid(th Thread, tx Tx, body func(Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !th.Unwind(r) {
				panic(r)
			}
			ok = false
		}
	}()
	body(tx)
	return th.Commit()
}

// ---------------------------------------------------------------------------

// Stats counts transaction outcomes for one thread. The json tags are
// the column names of the results schema (DESIGN.md §5), which embeds
// Stats.
type Stats struct {
	Commits   uint64 `json:"commits"`    // successfully committed transactions
	ROCommits uint64 `json:"ro_commits"` // committed transactions declared read-only (AtomicRO)
	Aborts    uint64 `json:"aborts"`     // total rollbacks (all causes)
	AbortCauses
	WaitsCM uint64 `json:"waits_cm"` // times the CM told the attacker to wait

	// Abort delivery split (DESIGN.md §8): every abort reaches the retry
	// loop either as a checked return (commit-path conflicts and user
	// errors; cheap) or by unwinding the user closure via panic/recover
	// (~µs). The two counters partition Aborts exactly: Aborts ==
	// AbortsUnwound + AbortsReturned, which the abort-path tests assert
	// per engine.
	AbortsUnwound  uint64 `json:"aborts_unwound"`  // aborts delivered by panic/recover (mid-body conflicts, Restart)
	AbortsReturned uint64 `json:"aborts_returned"` // aborts delivered as checked returns (commit-path conflicts, user errors)

	// Hot-path instrumentation (DESIGN.md §7): how long read logs get and
	// how much work validation does, so the read-set dedup win is visible
	// in the structured results, not only in benchstat. Declared read-only
	// transactions on TL2 log no reads at all (DESIGN.md §9.3), so their
	// reads do not appear in ReadsLogged.
	ReadsLogged     uint64 `json:"reads_logged"`     // read-log entries appended (distinct stripes when dedup is on)
	ReadsDeduped    uint64 `json:"reads_deduped"`    // transactional reads absorbed by read-set dedup (DESIGN.md §7.1)
	Validations     uint64 `json:"validations"`      // read-set validation passes (commit-time + extensions)
	ValidationReads uint64 `json:"validation_reads"` // read-log entries scanned across all validation passes
}

// AbortCauses is the abort-cause taxonomy (DESIGN.md §11), as the
// engines count it: every abort increments Aborts and exactly one of
// these, so Sum() == Aborts on every engine (stmtest's partition case
// asserts it). stm.Stats and the wire Stats both embed it.
type AbortCauses struct {
	AbortsWW          uint64 `json:"aborts_ww"`           // eager write/write conflict (encounter-time)
	AbortsValidRead   uint64 `json:"aborts_valid_read"`   // mid-body read validation / snapshot extension failed
	AbortsValidCommit uint64 `json:"aborts_valid_commit"` // final validation pass failed at commit
	AbortsLocked      uint64 `json:"aborts_locked"`       // a read hit a location another transaction holds
	AbortsKilled      uint64 `json:"aborts_killed"`       // killed by another transaction's contention-manager decision
	AbortsExplicit    uint64 `json:"aborts_explicit"`     // user-requested Tx.Restart
	AbortsUser        uint64 `json:"aborts_user"`         // an AtomicErr body returned an error
	LockAcquireFail   uint64 `json:"lock_acquire_fail"`   // commit-time lock acquisition failed (lazy engines)
}

// Sum returns the aborts the causes account for.
func (c AbortCauses) Sum() uint64 {
	return c.AbortsWW + c.AbortsValidRead + c.AbortsValidCommit + c.AbortsLocked +
		c.AbortsKilled + c.AbortsExplicit + c.AbortsUser + c.LockAcquireFail
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Commits += other.Commits
	s.ROCommits += other.ROCommits
	s.Aborts += other.Aborts
	s.AbortsWW += other.AbortsWW
	s.AbortsValidRead += other.AbortsValidRead
	s.AbortsValidCommit += other.AbortsValidCommit
	s.AbortsLocked += other.AbortsLocked
	s.AbortsKilled += other.AbortsKilled
	s.AbortsExplicit += other.AbortsExplicit
	s.AbortsUser += other.AbortsUser
	s.LockAcquireFail += other.LockAcquireFail
	s.WaitsCM += other.WaitsCM
	s.AbortsUnwound += other.AbortsUnwound
	s.AbortsReturned += other.AbortsReturned
	s.ReadsLogged += other.ReadsLogged
	s.ReadsDeduped += other.ReadsDeduped
	s.Validations += other.Validations
	s.ValidationReads += other.ValidationReads
}

// AbortRate returns aborts/(commits+aborts), the fraction of transaction
// executions that rolled back.
func (s *Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// RollbackSignal is the panic payload engines use to unwind an aborted
// transaction to its retry loop. It is exported so that engine packages
// share one signal type; user code should never see it.
//
// Since the panic-free abort refactor (DESIGN.md §8) the unwind is
// reserved for the single case that must interrupt user code mid-body: a
// conflict detected inside the user closure (a read or eager write that
// cannot proceed) and user-requested Restart. Conflicts detected on the
// commit path — after the closure has returned — are delivered to the
// retry loop as checked returns and never cross a recover.
type RollbackSignal struct {
	// Explicit marks a user-requested restart (Tx.Restart).
	Explicit bool
}

// SignalRollback and SignalRestart are the pre-allocated, pre-boxed panic
// payloads for the two unwind cases. Engines panic with these shared
// values rather than a fresh RollbackSignal{} so the abort path performs
// no interface boxing; the recover site type-asserts RollbackSignal as
// before.
var (
	SignalRollback any = RollbackSignal{}
	SignalRestart  any = RollbackSignal{Explicit: true}
)
